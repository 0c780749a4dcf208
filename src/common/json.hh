/**
 * @file
 * Minimal JSON writing helpers shared by the trace emitter, the
 * metrics registry, the run report and the bench --json output.
 * Writing only; the parser is json_value.hh.
 */

#ifndef HSIPC_COMMON_JSON_HH
#define HSIPC_COMMON_JSON_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace hsipc
{

/** Escape @p s for use inside a JSON string literal (no quotes added). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

/** Render @p s as a quoted JSON string. */
inline std::string
jsonString(const std::string &s)
{
    // Appends rather than an operator+ chain: the chain trips a
    // GCC 12 -Wrestrict false positive when inlined into callers.
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += jsonEscape(s);
    out += '"';
    return out;
}

/**
 * Render a double as a JSON number.  JSON has no NaN/Inf; those map
 * to null so the file stays loadable.  The shortest round-trippable
 * form (%.17g) would be noisy; %.12g is stable and ample for every
 * quantity this library measures.
 */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/**
 * One JSON object whose members are whole documents rendered
 * elsewhere, in the given order.  Each is embedded verbatim minus its
 * trailing newlines, so a member's text is exactly the document it
 * would be on its own — the layout of a run report.
 */
inline std::string
jsonSections(
    const std::vector<std::pair<std::string, std::string>> &sections)
{
    std::string doc = "{";
    for (const auto &[name, body] : sections) {
        std::size_t n = body.size();
        while (n > 0 && body[n - 1] == '\n')
            --n;
        doc += doc.size() > 1 ? ",\n" : "\n";
        doc += jsonString(name) + ": ";
        doc.append(body, 0, n);
    }
    return doc + "\n}\n";
}

} // namespace hsipc

#endif // HSIPC_COMMON_JSON_HH
