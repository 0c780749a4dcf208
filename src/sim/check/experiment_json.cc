#include "sim/check/experiment_json.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/json.hh"
#include "sim/check/knobs.hh"

namespace hsipc::sim::check
{

namespace
{

/**
 * Render a double with enough digits to round-trip exactly through
 * strtod (%.12g, the measurement form, is deliberately lossy).
 */
std::string
exactNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// Rendering: one overload per field type, appending to @p out.

template <class R>
void renderFields(std::string &out, const R &rec, const char *sep);

void
render(std::string &out, bool v)
{
    out += v ? "true" : "false";
}

void
render(std::string &out, int v)
{
    out += std::to_string(v);
}

void
render(std::string &out, double v)
{
    out += exactNumber(v);
}

void
render(std::string &out, const std::string &v)
{
    out += jsonString(v);
}

void
render(std::string &out, models::Arch v)
{
    out += std::to_string(static_cast<int>(v));
}

// The seed is a full 64-bit value; a JSON number (double) only holds
// 53 bits exactly, so it travels as a decimal string.
void
render(std::string &out, std::uint64_t v)
{
    out += jsonString(std::to_string(v));
}

/** A nested record as a one-line object. */
template <class R>
void
renderRecord(std::string &out, const R &rec)
{
    out += '{';
    renderFields(out, rec, ", ");
    out += '}';
}

void
render(std::string &out, const topo::Topology &t)
{
    renderRecord(out, t);
}

void
render(std::string &out, const std::vector<CrashWindow> &windows)
{
    out += '[';
    for (std::size_t i = 0; i < windows.size(); ++i) {
        if (i)
            out += ", ";
        renderRecord(out, windows[i]);
    }
    out += ']';
}

/** `"name": value` for each row of knobs<R>, joined by @p sep. */
template <class R>
void
renderFields(std::string &out, const R &rec, const char *sep)
{
    const char *gap = "";
    for (const Knob<R> &k : knobs<R>) {
        std::visit(
            [&](auto m) {
                // The topology object appears only when configured,
                // so every pre-topology document (and its golden
                // bytes) is unchanged.
                if constexpr (std::is_same_v<decltype(m),
                                             topo::Topology R::*>)
                    if (rec.*m == topo::Topology{})
                        return;
                out += gap;
                out += '"';
                out += k.name;
                out += "\": ";
                render(out, rec.*m);
                gap = sep;
            },
            k.field);
    }
}

// Parsing: one overload per field type, reading @p f (the value of
// field @p key of a @p what record) into @p out.

[[noreturn]] void
badField(const char *what, const std::string &key, const char *must)
{
    throw std::runtime_error(std::string(what) + " field '" + key +
                             "' must be " + must);
}

template <class R>
void readObject(const JsonValue &v, R &rec, const char *what);

void
read(const JsonValue &f, const char *what, const std::string &key,
     double &out)
{
    if (f.kind() != JsonValue::Kind::Number)
        badField(what, key, "a number");
    out = f.asNumber();
}

void
read(const JsonValue &f, const char *what, const std::string &key,
     int &out)
{
    double d = 0;
    read(f, what, key, d);
    // Range first: converting an out-of-range double to int is UB.
    if (!(d >= std::numeric_limits<int>::min() &&
          d <= std::numeric_limits<int>::max()) ||
        d != std::trunc(d))
        badField(what, key, "an integer");
    out = static_cast<int>(d);
}

void
read(const JsonValue &f, const char *what, const std::string &key,
     bool &out)
{
    if (f.kind() != JsonValue::Kind::Bool)
        badField(what, key, "a boolean");
    out = f.asBool();
}

void
read(const JsonValue &f, const char *what, const std::string &key,
     std::string &out)
{
    if (f.kind() != JsonValue::Kind::String)
        badField(what, key, "a string");
    out = f.asString();
}

void
read(const JsonValue &f, const char *what, const std::string &key,
     models::Arch &out)
{
    int a = 0;
    read(f, what, key, a);
    if (a < 1 || a > 4)
        badField(what, key, "1..4");
    out = static_cast<models::Arch>(a);
}

void
read(const JsonValue &f, const char *what, const std::string &key,
     std::uint64_t &out)
{
    std::string s;
    read(f, what, key, s);
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        badField(what, key, "a decimal string");
}

void
read(const JsonValue &f, const char *what, const std::string &key,
     topo::Topology &out)
{
    if (!f.isObject())
        badField(what, key, "an object");
    readObject(f, out, key.c_str());
}

/**
 * A list of crash windows: each an object with no unknown keys and
 * every one of its keys present.
 */
void
read(const JsonValue &f, const char *what, const std::string &key,
     std::vector<CrashWindow> &out)
{
    if (!f.isArray())
        badField(what, key, "an array");
    std::vector<CrashWindow> windows;
    for (const JsonValue &e : f.asArray()) {
        if (!e.isObject())
            throw std::runtime_error("crash window entries must be "
                                     "objects");
        CrashWindow w;
        readObject(e, w, "crash window");
        for (const char *k : {"node", "startUs", "endUs"})
            if (!e.has(k))
                throw std::runtime_error(
                    "crash window entries need 'node', 'startUs' and "
                    "'endUs'");
        windows.push_back(w);
    }
    out = std::move(windows);
}

/**
 * Read every key of the object @p v into @p rec.  Unknown keys fail
 * loudly; missing keys keep their defaults.
 */
template <class R>
void
readObject(const JsonValue &v, R &rec, const char *what)
{
    for (const auto &[key, value] : v.asObject()) {
        const auto row =
            std::find_if(std::begin(knobs<R>), std::end(knobs<R>),
                         [&](const Knob<R> &k) { return key == k.name; });
        if (row == std::end(knobs<R>))
            throw std::runtime_error(std::string("unknown ") + what +
                                     " field '" + key + "'");
        std::visit([&](auto m) { read(value, what, key, rec.*m); },
                   row->field);
    }
}

} // namespace

std::string
experimentToJson(const Experiment &exp)
{
    std::string doc = "{\n  ";
    renderFields(doc, exp, ",\n  ");
    return doc + "\n}\n";
}

Experiment
experimentFromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw std::runtime_error(
            "experiment document must be a JSON object");
    Experiment exp;
    readObject(v, exp, "experiment");
    return exp;
}

Experiment
experimentFromJsonText(const std::string &text)
{
    return experimentFromJson(parseJson(text));
}

} // namespace hsipc::sim::check
