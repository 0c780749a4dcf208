#include "common/metrics/metrics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace hsipc::metrics
{

int
Histogram::bucketIndex(double v)
{
    hsipc_assert(!std::isnan(v) && "histograms reject NaN");
    if (v < 1.0)
        return 0;
    // ilogb is exact at powers of two, where floor(log2(v)) computed
    // through a double logarithm could round either way.
    const int exp = std::ilogb(v);
    return exp + 1 >= numBuckets ? numBuckets - 1 : exp + 1;
}

double
Histogram::bucketLowerBound(int i)
{
    hsipc_assert(i >= 0 && i < numBuckets);
    return i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
}

void
Histogram::observe(double v)
{
    ++buckets[bucketIndex(v)];
    if (n == 0) {
        lo = v;
        hi = v;
    } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    ++n;
    total += v;
}

std::int64_t
Histogram::bucketCount(int i) const
{
    hsipc_assert(i >= 0 && i < numBuckets);
    return buckets[i];
}

double
Histogram::quantileUpperBound(double q) const
{
    hsipc_assert(q >= 0.0 && q <= 1.0);
    if (n == 0)
        return 0.0;
    const double target = q * static_cast<double>(n);
    std::int64_t seen = 0;
    for (int i = 0; i < numBuckets; ++i) {
        seen += buckets[i];
        if (static_cast<double>(seen) >= target)
            return std::ldexp(1.0, i); // upper edge of bucket i
    }
    return std::ldexp(1.0, numBuckets - 1);
}

double
Registry::histogramQuantile(const std::string &name,
                            const Histogram &h, double q) const
{
    // A same-named sketch holds the very samples the histogram saw;
    // its fixed-relative-error quantile supersedes the log2 bucket
    // edge.
    auto it = sketches.find(name);
    if (it != sketches.end() && it->second.count() == h.count() &&
        it->second.count() > 0)
        return it->second.quantile(q);
    return std::min(h.quantileUpperBound(q), h.max());
}

std::string
Registry::toJson() const
{
    std::ostringstream out;
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters) {
        out << (first ? "" : ",") << "\n    " << jsonString(name)
            << ": " << c.value();
        first = false;
    }
    out << (counters.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        out << (first ? "" : ",") << "\n    " << jsonString(name)
            << ": {\"count\": " << h.count()
            << ", \"sum\": " << jsonNumber(h.sum())
            << ", \"min\": " << jsonNumber(h.min())
            << ", \"max\": " << jsonNumber(h.max())
            << ", \"p50\": "
            << jsonNumber(histogramQuantile(name, h, 0.50))
            << ", \"p95\": "
            << jsonNumber(histogramQuantile(name, h, 0.95))
            << ", \"p99\": "
            << jsonNumber(histogramQuantile(name, h, 0.99))
            << ", \"buckets\": {";
        bool bfirst = true;
        for (int i = 0; i < Histogram::numBuckets; ++i) {
            if (h.bucketCount(i) == 0)
                continue;
            out << (bfirst ? "" : ", ") << "\""
                << jsonNumber(Histogram::bucketLowerBound(i))
                << "\": " << h.bucketCount(i);
            bfirst = false;
        }
        out << "}}";
        first = false;
    }
    out << (histograms.empty() ? "" : "\n  ") << "}";
    // Only runs that requested sketches grow this section, so every
    // pre-sketch consumer sees a byte-identical document.
    if (!sketches.empty()) {
        out << ",\n  \"sketches\": {";
        first = true;
        for (const auto &[name, s] : sketches) {
            out << (first ? "" : ",") << "\n    " << jsonString(name)
                << ": " << s.summaryJson();
            first = false;
        }
        out << "\n  }";
    }
    out << "\n}\n";
    return out.str();
}

std::string
Registry::toTable() const
{
    std::ostringstream out;
    if (!counters.empty()) {
        TextTable t("Counters");
        t.header({"name", "value"});
        for (const auto &[name, c] : counters)
            t.row({name, std::to_string(c.value())});
        out << t.render();
    }
    if (!histograms.empty()) {
        TextTable t("Histograms");
        t.header({"name", "count", "mean", "min", "max", "~p50",
                  "~p95", "~p99"});
        for (const auto &[name, h] : histograms)
            t.row({name, std::to_string(h.count()),
                   TextTable::num(h.mean(), 2),
                   TextTable::num(h.min(), 2),
                   TextTable::num(h.max(), 2),
                   TextTable::num(histogramQuantile(name, h, 0.50), 2),
                   TextTable::num(histogramQuantile(name, h, 0.95), 2),
                   TextTable::num(histogramQuantile(name, h, 0.99), 2)});
        out << t.render();
    }
    return out.str();
}

} // namespace hsipc::metrics
