#include "common/obs/steady.hh"

#include <cmath>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace hsipc::obs
{

namespace
{

constexpr std::size_t kBatch = 5; //!< the "5" in MSER-5

/** Minimum batches for the rule (and the CIs) to mean anything. */
constexpr std::size_t kMinBatches = 8;

std::vector<double>
batchMeans(const std::vector<double> &obs)
{
    std::vector<double> z;
    for (std::size_t i = 0; i + kBatch <= obs.size(); i += kBatch) {
        double sum = 0;
        for (std::size_t j = 0; j < kBatch; ++j)
            sum += obs[i + j];
        z.push_back(sum / double(kBatch));
    }
    return z;
}

} // namespace

std::size_t
mser5Truncation(const std::vector<double> &obs)
{
    const std::vector<double> z = batchMeans(obs);
    const std::size_t m = z.size();
    if (m < 2)
        return obs.size();
    // d* = argmin over d <= m/2 of sum_{j>=d}(Z_j - mean(d))^2
    //      / (m - d)^2  — the marginal standard error of the mean
    // were the first d batches discarded.
    std::size_t best = 0;
    double bestStat = 0;
    bool first = true;
    for (std::size_t d = 0; d <= m / 2; ++d) {
        const double nLeft = double(m - d);
        double mean = 0;
        for (std::size_t j = d; j < m; ++j)
            mean += z[j];
        mean /= nLeft;
        double ss = 0;
        for (std::size_t j = d; j < m; ++j)
            ss += (z[j] - mean) * (z[j] - mean);
        const double stat = ss / (nLeft * nLeft);
        if (first || stat < bestStat) {
            first = false;
            bestStat = stat;
            best = d;
        }
    }
    return best * kBatch;
}

SteadyStats
analyzeSteadyState(const std::vector<double> &tripsPerBin,
                   const std::vector<double> &rtSumUsPerBin,
                   double intervalUs, double warmupUs)
{
    hsipc_assert(intervalUs > 0);
    hsipc_assert(tripsPerBin.size() == rtSumUsPerBin.size());
    SteadyStats s;
    s.enabled = true;

    const double binSec = intervalUs / 1e6;
    std::vector<double> rate;
    rate.reserve(tripsPerBin.size());
    for (double trips : tripsPerBin)
        rate.push_back(trips / binSec);

    const std::size_t nBatches = rate.size() / kBatch;
    const std::size_t cut = mser5Truncation(rate);
    const std::size_t cutBatches = cut / kBatch;
    s.truncationUs = double(cut) * intervalUs;

    // MSER's verdict is only trustworthy with enough batches, and a
    // truncation point at the search boundary (half the run) means
    // the rule never saw the transient end.
    s.insufficientData =
        nBatches < kMinBatches || cutBatches >= nBatches / 2;

    // The configured warmup covers the transient iff the detected
    // truncation lies inside it (rounded up to whole batches, since
    // the rule cannot resolve finer than one batch).
    const double batchUs = double(kBatch) * intervalUs;
    const double warmupBatchesUs =
        std::ceil(warmupUs / batchUs) * batchUs;
    s.transientPolluted =
        !s.insufficientData && s.truncationUs > warmupBatchesUs;

    // Batch-means point estimates + CIs over the retained batches.
    RunningStat thr;
    RunningStat rt;
    for (std::size_t b = cutBatches; b < nBatches; ++b) {
        double trips = 0, rtSum = 0, r = 0;
        for (std::size_t j = 0; j < kBatch; ++j) {
            const std::size_t i = b * kBatch + j;
            trips += tripsPerBin[i];
            rtSum += rtSumUsPerBin[i];
            r += rate[i];
        }
        thr.add(r / double(kBatch));
        if (trips > 0)
            rt.add(rtSum / trips);
    }
    s.batches = static_cast<long>(thr.count());
    s.throughputPerSec = thr.mean();
    s.throughputCi95PerSec = thr.ci95();
    s.meanRtUs = rt.mean();
    s.rtCi95Us = rt.ci95();
    return s;
}

std::string
SteadyStats::toJson() const
{
    return std::string("{\"enabled\": ") + (enabled ? "true" : "false") +
           ", \"insufficientData\": " +
           (insufficientData ? "true" : "false") +
           ", \"transientPolluted\": " +
           (transientPolluted ? "true" : "false") +
           ", \"truncationUs\": " + jsonNumber(truncationUs) +
           ", \"batches\": " + std::to_string(batches) +
           ", \"throughputPerSec\": " + jsonNumber(throughputPerSec) +
           ", \"throughputCi95PerSec\": " +
           jsonNumber(throughputCi95PerSec) +
           ", \"meanRtUs\": " + jsonNumber(meanRtUs) +
           ", \"rtCi95Us\": " + jsonNumber(rtCi95Us) + "}";
}

} // namespace hsipc::obs
