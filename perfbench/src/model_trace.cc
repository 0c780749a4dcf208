#include "model_trace.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "core/gtpn/analyzer.hh"
#include "core/models/local_model.hh"
#include "core/models/nonlocal_model.hh"
#include "core/models/solution.hh"

namespace perfbench
{

using namespace hsipc;
using models::Arch;
using Clock = std::chrono::steady_clock;

namespace
{

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

// --- Mirrors of the time-scale rules in core/models/solution.cc ---

double
autoScale(double min_mean, double resolution = 20.0)
{
    return std::max(1.0, std::floor(min_mean / resolution));
}

double
localMinMean(const models::LocalParams &p, double x)
{
    if (p.arch == Arch::I)
        return std::min({p.uniSend, p.uniRecv, p.uniMatchReply + x});
    return std::min({p.sendSyscall, p.recvSyscall, p.mpSend, p.mpRecv,
                     p.mpMatch, p.hostReplyBase + x, p.mpReply});
}

double
clientMinMean(const models::NonlocalClientParams &p, double sd)
{
    double m = std::min({p.sendSyscall, p.dmaOut, p.dmaIn,
                         p.intrService, sd});
    if (p.arch != Arch::I)
        m = std::min(m, p.mpSend + p.dispatch);
    return m;
}

double
serverMinMean(const models::NonlocalServerParams &p, double cd, double x)
{
    double m = std::min({p.recvSyscall, p.match, p.replyBase + x, cd});
    if (p.arch != Arch::I)
        m = std::min({m, p.mpRecv, p.mpReply});
    return m;
}

/** The fixed point's initial S_d (server communication + X). */
double
initialServerDelay(const models::NonlocalServerParams &sp, double x)
{
    return sp.receivePath() + sp.match + sp.replyBase + x + sp.mpReply +
           sp.dmaIn + sp.dmaOut;
}

/**
 * Relative agreement of two stopped stationary solves of one chain.
 * The solve stops when pi moves less than the tolerance over a check
 * interval; what remains is that change times the chain's mixing time
 * in check intervals.  The largest chains here converge in ~7e3
 * sweeps (~5e2 intervals), so the error stays near 1e-7; the square
 * root of the tolerance bounds it with margin and is still far below
 * any modelling change.
 */
double
stationaryTolerance(const gtpn::SolveOptions &o)
{
    return std::sqrt(o.tolerance);
}

/** Within @p tol of @p ref, relative (absolute near zero). */
bool
within(double v, double ref, double tol)
{
    return std::abs(v - ref) <= tol * std::max(1.0, std::abs(ref));
}

/**
 * gtpn::analyze re-driven through the token game and MarkovChain:
 * the same reachability BFS and solve, timed apart.  Counts edges as
 * they are added (each expansion's outcomes are already merged, so
 * one addEdge per distinct successor).
 */
void
redriveAnalyze(const gtpn::PetriNet &net, const gtpn::AnalyzerOptions &opts,
               const gtpn::AnalyzerResult &lib, const std::string &where,
               ModelLedger &led)
{
    const Clock::time_point t0 = Clock::now();
    std::unordered_map<std::string, std::size_t> index;
    std::vector<gtpn::NetState> states;
    std::vector<std::size_t> frontier;
    auto intern = [&](gtpn::NetState s) {
        auto [it, fresh] = index.emplace(s.key(), states.size());
        if (fresh) {
            states.push_back(std::move(s));
            frontier.push_back(it->second);
        }
        return it->second;
    };

    gtpn::NetState initial{net.initialMarking(), {}};
    for (gtpn::Outcome &o : gtpn::enumerateFirings(net, initial))
        intern(std::move(o.state));

    gtpn::MarkovChain chain;
    std::uint64_t edges = 0;
    while (!frontier.empty()) {
        const std::size_t s = frontier.back();
        frontier.pop_back();
        if (states[s].firings.empty()) {
            chain.addEdge(s, s, 1.0);
            chain.setSojourn(s, 1.0);
            ++edges;
            continue;
        }
        gtpn::NetState advanced = states[s];
        chain.setSojourn(s, gtpn::advanceTime(net, advanced));
        for (gtpn::Outcome &o : gtpn::enumerateFirings(net, advanced)) {
            chain.addEdge(s, intern(std::move(o.state)), o.prob);
            ++edges;
        }
    }
    led.reachNs += nsSince(t0);

    const Clock::time_point t1 = Clock::now();
    const gtpn::SolveResult sol = chain.solve(opts.solve);
    led.solveNs += nsSince(t1);

    ++led.analyzeCalls;
    led.states += states.size();
    led.edges += edges;
    led.sweeps += static_cast<std::uint64_t>(sol.sweeps);
    led.edgeSweeps += double(edges) * double(sol.sweeps);

    if (states.size() != lib.numStates) {
        led.mismatches.push_back(where + ": re-driven " +
                                 std::to_string(states.size()) +
                                 " states, analyze() " +
                                 std::to_string(lib.numStates));
        return;
    }
    std::map<std::string, double> usage;
    for (std::size_t s = 0; s < states.size(); ++s) {
        for (const gtpn::Firing &f : states[s].firings) {
            const std::string &r = net.transition(f.trans).resource;
            if (!r.empty())
                usage[r] += sol.piTime[s];
        }
    }
    const double tol = stationaryTolerance(opts.solve);
    for (const auto &[name, u] : lib.resourceUsage) {
        if (!within(usage[name], u, tol)) {
            led.mismatches.push_back(where + ": usage of " + name +
                                     " differs from analyze()");
        }
    }
}

/** analyze() timed, plus the re-driven split of the same net. */
gtpn::AnalyzerResult
tracedAnalyze(const gtpn::PetriNet &net, const gtpn::AnalyzerOptions &opts,
              const std::string &where, ModelLedger &led)
{
    const Clock::time_point t0 = Clock::now();
    gtpn::AnalyzerResult r = gtpn::analyze(net, opts);
    led.analyzeNs += nsSince(t0);
    redriveAnalyze(net, opts, r, where, led);
    return r;
}

ModelResult
traceLocal(const ModelCell &c, const models::SolveConfig &cfg,
           ModelLedger &led)
{
    const double scale = autoScale(localMinMean(c.lp, c.computeUs));
    const Clock::time_point t0 = Clock::now();
    const models::LocalModel m = models::buildLocalModel(
        c.lp, c.conversations, c.computeUs, scale, c.hostTokens);
    led.buildNs += nsSince(t0);
    const gtpn::AnalyzerResult r =
        tracedAnalyze(m.net, cfg.analyzer, c.label, led);
    return {m.throughputPerUs(r.usage(models::lambdaResource)),
            r.converged};
}

ModelResult
traceNonlocal(const ModelCell &c, const models::SolveConfig &cfg,
              ModelLedger &led)
{
    const models::NonlocalClientParams &cp = c.cp;
    const models::NonlocalServerParams &sp = c.sp;
    const double x = c.computeUs;
    const double n = static_cast<double>(c.conversations);
    double sd = initialServerDelay(sp, x);
    const double sc = sp.receivePath();

    ModelResult out;
    double lambda = 0;
    for (int iter = 1; iter <= cfg.maxIterations; ++iter) {
        ++led.fixedPointIters;
        const std::string where =
            c.label + " iteration " + std::to_string(iter);

        Clock::time_point t0 = Clock::now();
        const models::ClientModel cm = models::buildClientModel(
            cp, c.conversations, sd, c.hostTokens,
            autoScale(clientMinMean(cp, sd)));
        led.buildNs += nsSince(t0);
        const gtpn::AnalyzerResult cr =
            tracedAnalyze(cm.net, cfg.analyzer, where + " client", led);
        lambda = cm.throughputPerUs(cr.usage(models::lambdaResource));
        if (!(lambda > 0))
            break;

        double cd = n / lambda - sd - sc;
        const double floor =
            autoScale(serverMinMean(sp, std::max(cd, 1.0), x));
        cd = std::max(cd, floor);
        t0 = Clock::now();
        const models::ServerModel sm = models::buildServerModel(
            sp, c.conversations, cd, x, c.hostTokens, floor);
        led.buildNs += nsSince(t0);
        const gtpn::AnalyzerResult sr =
            tracedAnalyze(sm.net, cfg.analyzer, where + " server", led);

        const double arrivals =
            sr.firingRate[static_cast<std::size_t>(sm.arrival)] /
            sm.timeScale;
        const double customers =
            sr.placeOccupancy[static_cast<std::size_t>(sm.queue)];
        const double sdNew = customers / arrivals + sp.dmaIn + sp.dmaOut;
        const double rel = std::abs(sdNew - sd) / std::max(sd, 1.0);
        sd = 0.5 * (sd + sdNew);
        if (rel < cfg.tolerance) {
            out.converged = true;
            break;
        }
    }
    out.throughputPerUs = lambda;
    return out;
}

} // namespace

ModelResult
solveCell(const ModelCell &c)
{
    if (c.local) {
        const models::LocalSolution s = models::solveLocalCustom(
            c.lp, c.conversations, c.computeUs, c.hostTokens);
        return {s.throughputPerUs, s.converged};
    }
    const models::NonlocalSolution s = models::solveNonlocalCustom(
        c.cp, c.sp, c.conversations, c.computeUs, c.hostTokens);
    return {s.throughputPerUs, s.converged};
}

double
modelTolerance(const ModelCell &c)
{
    const models::SolveConfig cfg;
    if (c.local) // one stationary solve; throughput sums pi entries
        return stationaryTolerance(cfg.analyzer.solve);
    // The fixed point stops once S_d moves less than the tolerance
    // and then takes half a step, so two stopped runs agree to about
    // twice the tolerance in S_d, and the throughput follows S_d.
    return 2 * cfg.tolerance;
}

ModelResult
traceCell(const ModelCell &c, ModelLedger &led)
{
    const models::SolveConfig cfg;
    return c.local ? traceLocal(c, cfg, led) : traceNonlocal(c, cfg, led);
}

void
buildFirstNet(const ModelCell &c)
{
    if (c.local) {
        models::buildLocalModel(c.lp, c.conversations, c.computeUs,
                                autoScale(localMinMean(c.lp, c.computeUs)),
                                c.hostTokens);
        return;
    }
    const double sd = initialServerDelay(c.sp, c.computeUs);
    models::buildClientModel(c.cp, c.conversations, sd, c.hostTokens,
                             autoScale(clientMinMean(c.cp, sd)));
}

} // namespace perfbench
