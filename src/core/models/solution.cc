#include "core/models/solution.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.hh"
#include "core/models/local_model.hh"

namespace hsipc::models
{

namespace
{

/** Pick a time scale keeping >= @p resolution units in @p minMean. */
double
autoScale(double min_mean, double resolution = 20.0)
{
    return std::max(1.0, std::floor(min_mean / resolution));
}

double
localMinMean(const LocalParams &p, double x)
{
    if (p.arch == Arch::I)
        return std::min({p.uniSend, p.uniRecv, p.uniMatchReply + x});
    return std::min({p.sendSyscall, p.recvSyscall, p.mpSend, p.mpRecv,
                     p.mpMatch, p.hostReplyBase + x, p.mpReply});
}

double
clientMinMean(const NonlocalClientParams &p, double sd)
{
    double m = std::min({p.sendSyscall, p.dmaOut, p.dmaIn,
                         p.intrService, sd});
    if (p.arch != Arch::I)
        m = std::min(m, p.mpSend + p.dispatch);
    return m;
}

double
serverMinMean(const NonlocalServerParams &p, double cd, double x)
{
    double m = std::min({p.recvSyscall, p.match, p.replyBase + x, cd});
    if (p.arch != Arch::I)
        m = std::min({m, p.mpRecv, p.mpReply});
    return m;
}

} // namespace

double
localTimeScale(const LocalParams &p, double computeTime)
{
    return autoScale(localMinMean(p, computeTime));
}

LocalSolution
solveLocalCustom(const LocalParams &params, int conversations,
                 double computeTime, int hostTokens,
                 const SolveConfig &cfg)
{
    const double scale = cfg.timeScale > 0.0
        ? cfg.timeScale
        : localTimeScale(params, computeTime);

    const LocalModel m = buildLocalModel(params, conversations,
                                         computeTime, scale,
                                         hostTokens);
    const gtpn::AnalyzerResult r = gtpn::analyze(m.net, cfg.analyzer);
    hsipc_assert(!r.deadlock);

    LocalSolution out;
    out.throughputPerUs = m.throughputPerUs(r.usage(lambdaResource));
    out.states = r.numStates;
    out.converged = r.converged;
    return out;
}

LocalSolution
solveLocal(Arch arch, int conversations, double computeTime,
           const SolveConfig &cfg)
{
    return solveLocalCustom(localParams(arch), conversations,
                            computeTime, 1, cfg);
}

NonlocalSolution
solveNonlocalCustom(const NonlocalClientParams &cp,
                    const NonlocalServerParams &sp, int conversations,
                    double computeTime, int hostTokens,
                    const SolveConfig &cfg)
{
    const double x = computeTime;
    const double n = static_cast<double>(conversations);

    // Initial S_d: the server-side communication time plus the
    // computation in the conversation (§6.6.3).
    double sd = sp.receivePath() + sp.match + sp.replyBase + x +
                sp.mpReply + sp.dmaIn + sp.dmaOut;
    const double sc = sp.receivePath();

    NonlocalSolution out;
    bool solves_converged = true;
    double lambda_per_us = 0.0;
    double client_states = 0.0, server_states = 0.0;

    // Each node's net is built and explored once per time scale.  The
    // iterations in between move only its surrogate stage, so they
    // re-solve the explored state space (gtpn::StateSpace), which
    // gives the same bits as analyzing a freshly built net.
    std::optional<ClientModel> cm;
    std::optional<gtpn::StateSpace> cspace;
    std::optional<ServerModel> sm;
    std::optional<gtpn::StateSpace> sspace;

    for (int iter = 1; iter <= cfg.maxIterations; ++iter) {
        out.iterations = iter;

        // Client node with the current surrogate S_d.
        const double cscale = cfg.timeScale > 0.0
            ? cfg.timeScale
            : autoScale(clientMinMean(cp, sd));
        if (cm && cm->timeScale == cscale) {
            setStageMean(cm->net, cm->serverDelay, sd / cscale);
        } else {
            cspace.reset();
            cm.emplace(buildClientModel(cp, conversations, sd, hostTokens,
                                        cscale));
            cspace.emplace(cm->net, cfg.analyzer);
        }
        const gtpn::AnalyzerResult cr = cspace->solve();
        hsipc_assert(!cr.deadlock);
        solves_converged = solves_converged && cr.converged;
        lambda_per_us = cm->throughputPerUs(cr.usage(lambdaResource));
        client_states = static_cast<double>(cr.numStates);
        hsipc_assert(lambda_per_us > 0.0);

        // Little's law at the client node: mean cycle T = N / Lambda,
        // client busy time C_d' = T - S_d, and the wait seen by the
        // server excludes the overlapped receive processing S_c.
        const double t = n / lambda_per_us;
        out.clientBusy = t - sd;
        double cd = out.clientBusy - sc;

        // Server node with the surrogate C_d.
        const double sscale_floor = cfg.timeScale > 0.0
            ? cfg.timeScale
            : autoScale(serverMinMean(sp, std::max(cd, 1.0), x));
        cd = std::max(cd, sscale_floor);
        if (sm && sm->timeScale == sscale_floor) {
            setStageMean(sm->net, sm->clientWait, cd / sscale_floor);
        } else {
            sspace.reset();
            sm.emplace(buildServerModel(sp, conversations, cd, x,
                                        hostTokens, sscale_floor));
            sspace.emplace(sm->net, cfg.analyzer);
        }
        const gtpn::AnalyzerResult sr = sspace->solve();
        hsipc_assert(!sr.deadlock);
        solves_converged = solves_converged && sr.converged;
        server_states = static_cast<double>(sr.numStates);

        const double arrivals_per_us =
            sr.firingRate[static_cast<std::size_t>(sm->arrival)] /
            sm->timeScale;
        const double customers =
            sr.placeOccupancy[static_cast<std::size_t>(sm->queue)];
        hsipc_assert(arrivals_per_us > 0.0);

        // Little's law at the server node, plus the packet DMA times
        // accounted outside the model (§6.6.4).
        const double sd_new =
            customers / arrivals_per_us + sp.dmaIn + sp.dmaOut;

        const double rel = std::abs(sd_new - sd) / std::max(sd, 1.0);
        sd = 0.5 * (sd + sd_new);
        if (rel < cfg.tolerance) {
            // A fixed point built on an unfinished stationary solve is
            // not a converged one.
            out.converged = solves_converged;
            break;
        }
    }

    out.throughputPerUs = lambda_per_us;
    out.serverDelay = sd;
    out.clientStates = static_cast<std::size_t>(client_states);
    out.serverStates = static_cast<std::size_t>(server_states);
    return out;
}

NonlocalSolution
solveNonlocal(Arch arch, int conversations, double computeTime,
              const SolveConfig &cfg)
{
    return solveNonlocalCustom(nonlocalClientParams(arch),
                               nonlocalServerParams(arch), conversations,
                               computeTime, 1, cfg);
}

NonlocalClientParams
validationClientParams()
{
    NonlocalClientParams p = nonlocalClientParams(Arch::II);
    // Outgoing packets cross the memory-mapped network buffer once
    // more on the MP; inbound completion processing reads it back.
    p.mpSend += extraCopyUs;
    p.intrService += extraCopyUs;
    return p;
}

NonlocalServerParams
validationServerParams()
{
    NonlocalServerParams p = nonlocalServerParams(Arch::II);
    p.match += extraCopyUs;
    p.mpReply += extraCopyUs;
    return p;
}

} // namespace hsipc::models
