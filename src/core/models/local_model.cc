#include "core/models/local_model.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace hsipc::models
{

using namespace gtpn;

namespace
{

/** The exit and loop frequencies of a geometric stage (Fig 6.7). */
struct StageFrequencies
{
    Expr exit;
    Expr loop;
};

/** The one rule for a stage's frequencies: 1/mean and 1 - 1/mean. */
StageFrequencies
stageFrequencies(double mean, const Expr &gateExpr)
{
    hsipc_assert(mean >= 1.0);
    const double p = 1.0 / mean;
    if (gateExpr)
        return {gate(gateExpr, p), gate(gateExpr, 1.0 - p)};
    return {constant(p), constant(1.0 - p)};
}

} // namespace

Stage
addStage(PetriNet &net, const std::string &name, double mean,
         const std::vector<PlaceId> &from, const std::vector<PlaceId> &to,
         const std::vector<PlaceId> &held, Expr gateExpr,
         const std::string &resource)
{
    StageFrequencies f = stageFrequencies(mean, gateExpr);
    Stage s;
    s.exit = net.addTransition(name + ".exit", constant(1.0),
                               std::move(f.exit), resource);
    s.loop = net.addTransition(name + ".loop", constant(1.0),
                               std::move(f.loop));
    for (PlaceId pl : from) {
        net.inputArc(pl, s.exit);
        net.inputArc(pl, s.loop);
        net.outputArc(s.loop, pl);
    }
    for (PlaceId pl : to)
        net.outputArc(s.exit, pl);
    for (PlaceId pl : held) {
        net.inputArc(pl, s.exit);
        net.inputArc(pl, s.loop);
        net.outputArc(s.exit, pl);
        net.outputArc(s.loop, pl);
    }
    return s;
}

void
setStageMean(PetriNet &net, const Stage &s, double mean)
{
    StageFrequencies f = stageFrequencies(mean, nullptr);
    net.setFrequency(s.exit, std::move(f.exit));
    net.setFrequency(s.loop, std::move(f.loop));
}

namespace
{

LocalModel
buildUniprocessor(const LocalParams &p, int n, double x, double scale,
                  int hosts)
{
    LocalModel m;
    m.timeScale = scale;
    PetriNet &net = m.net;

    const PlaceId clients = net.addPlace("Clients", n);
    const PlaceId servers = net.addPlace("Servers", n);
    const PlaceId host = net.addPlace("Host", hosts);
    const PlaceId send_wait = net.addPlace("SendWait");
    const PlaceId recv_wait = net.addPlace("RecvWait");

    // T0/T1 — syscall send plus (deferred) client restart.
    addStage(net, "send", p.uniSend / scale, {clients}, {send_wait},
             {host});
    // T2/T3 — syscall receive plus (deferred) server restart.
    addStage(net, "recv", p.uniRecv / scale, {servers}, {recv_wait},
             {host});
    // T4/T5 — match, server computation X, and reply.
    addStage(net, "matchReply", (p.uniMatchReply + x) / scale,
             {send_wait, recv_wait}, {clients, servers}, {host}, nullptr,
             lambdaResource);
    return m;
}

LocalModel
buildCoprocessor(const LocalParams &p, int n, double x, double scale,
                 int hosts)
{
    LocalModel m;
    m.timeScale = scale;
    PetriNet &net = m.net;

    const PlaceId clients = net.addPlace("Clients", n);
    const PlaceId servers = net.addPlace("Servers", n);
    const PlaceId host = net.addPlace("Host", hosts);
    const PlaceId mp = net.addPlace("MP", 1);
    const PlaceId send_req = net.addPlace("SendReq");
    const PlaceId recv_req = net.addPlace("RecvReq");
    const PlaceId send_done = net.addPlace("SendProcessed");
    const PlaceId recv_done = net.addPlace("RecvProcessed");
    const PlaceId server_ready = net.addPlace("ServerReady");
    const PlaceId reply_req = net.addPlace("ReplyReq");

    // Host side (Fig 6.12: T0/T1, T2/T3, T10/T11).
    addStage(net, "sendSyscall", p.sendSyscall / scale, {clients},
             {send_req}, {host});
    addStage(net, "recvSyscall", p.recvSyscall / scale, {servers},
             {recv_req}, {host});
    addStage(net, "hostReply", (p.hostReplyBase + x) / scale,
             {server_ready}, {reply_req}, {host});

    // Message-coprocessor side (T4/T5, T6/T7, T8/T9, T12/T13).
    addStage(net, "mpSend", p.mpSend / scale, {send_req}, {send_done},
             {mp});
    addStage(net, "mpRecv", p.mpRecv / scale, {recv_req}, {recv_done},
             {mp});
    addStage(net, "mpMatch", p.mpMatch / scale, {send_done, recv_done},
             {server_ready}, {mp});
    addStage(net, "mpReply", p.mpReply / scale, {reply_req},
             {clients, servers}, {mp}, nullptr, lambdaResource);
    return m;
}

} // namespace

LocalModel
buildLocalModel(const LocalParams &p, int conversations, double computeTime,
                double timeScale, int hostTokens)
{
    hsipc_assert(conversations >= 1);
    hsipc_assert(computeTime >= 0.0);
    hsipc_assert(timeScale >= 1.0);
    hsipc_assert(hostTokens >= 1);
    if (p.arch == Arch::I) {
        return buildUniprocessor(p, conversations, computeTime, timeScale,
                                 hostTokens);
    }
    return buildCoprocessor(p, conversations, computeTime, timeScale,
                            hostTokens);
}

LocalParams
offloadParams(double fraction, double mpSpeed)
{
    hsipc_assert(fraction >= 0.0 && fraction <= 1.0);
    hsipc_assert(mpSpeed > 0.0);
    LocalParams p = localParams(Arch::II);

    // Each MP stage keeps `fraction` of its work (sped up by the
    // front-end's rate); the rest returns to the adjacent host stage.
    auto split = [&](double &mp_stage, double &host_stage) {
        const double keep = mp_stage * fraction / mpSpeed;
        host_stage += mp_stage * (1.0 - fraction);
        // A stage needs at least one time unit; below that, fold it
        // into the host entirely (no front-end interaction is left
        // worth dispatching).
        mp_stage = std::max(keep, 1.0);
    };
    split(p.mpSend, p.sendSyscall);
    split(p.mpRecv, p.recvSyscall);
    split(p.mpMatch, p.hostReplyBase);
    split(p.mpReply, p.hostReplyBase);
    return p;
}

LocalParams
scaleMpSpeed(LocalParams p, double factor)
{
    hsipc_assert(factor > 0.0);
    if (p.arch == Arch::I)
        return p;
    p.mpSend /= factor;
    p.mpRecv /= factor;
    p.mpMatch /= factor;
    p.mpReply /= factor;
    return p;
}

} // namespace hsipc::models
