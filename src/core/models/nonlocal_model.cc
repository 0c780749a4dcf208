#include "core/models/nonlocal_model.hh"

#include <vector>

#include "common/logging.hh"
#include "core/models/local_model.hh"

namespace hsipc::models
{

using namespace gtpn;

namespace
{

/** Add an instantaneous routing transition with the given frequency. */
TransId
addRoute(PetriNet &net, const std::string &name, Expr freq,
         const std::vector<PlaceId> &from, const std::vector<PlaceId> &to)
{
    const TransId t =
        net.addTransition(name, constant(0.0), std::move(freq));
    for (PlaceId pl : from)
        net.inputArc(pl, t);
    for (PlaceId pl : to)
        net.outputArc(t, pl);
    return t;
}

ClientModel
buildClientUni(const NonlocalClientParams &p, int n, double sd, int hosts,
               double k)
{
    ClientModel m;
    m.timeScale = k;
    PetriNet &net = m.net;

    const PlaceId clients = net.addPlace("Clients", n);
    const PlaceId host = net.addPlace("Host", hosts);
    const PlaceId io_out = net.addPlace("IoOut", 1);
    const PlaceId io_in = net.addPlace("IoIn", 1);
    const PlaceId send_done = net.addPlace("SendDone");
    const PlaceId wait_serv = net.addPlace("WaitServer");
    const PlaceId resp = net.addPlace("RespArrived");
    const PlaceId dma_in_act = net.addPlace("DmaInActive");
    const PlaceId net_intr = net.addPlace("NetIntr");

    // T4/T5 — interrupt service: cleanup and restart client.  Runs at
    // interrupt priority; it does not take the host token but shuts
    // the gate of every host stage below.
    const Stage intr = addStage(net, "netIntr", p.intrService / k,
                                {net_intr}, {clients}, {});
    const Expr g = allOf({placeEmpty(net_intr),
                          noneFiring({intr.exit, intr.loop})});

    // T1/T2 — syscall send (all communication processing on the host).
    addStage(net, "send", p.sendSyscall / k, {clients}, {send_done},
             {host}, g, lambdaResource);
    // T6/T7 — DMA out (independent unit, ungated).
    addStage(net, "dmaOut", p.dmaOut / k, {send_done}, {wait_serv},
             {io_out});
    // T8/T9 — surrogate server delay S_d.
    m.serverDelay =
        addStage(net, "serverDelay", sd / k, {wait_serv}, {resp}, {});
    // T10 — claim the inbound interface.
    addRoute(net, "claimIoIn", constant(1.0), {resp, io_in},
             {dma_in_act});
    // T11/T12 — DMA in; gated: the single receive buffer is busy until
    // the previous interrupt has been serviced.
    addStage(net, "dmaIn", p.dmaIn / k, {dma_in_act},
             {net_intr, io_in}, {}, g);
    return m;
}

ClientModel
buildClientCoproc(const NonlocalClientParams &p, int n, double sd,
                  int hosts, double k)
{
    ClientModel m;
    m.timeScale = k;
    PetriNet &net = m.net;

    const PlaceId clients = net.addPlace("Clients", n);
    const PlaceId host = net.addPlace("Host", hosts);
    const PlaceId mp = net.addPlace("MP", 1);
    const PlaceId io_out = net.addPlace("IoOut", 1);
    const PlaceId io_in = net.addPlace("IoIn", 1);
    const PlaceId send_req = net.addPlace("SendReq");
    const PlaceId mp_send_act = net.addPlace("MpSendActive");
    const PlaceId dma_out_q = net.addPlace("DmaOutQ");
    const PlaceId wait_serv = net.addPlace("WaitServer");
    const PlaceId resp = net.addPlace("RespArrived");
    const PlaceId dma_in_act = net.addPlace("DmaInActive");
    const PlaceId net_intr = net.addPlace("NetIntr");

    // T6/T7 — interrupt service on the MP: cleanup client.
    const Stage intr = addStage(net, "netIntr", p.intrService / k,
                                {net_intr}, {clients}, {});
    const Expr g = allOf({placeEmpty(net_intr),
                          noneFiring({intr.exit, intr.loop})});

    // T0/T1 — syscall send on the host (ungated: interrupts go to MP).
    addStage(net, "sendSyscall", p.sendSyscall / k, {clients},
             {send_req}, {host}, nullptr, lambdaResource);
    // T5 — MP picks up the request (gated against interrupt service);
    // the thesis' 1-us dispatch transition T2 is folded into the MP
    // send-processing mean.
    addRoute(net, "mpGrab", gate(g, 1.0), {send_req, mp},
             {mp_send_act});
    // T3/T4 — process send on the MP.
    addStage(net, "mpSend", (p.mpSend + p.dispatch) / k, {mp_send_act},
             {dma_out_q, mp}, {}, g);
    // T8/T9 — DMA out.
    addStage(net, "dmaOut", p.dmaOut / k, {dma_out_q}, {wait_serv},
             {io_out});
    // T10/T11 — surrogate server delay S_d.
    m.serverDelay =
        addStage(net, "serverDelay", sd / k, {wait_serv}, {resp}, {});
    // T12 — claim the inbound interface.
    addRoute(net, "claimIoIn", constant(1.0), {resp, io_in},
             {dma_in_act});
    // T13/T14 — DMA in (gated on the receive buffer being free).
    addStage(net, "dmaIn", p.dmaIn / k, {dma_in_act},
             {net_intr, io_in}, {}, g);
    return m;
}

ServerModel
buildServerUni(const NonlocalServerParams &p, int n, double cd, double x,
               int hosts, double k)
{
    ServerModel m;
    m.timeScale = k;
    PetriNet &net = m.net;

    const PlaceId servers = net.addPlace("Servers", n);
    const PlaceId host = net.addPlace("Host", hosts);
    const PlaceId client_wait = net.addPlace("ClientWait");
    const PlaceId req_arrived = net.addPlace("ReqArrived");
    const PlaceId req_service = net.addPlace("RequestService");
    const PlaceId server_ready = net.addPlace("ServerReady");
    const PlaceId queue = net.addPlace("Queue");
    const PlaceId done = net.addPlace("Done");

    // T8/T9 — match client with server (interrupt-level processing).
    const Stage match = addStage(net, "match", p.match / k,
                                 {req_service}, {server_ready}, {});
    const Expr g = allOf({placeEmpty(req_service),
                          noneFiring({match.exit, match.loop})});

    // T1/T2 — syscall receive on the host (gated).
    addStage(net, "recv", p.recvSyscall / k, {servers}, {client_wait},
             {host}, g);
    // T3/T4 — surrogate client wait C_d; arrival marks a request
    // entering the node and joins the customers-in-system Queue.
    m.clientWait = addStage(net, "clientWait", cd / k, {client_wait},
                            {req_arrived, queue}, {});
    m.arrival = m.clientWait.exit;
    // T5 — accept the request once no other is being matched.
    addRoute(net, "accept", gate(g, 1.0), {req_arrived}, {req_service});
    // T11/T12 — compute X and syscall reply on the host (gated).
    addStage(net, "computeReply", (p.replyBase + x) / k, {server_ready},
             {servers, done}, {host}, g, lambdaResource);
    // T7 — release the Queue token when the rendezvous completes.
    addRoute(net, "release", constant(1.0), {done, queue}, {});

    m.queue = queue;
    return m;
}

ServerModel
buildServerCoproc(const NonlocalServerParams &p, int n, double cd,
                  double x, int hosts, double k)
{
    ServerModel m;
    m.timeScale = k;
    PetriNet &net = m.net;

    const PlaceId servers = net.addPlace("Servers", n);
    const PlaceId host = net.addPlace("Host", hosts);
    const PlaceId mp = net.addPlace("MP", 1);
    const PlaceId recv_req = net.addPlace("RecvReq");
    const PlaceId mp_recv_act = net.addPlace("MpRecvActive");
    const PlaceId client_wait = net.addPlace("ClientWait");
    const PlaceId req_arrived = net.addPlace("ReqArrived");
    const PlaceId req_service = net.addPlace("RequestService");
    const PlaceId server_ready = net.addPlace("ServerReady");
    const PlaceId reply_req = net.addPlace("ReplyReq");
    const PlaceId mp_reply_act = net.addPlace("MpReplyActive");
    const PlaceId queue = net.addPlace("Queue");
    const PlaceId done = net.addPlace("Done");

    // T7/T8 — match client with server (MP interrupt processing).
    const Stage match = addStage(net, "match", p.match / k,
                                 {req_service}, {server_ready}, {});
    const Expr g = allOf({placeEmpty(req_service),
                          noneFiring({match.exit, match.loop})});

    // T13/T14 — syscall receive on the host (ungated in II-IV).
    addStage(net, "recvSyscall", p.recvSyscall / k, {servers},
             {recv_req}, {host});
    // MP picks up and processes the receive (T0/T1, gated).
    addRoute(net, "mpRecvGrab", gate(g, 1.0), {recv_req, mp},
             {mp_recv_act});
    addStage(net, "mpRecv", p.mpRecv / k, {mp_recv_act},
             {client_wait, mp}, {}, g);
    // T2/T3 — surrogate client wait C_d.
    m.clientWait = addStage(net, "clientWait", cd / k, {client_wait},
                            {req_arrived, queue}, {});
    m.arrival = m.clientWait.exit;
    // T4 — accept the request when no other is in service.
    addRoute(net, "accept", gate(g, 1.0), {req_arrived}, {req_service});
    // T9/T10 — compute X and syscall reply on the host.
    addStage(net, "computeReply", (p.replyBase + x) / k, {server_ready},
             {reply_req}, {host});
    // T11/T12 — process reply on the MP (gated).
    addRoute(net, "mpReplyGrab", gate(g, 1.0), {reply_req, mp},
             {mp_reply_act});
    addStage(net, "mpReply", p.mpReply / k, {mp_reply_act},
             {servers, done, mp}, {}, g, lambdaResource);
    // Release the Queue token at rendezvous completion.
    addRoute(net, "release", constant(1.0), {done, queue}, {});

    m.queue = queue;
    return m;
}

} // namespace

ClientModel
buildClientModel(const NonlocalClientParams &p, int clients,
                 double serverDelay, int hostTokens, double timeScale)
{
    hsipc_assert(clients >= 1 && hostTokens >= 1);
    hsipc_assert(serverDelay >= timeScale);
    if (p.arch == Arch::I)
        return buildClientUni(p, clients, serverDelay, hostTokens,
                              timeScale);
    return buildClientCoproc(p, clients, serverDelay, hostTokens,
                             timeScale);
}

ServerModel
buildServerModel(const NonlocalServerParams &p, int servers,
                 double clientWait, double computeTime, int hostTokens,
                 double timeScale)
{
    hsipc_assert(servers >= 1 && hostTokens >= 1);
    hsipc_assert(clientWait >= timeScale);
    hsipc_assert(computeTime >= 0.0);
    if (p.arch == Arch::I)
        return buildServerUni(p, servers, clientWait, computeTime,
                              hostTokens, timeScale);
    return buildServerCoproc(p, servers, clientWait, computeTime,
                             hostTokens, timeScale);
}

} // namespace hsipc::models
