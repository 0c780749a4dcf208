#include "sim/kernel/ipc_sim.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/obs/probe.hh"
#include "common/obs/trace_sample.hh"
#include "common/rng.hh"
#include "sim/check/experiment_json.hh"
#include "sim/check/knobs.hh"
#include "sim/check/test_hooks.hh"
#include "sim/des/event_queue.hh"
#include "sim/des/resource.hh"
#include "sim/net/faults.hh"
#include "sim/net/reliable.hh"
#include "sim/node/costs.hh"
#include "sim/node/processor.hh"
#include "sim/runner/sweep_runner.hh"
#include "sim/topo/network.hh"

namespace hsipc::sim
{

using models::Arch;

namespace
{

// Robustness-layer kernel costs: microseconds of communication-
// processor time per event, each touching a few kernel-buffer words.
// They are deliberately small next to the §6.3 path costs —
// robustness is bookkeeping, not data movement — but they are real
// work, charged to the host on Architecture I and the MP on II-IV.
constexpr double rpcAdmitUs = 20.0;  //!< admission check per attempt
constexpr double rpcShedUs = 10.0;   //!< rejecting/evicting an attempt
constexpr double rpcDedupUs = 15.0;  //!< suppressing a duplicate
constexpr double rpcReplayUs = 40.0; //!< replaying a cached reply
constexpr double rpcRetryUs = 30.0;  //!< client-side retry dispatch
constexpr double rpcExpireUs = 15.0; //!< tearing down at the deadline
constexpr double rpcOrphanUs = 10.0; //!< discarding an orphaned reply
constexpr int rpcKbAccesses = 4;     //!< buffer accesses per rpc event

/** One request attempt waiting in a node's service queue. */
struct QueueEntry
{
    int conv;       //!< conversation whose request this is
    long rid;       //!< request id of the attempt (0 in closed runs)
    long msg;       //!< lifetime id of the admitted attempt
    Tick enqueueAt; //!< when it joined the queue
};

/** One node of the distributed system. */
struct Node
{
    Node(EventQueue &eq, const std::string &prefix, int hosts,
         bool coproc, bool split_bus, const obs::Sinks &sinks)
        : busTcb(eq, prefix + ".busTcb"),
          busKb(eq, prefix + ".busKb"), nicIn(eq, prefix + ".nicIn"),
          nicOut(eq, prefix + ".nicOut"), splitBus(split_bus),
          svcName(prefix + ".svc")
    {
        for (int h = 0; h < hosts; ++h)
            this->hosts.emplace_back(
                std::make_unique<Processor>(eq, prefix + ".host" +
                                            std::to_string(h)));
        if (coproc)
            mp = std::make_unique<Processor>(eq, prefix + ".mp");

        // Registration order fixes the trace layout and the profile's
        // origins: hosts, MP, bus partitions, DMA engines, then the
        // service queue's track.
        for (auto &h : this->hosts)
            h->observe(sinks);
        if (mp)
            mp->observe(sinks);
        busTcb.observe(sinks);
        if (split_bus)
            busKb.observe(sinks);
        nicIn.observe(sinks);
        nicOut.observe(sinks);
        if (sinks.tracer)
            svcTrack = sinks.tracer->track(prefix + ".svc");
    }

    /** The processor executing communication processing. */
    Processor &
    commProc()
    {
        return mp ? *mp : *hosts[0];
    }

    std::vector<std::unique_ptr<Processor>> hosts;
    std::unique_ptr<Processor> mp;
    Resource busTcb;
    Resource busKb;
    Processor nicIn;
    Processor nicOut;
    bool splitBus;

    // Kernel state: the node's service queue (pending request
    // attempts and waiting server ids) plus the kernel-buffer pool.
    std::deque<QueueEntry> pendingMsgs;
    std::deque<int> waitingServers;
    int freeBuffers = 0;
    std::deque<int> buffersWaiting; //!< clients stalled for a buffer
    int svcTrack = -1; //!< trace track of the service queue
    std::string svcName; //!< causal-log resource name of the queue
};

/** Build the injector's fault model from the experiment knobs. */
FaultPlan
makePlan(const Experiment &exp)
{
    FaultPlan p;
    p.dropRate = exp.lossRate;
    p.corruptRate = exp.corruptRate;
    p.duplicateRate = exp.duplicateRate;
    p.reorderRate = exp.reorderRate;
    p.reorderDelayUs = exp.reorderDelayUs;
    p.crashes = exp.crashSchedule;
    return p;
}

/** The whole simulation. */
class Sim
{
  public:
    Sim(const Experiment &exp, trace::Tracer *extTracer,
        metrics::Registry *extMetrics)
        : exp(exp), rng(exp.seed),
          // The injector draws from its own stream so that enabling
          // faults never perturbs the workload's random sequence.
          injector(makePlan(exp), exp.seed ^ 0xFA017D0BEEFull),
          // Likewise the robustness layer: its arrival gaps and retry
          // jitter come from a third stream, and with every knob at
          // its default the layer draws nothing at all.
          robust(robustnessEnabled(exp)),
          robustRng(exp.seed ^ 0xB0B57EC0DEull),
          topology(effectiveTopology(exp)), nn(topology.nodes)
    {
        // Metrics instruments exist only when somebody will read them.
        metrics = extMetrics ? extMetrics
                             : (exp.reportFile.empty() ? nullptr
                                                       : &ownMetrics);
        if (metrics) {
            rtHist = &metrics->histogram("ipc.roundTripUs");
            pendingHist =
                &metrics->histogram("svc.pendingMsgsDepth");
            waitingHist =
                &metrics->histogram("svc.waitingServersDepth");
        }

        // The engine self-profiler, on when the experiment asks.
        // Created before any component exists so origin interning —
        // which allocates — all happens here, never on the event path.
        if (exp.engineProfile) {
            engProf = std::make_unique<obs::EngineProfiler>();
            sinks.prof = engProf.get();
            sinks.prof->beginRun();
        }

        // The rest of the sinks, resolved before anything registers a
        // track.  This is the one place a sink is asked whether it
        // records: `sinks` points only at those that do, and every
        // component tests those pointers.  The tracer is the caller's
        // (who enables it) or the owned one, on when the experiment
        // names a trace file.
        trace::Tracer *tr = extTracer ? extTracer : &ownTracer;
        if (!exp.traceFile.empty())
            tr->setEnabled(true);
        sinks.tracer = tr->enabled() ? tr : nullptr;
        // The causal log powering the critical-path decomposition is
        // independent of the tracer (a decomposition needs no trace
        // file) and equally observational.
        if (exp.decomposeLatency) {
            pathLog.setEnabled(true);
            sinks.causal = &pathLog;
        }
        // Deterministic trace sampling: every recorder shares one
        // pure (seed, id) decision, so a sampled message's causal
        // chain stays complete.  Set on every run, rate 1 included:
        // a caller's tracer must not keep an earlier run's thinning.
        const obs::TraceSampler sampler(exp.traceSampleRate, exp.seed);
        pathLog.setSampler(sampler);
        tr->setMessageSampler(sampler);
        // The queue observes the same sinks as every component: its
        // profiler hooks, and whether steps run alone for a sink that
        // records per access.
        eq.observe(sinks);

        // The interconnect fabric for every node pair.  Built before
        // the nodes so its "wire" profiler origin sits right after
        // "sim", ahead of the node tracks.
        if (nn > 1)
            net = std::make_unique<topo::Network>(eq, topology, sinks);

        const bool coproc = exp.arch != Arch::I;
        const bool split = exp.arch == Arch::IV;

        costsLocal = ipcCosts(exp.arch, true);
        costsNonlocal = ipcCosts(exp.arch, false);
        adjust(costsLocal);
        adjust(costsNonlocal);

        for (int i = 0; i < nn; ++i)
            nodes.push_back(std::make_unique<Node>(
                eq, "n" + std::to_string(i), exp.hostsPerNode,
                coproc, split, sinks));
        for (auto &n : nodes)
            n->freeBuffers = exp.kernelBuffers;
        injector.observe(sinks, eq);

        // The reliability stack is strictly pay-for-use: it exists
        // only when the medium can fail (or when explicitly forced),
        // so fault-free runs keep the ideal-medium code path and
        // produce bit-identical results.  One channel per ordered
        // node pair, row-major — for two nodes that is exactly the
        // historical (0 -> 1, 1 -> 0) pair.
        if (net &&
            (injector.faultPlan().active() || exp.reliableProtocol)) {
            ReliableChannel::Config rc;
            rc.windowSize = exp.retransmitWindow;
            rc.rtoUs = exp.retransmitTimeoutUs;
            protoAccesses = rc.busAccesses;

            ReliableChannel::Hooks h;
            // Protocol steps are kernel activities on the node's
            // communication processor: the host pays under
            // Architecture I, the MP under II-IV.
            h.exec = [this](int node, const char *name, double procUs,
                            int prio, EventQueue::Callback done) {
                Node &n = *nodes[static_cast<std::size_t>(node)];
                ActCost c;
                c.procUs = procUs;
                if (n.mp && this->exp.mpSpeedFactor != 1.0)
                    c.procUs /= this->exp.mpSpeedFactor;
                c.kb = protoAccesses;
                n.commProc().submit(
                    act(name, c, n, prio, std::move(done)));
            };
            chans.resize(static_cast<std::size_t>(nn) *
                         static_cast<std::size_t>(nn - 1));
            for (int src = 0; src < nn; ++src) {
                for (int dst = 0; dst < nn; ++dst) {
                    if (dst == src)
                        continue;
                    rc.srcNode = src;
                    rc.dstNode = dst;
                    h.mediumToDst =
                        [this, src, dst](int bytes, EventQueue::Callback cb) {
                            net->send(src, dst, bytes, std::move(cb));
                        };
                    h.mediumToSrc =
                        [this, src, dst](int bytes, EventQueue::Callback cb) {
                            net->send(dst, src, bytes, std::move(cb));
                        };
                    chans[chanIndex(src, dst)] =
                        std::make_unique<ReliableChannel>(
                            eq, rc, injector, h, sinks);
                }
            }
        }
        if (sinks.tracer)
            simTrack = sinks.tracer->track("sim");
        for (const CrashWindow &w : exp.crashSchedule)
            recoveries.push_back(Recovery{w, -1});

        const int mixed = exp.mixedLocal + exp.mixedRemote;
        for (int i = 0; i < (mixed > 0 ? mixed : exp.conversations); ++i)
            addConversation(i);

        // Open-arrival mode repurposes the laid-out conversations as
        // server loops only; clients materialize per arrival.  Closed
        // mode keeps the classic fixed client/server pairs (a robust
        // closed client opens a tracked request around each trip).
        const bool open = exp.arrivalMode != 0;
        for (std::size_t i = 0; i < convs.size(); ++i) {
            const int conv = static_cast<int>(i);
            if (!open) {
                eq.schedule(
                    static_cast<Tick>(i) * 7, [this, conv]() {
                        if (robust)
                            startRequest(conv);
                        else
                            clientSend(conv);
                    });
            }
            eq.schedule(3 + static_cast<Tick>(i) * 7,
                        [this, conv]() { serverReceive(conv); });
        }
        if (open)
            scheduleNextArrival();

        // A crash wipes the node's volatile kernel state, not just
        // the packets in flight: queued requests are lost (retries or
        // deadlines must recover them) and the at-most-once reply
        // cache forgets which requests completed.
        if (robust) {
            for (const CrashWindow &w : exp.crashSchedule) {
                const int node = w.node;
                eq.schedule(usToTicks(w.startUs),
                            [this, node]() { crashFlush(node); });
            }
        }

        // Time-resolved observability: windowed series over the whole
        // run.  Counter handles are bumped at the same sites as the
        // whole-run ledgers (so each series integrates exactly to its
        // ledger counterpart); gauges are sampled by a read-only
        // boundary event.  Scheduled last so the kickoff events above
        // keep their sequence numbers regardless of this knob.
        if (exp.timelineIntervalUs > 0) {
            tl.configure(exp.timelineIntervalUs,
                         exp.warmupUs + exp.measureUs, exp.warmupUs);
            tlAllTrips = &tl.counter("ipc.allTrips");
            tlRtSum = &tl.counter("ipc.rtSumUs");
            tlTrips = &tl.counter("ipc.completedTrips");
            tlStalls = &tl.counter("ipc.bufferStalls");
            if (robust) {
                tlRpcOffered = &tl.counter("rpc.offered");
                tlRpcCompleted = &tl.counter("rpc.completed");
                tlRpcShed = &tl.counter("rpc.shed");
                tlRpcShedAttempts = &tl.counter("rpc.shedAttempts");
                tlRpcExpired = &tl.counter("rpc.expired");
                tlRpcLost = &tl.counter("rpc.lostToCrash");
                tlRpcRetries = &tl.counter("rpc.retries");
                tlRpcOrphans = &tl.counter("rpc.orphanedReplies");
            }
            if (!chans.empty()) {
                tlNetTx = &tl.counter("net.dataTransmissions");
                tlNetRetx = &tl.counter("net.retransmissions");
                tlNetDeliver = &tl.counter("net.delivered");
                tlNetAck = &tl.counter("net.acksSent");
                for (auto &c : chans)
                    c->setEventObserver([this](const char *event,
                                               double by) {
                        if (std::strcmp(event, "dataTx") == 0)
                            tlAdd(tlNetTx, by);
                        else if (std::strcmp(event, "retx") == 0)
                            tlAdd(tlNetRetx, by);
                        else if (std::strcmp(event, "deliver") == 0)
                            tlAdd(tlNetDeliver, by);
                        else if (std::strcmp(event, "ack") == 0)
                            tlAdd(tlNetAck, by);
                    });
            }
            if (sinks.tracer)
                tlTrack = sinks.tracer->track("timeline");
            const Tick horizon =
                usToTicks(exp.warmupUs + exp.measureUs);
            if (tl.interval() <= horizon)
                eq.schedule(tl.interval(),
                            [this]() { timelineBoundary(); });
        }
    }

    Outcome
    run()
    {
        const Tick warm = usToTicks(exp.warmupUs);
        const Tick end = warm + usToTicks(exp.measureUs);
        eq.runUntil(warm);
        const std::map<std::string, Tick> baseline =
            activitySnapshot();
        const std::map<std::string, Tick> busyBase =
            resourceBusySnapshot();
        const ReliableChannel::Stats chanBase = channelStats();
        const FaultInjector::Stats injBase = injector.stats();
        const auto [protoHostBase, protoMpBase] = protoTicks();
        const auto [rpcHostBase, rpcMpBase] = prefixTicks("rpc");
        const long rpcOfferedBase = rpcTotals.offered;
        if (simTrack >= 0)
            sinks.tracer->instant(simTrack, "measureStart", warm,
                                  "phase");
        eq.runUntil(end);
        if (simTrack >= 0)
            sinks.tracer->instant(simTrack, "measureEnd", end, "phase");

        Outcome out;
        out.roundTrips = completed;
        out.throughputPerSec = static_cast<double>(completed) /
                               (ticksToUs(end - warm) / 1e6);
        out.meanRoundTripUs = rt.mean();
        out.rtCi95Us = rt.ci95();
        if (!rtSamples.empty()) {
            std::vector<double> s = rtSamples;
            std::sort(s.begin(), s.end());
            out.rtP50Us = s[s.size() / 2];
            out.rtP95Us = s[(s.size() * 95) / 100];
        }
        for (const auto &n : nodes) {
            for (const auto &h : n->hosts)
                out.hostUtil = std::max(out.hostUtil,
                                        h->utilization());
            if (n->mp)
                out.mpUtil = std::max(out.mpUtil,
                                      n->mp->utilization());
            out.busUtil = std::max(out.busUtil,
                                   n->busTcb.utilization());
        }
        out.bufferStalls = bufferStalls;
        if (completed > 0) {
            // Only the measurement window counts, matching the
            // round-trip denominator.
            for (const auto &[name, ticks] : activitySnapshot()) {
                Tick before = 0;
                auto it = baseline.find(name);
                if (it != baseline.end())
                    before = it->second;
                out.activityUsPerRoundTrip[name] =
                    ticksToUs(ticks - before) /
                    static_cast<double>(completed);
            }
        }
        // The per-resource utilization timeline's summary: busy
        // fraction of every resource over the measurement window
        // alone (hostUtil/mpUtil/busUtil above stay whole-run maxima
        // for compatibility).
        const double window_ticks = static_cast<double>(end - warm);
        for (const auto &[name, busy] : resourceBusySnapshot()) {
            Tick before = 0;
            auto it = busyBase.find(name);
            if (it != busyBase.end())
                before = it->second;
            out.resourceUtilization[name] =
                static_cast<double>(busy - before) / window_ticks;
        }
        if (net)
            std::tie(out.ringUtil, out.ringTokenWaitUs) = net->ringStats();
        const double window_sec = ticksToUs(end - warm) / 1e6;
        out.localThroughputPerSec =
            static_cast<double>(rtLocal.count()) / window_sec;
        out.remoteThroughputPerSec =
            static_cast<double>(rtRemote.count()) / window_sec;
        out.localMeanRtUs = rtLocal.mean();
        out.remoteMeanRtUs = rtRemote.mean();

        // Reliability-stack measurements over the same window.
        const ReliableChannel::Stats cs = channelStats();
        out.retransmissions =
            cs.retransmissions - chanBase.retransmissions;
        out.timeoutsFired = cs.timeoutsFired - chanBase.timeoutsFired;
        out.duplicatesDropped =
            cs.duplicatesDropped - chanBase.duplicatesDropped;
        out.corruptDiscarded =
            cs.corruptDiscarded - chanBase.corruptDiscarded;
        const FaultInjector::Stats fs = injector.stats();
        out.faultDrops = fs.dropped - injBase.dropped;
        out.crashDrops = fs.crashDrops - injBase.crashDrops;
        out.netThroughputPktsPerSec =
            static_cast<double>(cs.dataTransmissions -
                                chanBase.dataTransmissions) /
            window_sec;
        out.netGoodputPktsPerSec =
            static_cast<double>(cs.delivered - chanBase.delivered) /
            window_sec;
        if (completed > 0) {
            const auto [protoHost, protoMp] = protoTicks();
            out.protoHostUsPerRt =
                ticksToUs(protoHost - protoHostBase) /
                static_cast<double>(completed);
            out.protoMpUsPerRt = ticksToUs(protoMp - protoMpBase) /
                                 static_cast<double>(completed);
            const auto [rpcHost, rpcMp] = prefixTicks("rpc");
            out.rpcHostUsPerRt = ticksToUs(rpcHost - rpcHostBase) /
                                 static_cast<double>(completed);
            out.rpcMpUsPerRt = ticksToUs(rpcMp - rpcMpBase) /
                               static_cast<double>(completed);
        }
        for (const Recovery &r : recoveries) {
            if (r.recoveredAt >= 0) {
                ++out.crashWindowsRecovered;
                out.meanRecoveryUs +=
                    ticksToUs(r.recoveredAt - usToTicks(r.w.endUs));
            }
        }
        if (out.crashWindowsRecovered > 0)
            out.meanRecoveryUs /= out.crashWindowsRecovered;

        // Whole-run conservation ledger (the windowed counters above
        // cannot carry exact flow identities; these can).
        Outcome::NetTotals &nt = out.netTotals;
        nt.msgsAccepted = cs.accepted;
        nt.msgsDelivered = cs.delivered;
        nt.dataTransmissions = cs.dataTransmissions;
        nt.retransmissions = cs.retransmissions;
        nt.timeoutsFired = cs.timeoutsFired;
        nt.duplicatesDropped = cs.duplicatesDropped;
        nt.corruptDiscarded = cs.corruptDiscarded;
        nt.acksSent = cs.acksSent;
        for (const auto &c : chans) {
            if (!c)
                continue;
            nt.windowPendingAtEnd += c->windowPending();
            nt.backlogAtEnd += c->backlogSize();
        }
        nt.pktsInjected = fs.injected;
        nt.pktsDropped = fs.dropped;
        nt.pktsCorrupted = fs.corrupted;
        nt.pktsDuplicated = fs.duplicated;
        nt.pktsReordered = fs.reordered;
        nt.pktsCrashDropped = fs.crashDrops;

        // The fabric's per-link conservation ledger: charge each
        // channel's retransmissions to its forward route, then
        // snapshot every link and router (structural in-flight
        // included, so the flow identities hold exactly at the
        // horizon).  Reported only for an explicitly configured
        // topology, so a run on the default fabric keeps the
        // topoJson bytes it always had (the host-cost benchmark's
        // reference digests hash them).
        if (net && exp.topo.enabled()) {
            if (!chans.empty()) {
                for (int src = 0; src < nn; ++src) {
                    for (int dst = 0; dst < nn; ++dst) {
                        if (dst != src)
                            net->attributeRetransmissions(
                                src, dst,
                                chans[chanIndex(src, dst)]
                                    ->stats()
                                    .retransmissions);
                    }
                }
            }
            net->fillLedger(out.topo);
        }

        // The robustness layer's whole-run disposition ledger plus
        // the windowed goodput-vs-offered-load measurement.  Goodput
        // equals the plain throughput by construction: a request that
        // missed its deadline is torn down at the deadline, so it can
        // never count as a completed round trip.
        if (robust) {
            out.rpc = rpcTotals;
            for (const Conversation &cv : convs) {
                if (cv.rid != 0 && cv.disp == Disp::None)
                    ++out.rpc.inFlightAtEnd;
            }
            out.rpc.offeredPerSec =
                static_cast<double>(rpcTotals.offered -
                                    rpcOfferedBase) /
                window_sec;
            out.rpc.goodputPerSec = out.throughputPerSec;
            // The sojourn percentile comes off the mergeable sketch:
            // within kDefaultAlpha relative error of the exact sample
            // quantile, and identical whether observed in one run or
            // merged across SweepRunner shards.
            if (sojournSketch.count() > 0) {
                out.rpc.meanSojournUs = sojournSketch.mean();
                out.rpc.p95SojournUs = sojournSketch.quantile(0.95);
            }
        }
        if (exp.decomposeLatency) {
            out.decomposition = trace::decompose(pathLog, warm, end);
            if (metrics) {
                // Component latency histograms over the same window
                // the decomposition covers, each paired with a
                // same-named quantile sketch so the registry's
                // reported p50/p95/p99 carry fixed relative error
                // instead of the log2 bucket edge.
                auto &h_rt = metrics->histogram("lat.roundTripUs");
                auto &h_svc = metrics->histogram("lat.serviceUs");
                auto &h_q = metrics->histogram("lat.queueUs");
                auto &h_net = metrics->histogram("lat.networkUs");
                auto &h_blk = metrics->histogram("lat.blockedUs");
                auto &s_rt = metrics->sketch("lat.roundTripUs");
                auto &s_svc = metrics->sketch("lat.serviceUs");
                auto &s_q = metrics->sketch("lat.queueUs");
                auto &s_net = metrics->sketch("lat.networkUs");
                auto &s_blk = metrics->sketch("lat.blockedUs");
                for (const auto &[id, rec] : pathLog.records()) {
                    if (rec.end < 0 || rec.end <= warm ||
                        rec.end > end ||
                        rec.terminal !=
                            trace::CausalLog::Terminal::Completed)
                        continue;
                    const trace::MessagePath p =
                        trace::reconstructPath(id, rec);
                    h_rt.observe(p.roundTripUs);
                    h_svc.observe(p.serviceUs);
                    h_q.observe(p.queueUs);
                    h_net.observe(p.networkUs);
                    h_blk.observe(p.blockedUs);
                    s_rt.observe(p.roundTripUs);
                    s_svc.observe(p.serviceUs);
                    s_q.observe(p.queueUs);
                    s_net.observe(p.networkUs);
                    s_blk.observe(p.blockedUs);
                }
            }
        }
        if (tl.enabled()) {
            // The final (possibly partial) bin's gauges, unless the
            // last boundary already landed exactly on the horizon.
            if (eq.now() > tlPrevBoundary)
                sampleTimelineGauges(tl.binCount() - 1);
            out.timeline = tl.take();
            out.stats = obs::analyzeSteadyState(
                out.timeline.counters.at("ipc.allTrips"),
                out.timeline.counters.at("ipc.rtSumUs"),
                exp.timelineIntervalUs, exp.warmupUs);
        }
        if (sinks.prof) {
            sinks.prof->finishRun(eq.size());
            out.engineProfile = sinks.prof->profile();
        }
        finishObservability(out);
        return out;
    }

  private:
    /** Terminal disposition of a tracked request (robust runs). */
    enum class Disp : int
    {
        None,      //!< still undecided (in flight)
        Completed, //!< the reply reached the client
        Shed,      //!< admission control dropped its last hope
        Expired,   //!< its deadline fired first
        LostToCrash, //!< a crash flushed its only live attempt
    };

    /** Server-side at-most-once state of the current request id. */
    enum class SvcState : int
    {
        None,      //!< never admitted (or re-admittable)
        Queued,    //!< an attempt sits in the service queue
        InService, //!< a server is executing the request
        Done,      //!< reply sent; retries replay the cached reply
    };

    /** One client/server pair and its placement. */
    struct Conversation
    {
        int clientNode;
        int serverNode;
        int host; //!< static task-to-host binding (§6.8)
        Tick sendStart = 0;
        //! Lifetime id of the in-flight message (0 between trips).
        //! With the robustness layer, each retry is a fresh attempt
        //! with a fresh id; msgId names the newest attempt.
        long msgId = 0;

        // Robustness-layer request state; untouched (and never read)
        // in non-robust runs — see robustnessEnabled().
        long rid = 0; //!< current request id (0 = none yet)
        Disp disp = Disp::None;
        SvcState svcState = SvcState::None;
        int attempt = 0;      //!< send attempts of the current request
        int retriesLeft = 0;  //!< remaining retry budget
        Tick arrivalAt = 0;   //!< when the request was offered
        Tick deadlineAt = -1; //!< absolute deadline (-1 = none)
        bool bufferHeld = false; //!< a kernel buffer is charged to us
    };

    void
    adjust(IpcCosts &c)
    {
        if (exp.extraCopy) {
            c.processSend.procUs += models::extraCopyUs;
            c.match.procUs += models::extraCopyUs;
            c.processReply.procUs += models::extraCopyUs;
            c.cleanupClient.procUs += models::extraCopyUs;
        }
        if (c.coproc && exp.mpSpeedFactor != 1.0) {
            hsipc_assert(exp.mpSpeedFactor > 0.0);
            for (ActCost *a : {&c.processSend, &c.processRecv,
                               &c.match, &c.processReply,
                               &c.cleanupClient})
                a->procUs /= exp.mpSpeedFactor;
        }
    }

    /**
     * Lay out conversation @p index.  The mixed workload interleaves
     * its same-node pairs, then its cross-node pairs, over both nodes
     * (§6.6.3); every other run asks the placement policy, a pure
     * function of (topology, index).
     */
    void
    addConversation(int index)
    {
        Conversation cv;
        if (exp.mixedLocal + exp.mixedRemote > 0) {
            const bool local = index < exp.mixedLocal;
            const int j = local ? index : index - exp.mixedLocal;
            cv.clientNode = j % 2;
            cv.serverNode = local ? j % 2 : 1 - j % 2;
        } else {
            std::tie(cv.clientNode, cv.serverNode) =
                topo::placeConversation(topology, index);
        }
        cv.host = index % exp.hostsPerNode;
        convs.push_back(cv);
    }

    bool
    isLocal(int conv) const
    {
        const auto &cv = convs[static_cast<std::size_t>(conv)];
        return cv.clientNode == cv.serverNode;
    }

    const IpcCosts &
    costsOf(int conv) const
    {
        return isLocal(conv) ? costsLocal : costsNonlocal;
    }

    Node &
    cNode(int conv)
    {
        return *nodes[static_cast<std::size_t>(
            convs[static_cast<std::size_t>(conv)].clientNode)];
    }

    Node &
    sNode(int conv)
    {
        return *nodes[static_cast<std::size_t>(
            convs[static_cast<std::size_t>(conv)].serverNode)];
    }

    Processor &
    clientHost(int conv)
    {
        return *cNode(conv).hosts[static_cast<std::size_t>(
            convs[static_cast<std::size_t>(conv)].host)];
    }

    Processor &
    serverHost(int conv)
    {
        return *sNode(conv).hosts[static_cast<std::size_t>(
            convs[static_cast<std::size_t>(conv)].host)];
    }

    /** The in-flight message id of @p conv (0 between trips). */
    long
    msgOf(int conv) const
    {
        return convs[static_cast<std::size_t>(conv)].msgId;
    }

    Activity
    act(const std::string &name, const ActCost &c, Node &node,
        int priority, EventQueue::Callback done, long msgId = 0)
    {
        Activity a;
        a.name = name;
        a.processing = usToTicks(c.procUs);
        a.priority = priority;
        a.msgId = msgId;
        a.onDone = std::move(done);
        if (node.splitBus) {
            a.memAccesses = c.tcb;
            a.bus = &node.busTcb;
            a.memAccesses2 = c.kb;
            a.bus2 = &node.busKb;
        } else {
            a.memAccesses = c.tcb + c.kb;
            a.bus = &node.busTcb;
        }
        return a;
    }

    /** Index of the @p from -> @p to channel (row-major pairs). */
    std::size_t
    chanIndex(int from, int to) const
    {
        return static_cast<std::size_t>(
            from * (nn - 1) + (to - (to > from ? 1 : 0)));
    }

    /** Sum every channel's protocol statistics. */
    ReliableChannel::Stats
    channelStats() const
    {
        ReliableChannel::Stats sum;
        for (const auto &c : chans) {
            if (!c)
                continue;
            const ReliableChannel::Stats &s = c->stats();
            sum.accepted += s.accepted;
            sum.delivered += s.delivered;
            sum.dataTransmissions += s.dataTransmissions;
            sum.retransmissions += s.retransmissions;
            sum.timeoutsFired += s.timeoutsFired;
            sum.duplicatesDropped += s.duplicatesDropped;
            sum.corruptDiscarded += s.corruptDiscarded;
            sum.acksSent += s.acksSent;
        }
        return sum;
    }

    /**
     * Busy time of every activity whose name starts with @p prefix,
     * split into (host, MP) shares — the "who pays" measurement for
     * the protocol ("proto") and robustness ("rpc") layers.
     */
    std::pair<Tick, Tick>
    prefixTicks(const char *prefix) const
    {
        auto prefixSum = [prefix](const Processor &p) {
            Tick t = 0;
            for (const auto &[name, ticks] : p.activityTicks()) {
                if (name.rfind(prefix, 0) == 0)
                    t += ticks;
            }
            return t;
        };
        Tick host = 0;
        Tick mp = 0;
        for (const auto &n : nodes) {
            for (const auto &h : n->hosts)
                host += prefixSum(*h);
            if (n->mp)
                mp += prefixSum(*n->mp);
        }
        return {host, mp};
    }

    /** Protocol busy time split into (host, MP) shares. */
    std::pair<Tick, Tick>
    protoTicks() const
    {
        return prefixTicks("proto");
    }

    /** Busy ticks of every processor and bus, by track name. */
    std::map<std::string, Tick>
    resourceBusySnapshot() const
    {
        std::map<std::string, Tick> snap;
        for (const auto &n : nodes) {
            for (const auto &h : n->hosts)
                snap[h->processorName()] = h->busyTime();
            if (n->mp)
                snap[n->mp->processorName()] = n->mp->busyTime();
            snap[n->busTcb.resourceName()] = n->busTcb.busyTime();
            if (n->splitBus)
                snap[n->busKb.resourceName()] = n->busKb.busyTime();
            snap[n->nicIn.processorName()] = n->nicIn.busyTime();
            snap[n->nicOut.processorName()] = n->nicOut.busyTime();
        }
        return snap;
    }

    /**
     * Record a service-queue transition: an instant naming what
     * happened plus both queue depths, mirrored into the depth
     * histograms when metrics are on.
     */
    void
    svcEvent(Node &node, const char *what)
    {
        if (sinks.tracer) {
            sinks.tracer->instant(node.svcTrack, what, eq.now(),
                                  "queue");
            sinks.tracer->counter(
                node.svcTrack, "pendingMsgs", eq.now(),
                static_cast<double>(node.pendingMsgs.size()));
            sinks.tracer->counter(
                node.svcTrack, "waitingServers", eq.now(),
                static_cast<double>(node.waitingServers.size()));
        }
        if (metrics) {
            pendingHist->observe(
                static_cast<double>(node.pendingMsgs.size()));
            waitingHist->observe(
                static_cast<double>(node.waitingServers.size()));
        }
    }

    /**
     * Bump a timeline counter series by @p n at the current simulated
     * time.  Null handle (timeline off, or the series' subsystem is
     * not instantiated) costs one branch.
     */
    void
    tlAdd(obs::TimelineRecorder::Series *s, double n = 1)
    {
        if (s)
            tl.add(*s, eq.now(), n);
    }

    /**
     * An interval boundary: sample every gauge for the bin that just
     * closed, then re-arm.  Strictly read-only with respect to the
     * simulation — it touches no kernel or protocol state, so the
     * timeline knob cannot perturb any other Outcome field.
     */
    void
    timelineBoundary()
    {
        // The boundary at (k+1)·interval closes bin k.
        sampleTimelineGauges(tl.binOf(eq.now() - 1));
        const Tick next = eq.now() + tl.interval();
        if (next <= usToTicks(exp.warmupUs + exp.measureUs))
            eq.schedule(next, [this]() { timelineBoundary(); });
    }

    /** Read the instantaneous state into bin @p bin's gauges. */
    void
    sampleTimelineGauges(std::size_t bin)
    {
        const Tick now = eq.now();
        const double elapsed =
            static_cast<double>(now - tlPrevBoundary);
        // Per-resource utilization over this bin alone, from busy-time
        // deltas against the previous boundary's snapshot.
        const std::map<std::string, Tick> busy =
            resourceBusySnapshot();
        for (const auto &[name, b] : busy) {
            Tick before = 0;
            auto it = tlBusyPrev.find(name);
            if (it != tlBusyPrev.end())
                before = it->second;
            tl.sample("util." + name, bin,
                      elapsed > 0
                          ? static_cast<double>(b - before) / elapsed
                          : 0.0);
        }
        tlBusyPrev = busy;
        tlPrevBoundary = now;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const Node &n = *nodes[i];
            tl.sample(n.svcName + ".pendingMsgs", bin,
                      static_cast<double>(n.pendingMsgs.size()));
            tl.sample(n.svcName + ".waitingServers", bin,
                      static_cast<double>(n.waitingServers.size()));
            tl.sample("n" + std::to_string(i) + ".freeBuffers", bin,
                      static_cast<double>(n.freeBuffers));
        }
        if (!chans.empty()) {
            double pending = 0;
            double backlog = 0;
            for (const auto &c : chans) {
                pending += static_cast<double>(c->windowPending());
                backlog += static_cast<double>(c->backlogSize());
            }
            tl.sample("net.windowPending", bin, pending);
            tl.sample("net.backlog", bin, backlog);
        }
        if (net) {
            tl.sample("topo.routerDepth", bin,
                      net->routerDepthSum());
            tl.sample("topo.linkInFlight", bin,
                      net->linkInFlightSum());
        }
        if (robust) {
            double inFlight = 0;
            for (const Conversation &cv : convs) {
                if (cv.rid != 0 && cv.disp == Disp::None)
                    ++inFlight;
            }
            tl.sample("rpc.inFlight", bin, inFlight);
        }
        // Mirror the bin into Perfetto counter tracks: one "timeline"
        // track carrying every series, so the dashboard's knee and
        // recovery ramp are visible in the trace viewer too.
        if (tlTrack >= 0) {
            for (const auto &[name, g] : tl.gaugeSeries()) {
                if (bin < g.size())
                    sinks.tracer->counter(tlTrack, name, now, g[bin]);
            }
            for (const auto &[name, s] : tl.counterSeries())
                sinks.tracer->counter(tlTrack, name, now,
                                bin < s.bins.size() ? s.bins[bin]
                                                    : 0.0);
        }
    }

    /** The timeline document: series plus stats (and decomposition). */
    std::string
    timelineJson(const Outcome &out) const
    {
        std::string extra = "\"stats\": " + out.stats.toJson();
        if (exp.decomposeLatency) {
            const trace::Decomposition &d = out.decomposition;
            extra += ",\n  \"decomposition\": {\"messages\": " +
                     std::to_string(d.messages) +
                     ", \"meanRoundTripUs\": " +
                     jsonNumber(d.roundTrip.meanUs) +
                     ", \"bottleneck\": " +
                     jsonString(d.bottleneck) + "}";
        }
        return out.timeline.toJson(extra);
    }

    /**
     * End of run: count the events into the registry (the one
     * registry value Outcome does not carry) and write the requested
     * files.  A report section whose recorder is off is absent.
     */
    void
    finishObservability(const Outcome &out)
    {
        if (metrics)
            metrics->counter("des.eventsRun")
                .inc(static_cast<std::int64_t>(eq.eventsRun()));
        if (!exp.traceFile.empty())
            writeFileOrDie(exp.traceFile, sinks.tracer->chromeJson());
        if (exp.reportFile.empty())
            return;
        std::vector<std::pair<std::string, std::string>> sections = {
            {"experiment", check::experimentToJson(exp)},
            {"outcome", outcomeJson(out)}};
        if (out.timeline.enabled())
            sections.emplace_back("timeline", timelineJson(out));
        if (sinks.prof)
            sections.emplace_back("engineProfile",
                                  out.engineProfile.toJson());
        sections.emplace_back("metrics", metrics->toJson());
        writeFileOrDie(exp.reportFile, jsonSections(sections));
    }

    /** Sum per-activity busy time over every processor. */
    std::map<std::string, Tick>
    activitySnapshot() const
    {
        std::map<std::string, Tick> snap;
        for (const auto &n : nodes) {
            auto collect = [&](const Processor &p) {
                for (const auto &[name, ticks] : p.activityTicks())
                    snap[name] += ticks;
            };
            for (const auto &h : n->hosts)
                collect(*h);
            if (n->mp)
                collect(*n->mp);
            collect(n->nicIn);
            collect(n->nicOut);
        }
        return snap;
    }

    /**
     * Ship one message from @p from to @p to: through the reliability
     * stack when the medium is faulty, directly otherwise.  The whole
     * traversal — from handing the packet to the medium until its
     * exactly-once delivery, timeouts and retransmissions included —
     * is one Network interval on @p msg's critical path, so protocol
     * recovery time is attributed to the network, not the endpoints.
     */
    void
    wire(int from, int to, long msg, EventQueue::Callback deliver)
    {
        EventQueue::Callback arrive = std::move(deliver);
        if (sinks.causal && msg != 0) {
            const Tick sent = eq.now();
            arrive = [this, msg, sent,
                      inner = std::move(arrive)]() {
                pathLog.interval(msg, "net",
                                 trace::Component::Network, sent,
                                 eq.now());
                inner();
            };
        }
        if (!chans.empty())
            chans[chanIndex(from, to)]->send(std::move(arrive), msg);
        else
            net->send(from, to, packetBytes, std::move(arrive));
    }

    // --- Client side -----------------------------------------------

    void
    clientSend(int conv)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        // No new attempt once the request resolved — or while an
        // attempt is already out holding the buffer (a conversation
        // that stalled, expired, and re-stalled sits in the waiter
        // queue twice; only one wakeup may send).
        if (robust && (cv.disp != Disp::None || cv.bufferHeld))
            return;
        cv.sendStart = eq.now();
        Node &cn = cNode(conv);
        // A send needs a kernel buffer; stall if the pool is empty.
        if (cn.freeBuffers == 0) {
            ++bufferStalls;
            tlAdd(tlStalls);
            hsipc_warn_once("kernel buffer pool exhausted; sends now "
                            "stall until a reply frees a buffer "
                            "(counted in Outcome.bufferStalls)");
            if (sinks.tracer)
                sinks.tracer->instant(cn.svcTrack, "bufferStall",
                                      eq.now(), "queue");
            cn.buffersWaiting.push_back(conv);
            return;
        }
        --cn.freeBuffers;
        // The round trip begins here, where the measured sendStart is
        // taken: a fresh lifetime id for the message, threaded
        // through every activity, bus access, and wire hop it causes.
        cv.msgId = ++lastMsgId;
        if (robust) {
            cv.bufferHeld = true;
            ++cv.attempt;
            ++rpcTotals.attempts;
            if (cv.retriesLeft > 0)
                armAttemptTimer(conv);
        }
        if (sinks.causal)
            pathLog.start(cv.msgId, eq.now());
        if (sinks.tracer)
            sinks.tracer->asyncBegin(cn.svcTrack, "roundTrip",
                                     eq.now(), cv.msgId);
        // Every step of the attempt's chain carries the (msg, rid)
        // pair captured here: when a retry supersedes this attempt,
        // the chain keeps reporting against its own message id rather
        // than hijacking the newer attempt's causal record.
        const long m = cv.msgId;
        const long rid = cv.rid;
        clientHost(conv).submit(
            act("sendSyscall", costsOf(conv).sendSyscall, cn, prioTask,
                [this, conv, m, rid]() {
                    afterSendSyscall(conv, m, rid);
                },
                m));
    }

    void
    afterSendSyscall(int conv, long m, long rid)
    {
        const IpcCosts &c = costsOf(conv);
        if (!c.coproc) {
            sendProcessed(conv, m, rid);
            return;
        }
        cNode(conv).commProc().submit(
            act("processSend", c.processSend, cNode(conv), prioTask,
                [this, conv, m, rid]() {
                    sendProcessed(conv, m, rid);
                },
                m));
    }

    void
    sendProcessed(int conv, long m, long rid)
    {
        if (isLocal(conv)) {
            deliverToService(conv, m, rid);
            return;
        }
        const auto cv = convs[static_cast<std::size_t>(conv)];
        cNode(conv).nicOut.submit(
            act("dmaOut", costsOf(conv).dmaOutReq, cNode(conv),
                prioTask, [this, conv, cv, m, rid]() {
                    wire(cv.clientNode, cv.serverNode, m,
                         [this, conv, m, rid]() {
                             requestArrives(conv, m, rid);
                         });
                },
                m));
    }

    // --- Robustness layer: the client's view of a request ----------

    /**
     * Open a tracked request on @p conv: a fresh request id, a clean
     * disposition, the full retry budget, an armed deadline, and the
     * first send attempt.
     */
    void
    startRequest(int conv)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        cv.rid = ++lastRid;
        cv.disp = Disp::None;
        cv.svcState = SvcState::None;
        cv.attempt = 0;
        cv.retriesLeft = exp.retryBudget;
        cv.arrivalAt = eq.now();
        // Floor at one tick: a sub-tick deadline would expire at
        // `now` and the closed-loop respawn would never advance time.
        cv.deadlineAt = exp.deadlineUs > 0
                            ? eq.now() +
                                  std::max<Tick>(
                                      1, usToTicks(exp.deadlineUs))
                            : -1;
        ++rpcTotals.offered;
        tlAdd(tlRpcOffered);
        if (cv.deadlineAt >= 0) {
            const long rid = cv.rid;
            eq.schedule(cv.deadlineAt, [this, conv, rid]() {
                onDeadline(conv, rid);
            });
        }
        clientSend(conv);
    }

    /**
     * Arm the retry timer for the attempt just sent: exponential
     * backoff doubling per attempt up to the ceiling, with ±25%
     * jitter so synchronized clients do not retry in lockstep.
     */
    void
    armAttemptTimer(int conv)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        double wait = exp.retryBackoffUs;
        for (int i = 1; i < cv.attempt && wait < exp.retryBackoffMaxUs;
             ++i)
            wait *= 2;
        wait = std::min(wait, exp.retryBackoffMaxUs);
        wait *= robustRng.uniform(0.75, 1.25);
        const long rid = cv.rid;
        const int attempt = cv.attempt;
        const Tick delay = std::max<Tick>(1, usToTicks(wait));
        eq.scheduleAfter(delay, [this, conv, rid, attempt]() {
            onAttemptTimeout(conv, rid, attempt);
        });
    }

    /**
     * The retry timer of attempt @p attempt of request @p rid fired.
     * Stale firings — the request resolved, a newer attempt already
     * exists, or the budget ran out — are ignored.
     */
    void
    onAttemptTimeout(int conv, long rid, int attempt)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        if (cv.rid != rid || cv.disp != Disp::None ||
            cv.attempt != attempt || cv.retriesLeft <= 0)
            return;
        // Retry dispatch is kernel work on the client's communication
        // processor; the guards re-run afterwards because the reply
        // may have arrived while the dispatch was queued.
        chargeRpc(cNode(conv), "rpcRetry", rpcRetryUs,
                  [this, conv, rid, attempt]() {
                      Conversation &c =
                          convs[static_cast<std::size_t>(conv)];
                      if (c.rid != rid || c.disp != Disp::None ||
                          c.attempt != attempt || c.retriesLeft <= 0)
                          return;
                      closeAttempt(
                          conv,
                          trace::CausalLog::Terminal::Superseded,
                          "rpcRetry");
                      releaseBuffer(conv);
                      --c.retriesLeft;
                      ++rpcTotals.retries;
                      tlAdd(tlRpcRetries);
                      clientSend(conv);
                  });
    }

    /** The deadline of request @p rid fired. */
    void
    onDeadline(int conv, long rid)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        if (cv.rid != rid || cv.disp != Disp::None)
            return;
        chargeRpc(cNode(conv), "rpcExpire", rpcExpireUs);
        terminate(conv, Disp::Expired,
                  trace::CausalLog::Terminal::Expired, "rpcExpire");
    }

    /**
     * Close the newest attempt's trace and causal records with the
     * terminal state @p why (never Completed) and drop its id.
     */
    void
    closeAttempt(int conv, trace::CausalLog::Terminal why,
                 const char *event)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        if (cv.msgId == 0)
            return;
        Node &cn = cNode(conv);
        if (sinks.causal)
            pathLog.abort(cv.msgId, eq.now(), why);
        if (sinks.tracer) {
            sinks.tracer->asyncEnd(cn.svcTrack, "roundTrip", eq.now(),
                                   cv.msgId);
            sinks.tracer->instant(cn.svcTrack, event, eq.now(), "rpc");
        }
        cv.msgId = 0;
    }

    /**
     * Resolve @p conv's request without a completed round trip.  In
     * closed mode the client immediately offers its next request:
     * the conversation loop never stops, whatever became of any one
     * request.
     */
    void
    terminate(int conv, Disp disp, trace::CausalLog::Terminal why,
              const char *event)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        hsipc_assert(cv.disp == Disp::None &&
                     "terminating an already-resolved request");
        cv.disp = disp;
        switch (disp) {
          case Disp::Shed:
            ++rpcTotals.shed;
            tlAdd(tlRpcShed);
            break;
          case Disp::Expired:
            ++rpcTotals.expired;
            tlAdd(tlRpcExpired);
            break;
          case Disp::LostToCrash:
            ++rpcTotals.lostToCrash;
            tlAdd(tlRpcLost);
            break;
          default:
            hsipc_panic("terminate with a non-terminal disposition");
        }
        closeAttempt(conv, why, event);
        releaseBuffer(conv);
        if (exp.arrivalMode == 0)
            startRequest(conv);
    }

    /** Return @p conv's kernel buffer (if it holds one) to the pool. */
    void
    releaseBuffer(int conv)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        if (!cv.bufferHeld)
            return;
        cv.bufferHeld = false;
        Node &cn = cNode(conv);
        ++cn.freeBuffers;
        wakeBufferWaiter(cn);
    }

    /** Hand a freed buffer to the first still-live stalled sender. */
    void
    wakeBufferWaiter(Node &cn)
    {
        while (!cn.buffersWaiting.empty()) {
            const int waiter = cn.buffersWaiting.front();
            cn.buffersWaiting.pop_front();
            const Conversation &wc =
                convs[static_cast<std::size_t>(waiter)];
            // Skip entries whose request resolved while stalled, and
            // duplicate entries for a conversation that already sent
            // (stall → expire → restart can enqueue a conv twice).
            if (robust && (wc.disp != Disp::None || wc.bufferHeld))
                continue;
            clientSend(waiter);
            break;
        }
    }

    /**
     * Robustness bookkeeping is kernel work on a node's communication
     * processor — the host pays on Architecture I, the MP on II-IV —
     * touching a few kernel-buffer words.  The "rpc" name prefix lets
     * run() split the bill the same way it does for "proto".
     */
    void
    chargeRpc(Node &n, const char *name, double procUs,
              EventQueue::Callback done = EventQueue::Callback())
    {
        ActCost c;
        c.procUs = procUs;
        if (n.mp && exp.mpSpeedFactor != 1.0)
            c.procUs /= exp.mpSpeedFactor;
        c.kb = rpcKbAccesses;
        if (!done)
            done = []() {};
        n.commProc().submit(act(name, c, n, prioTask,
                                std::move(done)));
    }

    // --- Open arrivals ---------------------------------------------

    /**
     * Draw the next interarrival gap of the Poisson process (an
     * exponential gap) and schedule the arrival.
     */
    void
    scheduleNextArrival()
    {
        const double mean_us = 1e6 / exp.arrivalRatePerSec;
        const double dt_us =
            -std::log(1.0 - robustRng.uniform()) * mean_us;
        const Tick gap = std::max<Tick>(1, usToTicks(dt_us));
        eq.scheduleAfter(gap, [this]() { onArrival(); });
    }

    /** An open-mode client materializes and offers one request. */
    void
    onArrival()
    {
        const int conv = static_cast<int>(convs.size());
        addConversation(conv);
        startRequest(conv);
        scheduleNextArrival();
    }

    /**
     * A node crash wipes its volatile kernel state: every queued
     * request attempt is lost (retries and deadlines must recover
     * the requests) and the at-most-once reply cache forgets which
     * requests completed, so a post-crash retry re-executes.
     */
    void
    crashFlush(int nodeIdx)
    {
        if (nodeIdx < 0 ||
            static_cast<std::size_t>(nodeIdx) >= nodes.size())
            return; // single-node run; nothing to flush
        Node &n = *nodes[static_cast<std::size_t>(nodeIdx)];
        std::deque<QueueEntry> flushed;
        flushed.swap(n.pendingMsgs);
        svcEvent(n, "crashFlush");
        for (const QueueEntry &e : flushed) {
            Conversation &cv =
                convs[static_cast<std::size_t>(e.conv)];
            if (cv.rid != e.rid)
                continue;
            ++rpcTotals.crashLostAttempts;
            cv.svcState = SvcState::None;
            if (cv.disp == Disp::None && cv.retriesLeft <= 0 &&
                cv.deadlineAt < 0 && cv.msgId == e.msg)
                terminate(e.conv, Disp::LostToCrash,
                          trace::CausalLog::Terminal::LostToCrash,
                          "rpcCrashLost");
        }
        for (Conversation &cv : convs) {
            if (cv.serverNode == nodeIdx &&
                cv.svcState == SvcState::Done)
                cv.svcState = SvcState::None;
        }
    }

    // --- Server side -------------------------------------------------

    void
    requestArrives(int conv, long m, long rid)
    {
        Node &sn = sNode(conv);
        sn.nicIn.submit(act(
            "dmaIn", costsOf(conv).dmaInReq, sn, prioInterrupt,
            [this, conv, m, rid, &sn]() {
                sn.commProc().submit(
                    act("match", costsOf(conv).match, sn,
                        prioInterrupt,
                        [this, conv, m, rid]() {
                            deliverToService(conv, m, rid);
                        },
                        m));
            },
            m));
    }

    void
    deliverToService(int conv, long m, long rid)
    {
        if (robust) {
            // Admission, duplicate suppression, and reply replay are
            // kernel decisions at the receiving node, paid for before
            // the attempt may join the service queue.
            chargeRpc(sNode(conv), "rpcAdmit", rpcAdmitUs,
                      [this, conv, m, rid]() { admit(conv, m, rid); });
            return;
        }
        sNode(conv).pendingMsgs.push_back(
            QueueEntry{conv, rid, m, eq.now()});
        svcEvent(sNode(conv), "enqueueMsg");
        tryMatch(sNode(conv));
    }

    /** The admission decision for attempt @p m of request @p rid. */
    void
    admit(int conv, long m, long rid)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        Node &sn = sNode(conv);
        if (cv.rid != rid)
            return; // an attempt of a long-gone request; drop it
        // At-most-once: a request already queued or in service
        // absorbs duplicate attempts, and a completed one replays
        // the cached reply instead of re-executing.
        if (cv.svcState == SvcState::Queued ||
            cv.svcState == SvcState::InService) {
            ++rpcTotals.duplicatesSuppressed;
            chargeRpc(sn, "rpcDedup", rpcDedupUs);
            return;
        }
        if (cv.svcState == SvcState::Done) {
            ++rpcTotals.replyReplays;
            chargeRpc(sn, "rpcReplay", rpcReplayUs,
                      [this, conv, m, rid]() {
                          replyDeparts(conv, m, rid);
                      });
            return;
        }
        // Bounded service queue: over the cap, the shed policy picks
        // a victim.
        if (exp.svcQueueCap > 0 &&
            static_cast<int>(sn.pendingMsgs.size()) >=
                exp.svcQueueCap) {
            if (exp.shedPolicy == 0) { // reject-new
                shedAttempt(conv, m);
                return;
            }
            std::size_t victim = 0; // drop-oldest: the queue head
            if (exp.shedPolicy == 2) {
                // Deadline-aware: evict the least-slack attempt (the
                // one most likely already doomed), newcomer included.
                Tick best = cv.deadlineAt >= 0
                                ? cv.deadlineAt
                                : std::numeric_limits<Tick>::max();
                bool shedNewcomer = true;
                for (std::size_t i = 0; i < sn.pendingMsgs.size();
                     ++i) {
                    const Conversation &qc =
                        convs[static_cast<std::size_t>(
                            sn.pendingMsgs[i].conv)];
                    const Tick d =
                        qc.deadlineAt >= 0
                            ? qc.deadlineAt
                            : std::numeric_limits<Tick>::max();
                    if (d < best) {
                        best = d;
                        victim = i;
                        shedNewcomer = false;
                    }
                }
                if (shedNewcomer) {
                    shedAttempt(conv, m);
                    return;
                }
            }
            const QueueEntry e = sn.pendingMsgs[victim];
            sn.pendingMsgs.erase(
                sn.pendingMsgs.begin() +
                static_cast<std::ptrdiff_t>(victim));
            svcEvent(sn, "shedEvict");
            shedAttempt(e.conv, e.msg);
        }
        cv.svcState = SvcState::Queued;
        ++rpcTotals.admitted;
        sn.pendingMsgs.push_back(QueueEntry{conv, rid, m, eq.now()});
        svcEvent(sn, "enqueueMsg");
        tryMatch(sn);
    }

    /**
     * Drop attempt @p m of @p conv's request at admission control.
     * When no recovery path remains — no retry timer armed, no
     * deadline to fire, and the dropped attempt was the request's
     * newest — the request itself is terminally shed.
     */
    void
    shedAttempt(int conv, long m)
    {
        Conversation &cv = convs[static_cast<std::size_t>(conv)];
        ++rpcTotals.shedAttempts;
        tlAdd(tlRpcShedAttempts);
        chargeRpc(sNode(conv), "rpcShed", rpcShedUs);
        cv.svcState = SvcState::None;
        if (cv.disp == Disp::None && cv.retriesLeft <= 0 &&
            cv.deadlineAt < 0 && cv.msgId == m)
            terminate(conv, Disp::Shed,
                      trace::CausalLog::Terminal::Shed, "rpcShed");
    }

    void
    serverReceive(int conv)
    {
        Node &sn = sNode(conv);
        serverHost(conv).submit(
            act("recvSyscall", costsOf(conv).recvSyscall, sn, prioTask,
                [this, conv]() { afterRecvSyscall(conv); }));
    }

    void
    afterRecvSyscall(int conv)
    {
        const IpcCosts &c = costsOf(conv);
        if (!c.coproc) {
            serverWaiting(conv);
            return;
        }
        sNode(conv).commProc().submit(
            act("processRecv", c.processRecv, sNode(conv), prioTask,
                [this, conv]() { serverWaiting(conv); }));
    }

    void
    serverWaiting(int conv)
    {
        sNode(conv).waitingServers.push_back(conv);
        svcEvent(sNode(conv), "enqueueServer");
        tryMatch(sNode(conv));
    }

    void
    tryMatch(Node &node)
    {
        while (!node.pendingMsgs.empty() &&
               !node.waitingServers.empty()) {
            const QueueEntry entry = node.pendingMsgs.front();
            if (robust) {
                Conversation &cv =
                    convs[static_cast<std::size_t>(entry.conv)];
                if (cv.rid != entry.rid) {
                    // The request this attempt belonged to is gone.
                    node.pendingMsgs.pop_front();
                    continue;
                }
                // Deadline-aware shedding spends a little at dequeue
                // to skip attempts that already expired instead of
                // serving them to no one — the difference between a
                // goodput collapse and a plateau past the knee.
                if (exp.shedPolicy == 2 && exp.svcQueueCap > 0 &&
                    cv.deadlineAt >= 0 && eq.now() >= cv.deadlineAt) {
                    node.pendingMsgs.pop_front();
                    svcEvent(node, "shedExpired");
                    shedAttempt(entry.conv, entry.msg);
                    continue;
                }
            }
            const int server = node.waitingServers.front();
            node.pendingMsgs.pop_front();
            node.waitingServers.pop_front();
            svcEvent(node, "match");

            // The request's stay in the service queue is time blocked
            // on the rendezvous: nobody was working on the message,
            // it was waiting for a server to become available.
            if (sinks.causal && entry.msg != 0)
                pathLog.interval(entry.msg, node.svcName,
                                 trace::Component::Blocked,
                                 entry.enqueueAt, eq.now());
            if (robust)
                convs[static_cast<std::size_t>(entry.conv)].svcState =
                    SvcState::InService;

            if (isLocal(entry.conv)) {
                // Local rendezvous pays the match on the
                // communication processor; non-local ones already
                // paid it at interrupt level in requestArrives().
                node.commProc().submit(
                    act("match", costsLocal.match, node, prioTask,
                        [this, entry, server]() {
                            rendezvous(entry.conv, server, entry.msg,
                                       entry.rid);
                        },
                        entry.msg));
            } else {
                rendezvous(entry.conv, server, entry.msg, entry.rid);
            }
            return;
        }
    }

    /**
     * @p conv identifies the client whose request is being served and
     * thereby the reply path; @p server the serving task (and its
     * host binding).  Any server at a node may serve any request
     * arriving there.
     */
    void
    rendezvous(int conv, int server, long m, long rid)
    {
        const IpcCosts &c = costsOf(conv);
        auto compute = [this, conv, server, m, rid]() {
            Activity a;
            a.name = "compute";
            a.processing =
                usToTicks(rng.uniform(0.5, 1.5) * exp.computeUs);
            a.msgId = m;
            a.onDone = [this, conv, server, m, rid]() {
                serverHost(server).submit(
                    act("replySyscall", costsOf(conv).reply,
                        sNode(conv), prioTask,
                        [this, conv, server, m, rid]() {
                            afterReplySyscall(conv, server, m, rid);
                        },
                        m));
            };
            serverHost(server).submit(std::move(a));
        };

        if (c.restartServer.valid()) {
            serverHost(server).submit(act("restartServer",
                                          c.restartServer,
                                          sNode(conv), prioTask,
                                          compute, m));
        } else {
            compute();
        }
    }

    void
    afterReplySyscall(int conv, int server, long m, long rid)
    {
        const IpcCosts &c = costsOf(conv);
        auto after_comm = [this, conv, server, m, rid]() {
            // The server resumes its loop...
            const IpcCosts &sc = costsOf(server);
            if (sc.restartServer2.valid()) {
                serverHost(server).submit(
                    act("restartServer2", sc.restartServer2,
                        sNode(server), prioTask, [this, server]() {
                            serverReceive(server);
                        }));
            } else {
                serverReceive(server);
            }
            // ...while the reply travels back to the client.
            replyDeparts(conv, m, rid);
        };

        if (c.coproc) {
            sNode(conv).commProc().submit(
                act("processReply", c.processReply, sNode(conv),
                    prioTask, after_comm, m));
        } else {
            after_comm();
        }
    }

    void
    replyDeparts(int conv, long m, long rid)
    {
        if (robust) {
            Conversation &cv = convs[static_cast<std::size_t>(conv)];
            // The reply is on its way: from here, retries of this
            // request id replay it instead of re-executing.
            if (cv.rid == rid && cv.svcState == SvcState::InService)
                cv.svcState = SvcState::Done;
        }
        if (isLocal(conv)) {
            clientRestart(conv, m, rid);
            return;
        }
        const auto cv = convs[static_cast<std::size_t>(conv)];
        sNode(conv).nicOut.submit(
            act("dmaOut", costsOf(conv).dmaOutReply, sNode(conv),
                prioTask, [this, conv, cv, m, rid]() {
                    wire(cv.serverNode, cv.clientNode, m,
                         [this, conv, m, rid]() {
                             replyArrives(conv, m, rid);
                         });
                },
                m));
    }

    void
    replyArrives(int conv, long m, long rid)
    {
        Node &cn = cNode(conv);
        cn.nicIn.submit(act(
            "dmaIn", costsOf(conv).dmaInReply, cn, prioInterrupt,
            [this, conv, m, rid, &cn]() {
                cn.commProc().submit(
                    act("cleanup", costsOf(conv).cleanupClient, cn,
                        prioInterrupt,
                        [this, conv, m, rid]() {
                            clientRestart(conv, m, rid);
                        },
                        m));
            },
            m));
    }

    void
    clientRestart(int conv, long m, long rid)
    {
        const IpcCosts &c = costsOf(conv);
        auto loop = [this, conv, m, rid]() {
            roundTripDone(conv, m, rid);
        };
        if (c.restartClient.valid()) {
            clientHost(conv).submit(act("restartClient",
                                        c.restartClient, cNode(conv),
                                        prioTask, loop, m));
        } else {
            loop();
        }
    }

    void
    roundTripDone(int conv, long m, long rid)
    {
        Node &cn = cNode(conv);
        Conversation &cv0 = convs[static_cast<std::size_t>(conv)];
        if (robust &&
            (cv0.rid != rid || cv0.disp != Disp::None)) {
            // An orphaned reply: it answers a request that expired,
            // was shed, or already completed through another attempt.
            // The client kernel spends a little to discard it.
            ++rpcTotals.orphanedReplies;
            tlAdd(tlRpcOrphans);
            chargeRpc(cn, "rpcOrphan", rpcOrphanUs);
            if (sinks.tracer)
                sinks.tracer->instant(cn.svcTrack, "rpcOrphan",
                                      eq.now(), "rpc");
            return;
        }
        // Without the robustness layer exactly one attempt exists per
        // trip, so the arriving reply's id is the conversation's.
        hsipc_assert(robust || cv0.msgId == m);
        // The message's life ends here, before the tail send below
        // issues a fresh id for the next trip.  Note the id closed is
        // the *newest* attempt's — when an older attempt's reply
        // completes the request, the newest attempt is the one whose
        // record spans the measured sendStart.
        if (cv0.msgId != 0) {
            if (sinks.causal)
                pathLog.done(cv0.msgId, eq.now());
            if (sinks.tracer) {
                sinks.tracer->asyncEnd(cn.svcTrack, "roundTrip",
                                       eq.now(), cv0.msgId);
                sinks.tracer->flowEnd(clientHost(conv).observer().track,
                                      "msg", eq.now(), cv0.msgId);
            }
            cv0.msgId = 0;
        }

        if (robust) {
            cv0.disp = Disp::Completed;
            const long by =
                1 + check::testHooks().rpcCompletionMiscount;
            rpcTotals.completed += by;
            tlAdd(tlRpcCompleted, static_cast<double>(by));
            releaseBuffer(conv);
        } else {
            // Release the kernel buffer; wake a stalled sender.
            ++cn.freeBuffers;
            wakeBufferWaiter(cn);
        }

        // A completed round trip involving a crashed node marks the
        // end of its recovery.
        for (Recovery &r : recoveries) {
            if (r.recoveredAt < 0 && eq.now() >= usToTicks(r.w.endUs) &&
                (cv0.clientNode == r.w.node ||
                 cv0.serverNode == r.w.node))
                r.recoveredAt = eq.now();
        }

        const Tick start = cv0.sendStart;
        // Whole-run trip series (warmup included): the raw material
        // of the MSER-5 steady-state detection, which must see the
        // initial transient to find its end.
        if (tlAllTrips) {
            tlAdd(tlAllTrips);
            tlAdd(tlRtSum, ticksToUs(eq.now() - start));
        }
        if (eq.now() > usToTicks(exp.warmupUs)) {
            ++completed;
            tlAdd(tlTrips);
            const double rt_us = ticksToUs(eq.now() - start);
            rt.add(rt_us);
            rtSamples.push_back(rt_us);
            if (rtHist)
                rtHist->observe(rt_us);
            if (isLocal(conv))
                rtLocal.add(rt_us);
            else
                rtRemote.add(rt_us);
            if (robust)
                sojournSketch.observe(
                    ticksToUs(eq.now() - cv0.arrivalAt));
        }
        if (!robust)
            clientSend(conv);
        else if (exp.arrivalMode == 0)
            startRequest(conv);
    }

    /** One crash window and when its node first completed work again. */
    struct Recovery
    {
        CrashWindow w;
        Tick recoveredAt = -1;
    };

    Experiment exp;
    IpcCosts costsLocal;
    IpcCosts costsNonlocal;
    Rng rng;
    FaultInjector injector;
    //! Robustness layer (open arrivals, deadlines, retries, admission
    //! control): active only when a robustness knob is set, so the
    //! default configuration never touches — or pays for — any of it.
    const bool robust;
    //! Dedicated stream: robustness draws (arrival gaps, retry
    //! jitter) never perturb the workload's or injector's sequences.
    Rng robustRng;
    EventQueue eq;

    // Observability sinks: caller-supplied or owned.  `sinks` holds
    // the tracer, causal log and engine profiler that record (null
    // when off); `metrics` is null when metrics are off, and the
    // histogram pointers are the hot-path handles into it.
    trace::Tracer ownTracer;
    metrics::Registry ownMetrics;
    obs::Sinks sinks;
    metrics::Registry *metrics = nullptr;
    metrics::Histogram *rtHist = nullptr;
    metrics::Histogram *pendingHist = nullptr;
    metrics::Histogram *waitingHist = nullptr;
    int simTrack = -1;

    //! Per-message causal intervals backing Outcome::decomposition;
    //! enabled only when exp.decomposeLatency is set.
    trace::CausalLog pathLog;
    long lastMsgId = 0; //!< last lifetime id issued (0 = untagged)
    long lastRid = 0;   //!< last request id issued (0 = untracked)
    Outcome::Rpc rpcTotals; //!< whole-run disposition ledger
    //! Windowed arrival→reply sojourns; mergeable, fixed relative
    //! error, and the source of Outcome::rpc's sojourn percentiles.
    obs::QuantileSketch sojournSketch;

    // Time-resolved observability: the recorder plus one handle per
    // counter series.  All handles stay null (each bump site one
    // branch) unless exp.timelineIntervalUs is positive.
    obs::TimelineRecorder tl;
    obs::TimelineRecorder::Series *tlAllTrips = nullptr;
    obs::TimelineRecorder::Series *tlRtSum = nullptr;
    obs::TimelineRecorder::Series *tlTrips = nullptr;
    obs::TimelineRecorder::Series *tlStalls = nullptr;
    obs::TimelineRecorder::Series *tlRpcOffered = nullptr;
    obs::TimelineRecorder::Series *tlRpcCompleted = nullptr;
    obs::TimelineRecorder::Series *tlRpcShed = nullptr;
    obs::TimelineRecorder::Series *tlRpcShedAttempts = nullptr;
    obs::TimelineRecorder::Series *tlRpcExpired = nullptr;
    obs::TimelineRecorder::Series *tlRpcLost = nullptr;
    obs::TimelineRecorder::Series *tlRpcRetries = nullptr;
    obs::TimelineRecorder::Series *tlRpcOrphans = nullptr;
    obs::TimelineRecorder::Series *tlNetTx = nullptr;
    obs::TimelineRecorder::Series *tlNetRetx = nullptr;
    obs::TimelineRecorder::Series *tlNetDeliver = nullptr;
    obs::TimelineRecorder::Series *tlNetAck = nullptr;
    std::map<std::string, Tick> tlBusyPrev; //!< last busy snapshot
    Tick tlPrevBoundary = 0; //!< when that snapshot was taken
    int tlTrack = -1; //!< Perfetto counter track for the timeline

    //! The engine self-profiler; set by exp.engineProfile.
    std::unique_ptr<obs::EngineProfiler> engProf;

    const topo::Topology topology; //!< effectiveTopology(exp)
    const int nn;                  //!< node count (topology.nodes)
    std::vector<std::unique_ptr<Node>> nodes;
    //! The interconnect; null on a one-node run.
    std::unique_ptr<topo::Network> net;
    //! Reliable channels, one per ordered node pair in row-major
    //! order (empty when the medium is ideal); for two nodes that is
    //! the historical [0 -> 1, 1 -> 0] pair.
    std::vector<std::unique_ptr<ReliableChannel>> chans;
    int protoAccesses = 0;
    std::vector<Recovery> recoveries;

    std::vector<Conversation> convs;
    long completed = 0;
    long bufferStalls = 0;
    RunningStat rt;
    RunningStat rtLocal;
    RunningStat rtRemote;
    std::vector<double> rtSamples;
};

} // namespace

Outcome
runExperiment(const Experiment &exp, trace::Tracer *tracer,
              metrics::Registry *metrics)
{
    // Test-only interception point (off in production; see
    // sim/check/test_hooks.hh).
    if (check::testHooks().beforeRun)
        check::testHooks().beforeRun(exp);

    // Reject impossible configurations up front, with the offending
    // condition in the message, instead of producing silent nonsense
    // downstream.  Every real-valued knob is finite first: an
    // infinite time would overflow the tick conversion and render as
    // a repro document the parser rejects.
    const auto requireFinite = [](const auto &record) {
        using R = std::decay_t<decltype(record)>;
        check::forEachKnob<double, R>(
            [&record](const char *name, double R::*field) {
                if (!std::isfinite(record.*field))
                    hsipc_panic(std::string(name) + " must be finite");
            });
    };
    requireFinite(exp);
    requireFinite(exp.topo);
    for (const CrashWindow &w : exp.crashSchedule)
        requireFinite(w);
    hsipc_assert(exp.conversations >= 1 || exp.mixedLocal > 0 ||
                 exp.mixedRemote > 0);
    hsipc_assert(exp.mixedLocal >= 0 && exp.mixedRemote >= 0);
    hsipc_assert(exp.hostsPerNode >= 1);
    hsipc_assert(exp.computeUs >= 0 && "computeUs cannot be negative");
    hsipc_assert(exp.kernelBuffers >= 1 &&
                 "need at least one kernel buffer per node");
    hsipc_assert(exp.mpSpeedFactor > 0 &&
                 "mpSpeedFactor must be positive");
    hsipc_assert(exp.warmupUs >= 0 && exp.measureUs > 0);
    hsipc_assert(exp.warmupUs + exp.measureUs <
                     static_cast<double>(
                         std::numeric_limits<Tick>::max() / tickUs) &&
                 "warmupUs + measureUs overflows the tick clock");
    hsipc_assert(usToTicks(exp.measureUs) > 0 &&
                 "measureUs rounds to a zero-tick window");
    for (double rate : {exp.lossRate, exp.corruptRate,
                        exp.duplicateRate, exp.reorderRate})
        hsipc_assert(rate >= 0 && rate <= 1 &&
                     "fault rates are probabilities");
    hsipc_assert(exp.reorderDelayUs >= 0);
    hsipc_assert(exp.retransmitTimeoutUs > 0 &&
                 "retransmitTimeoutUs must be positive");
    hsipc_assert(exp.retransmitWindow >= 1 &&
                 "retransmitWindow must be at least 1");
    const int crashNodes = std::max(2, exp.topo.nodes);
    for (const CrashWindow &w : exp.crashSchedule) {
        hsipc_assert(w.node >= 0 && w.node < crashNodes &&
                     "crash node must name an existing node");
        hsipc_assert(w.startUs >= 0 && w.endUs > w.startUs &&
                     "crash window must be well-formed");
    }
    hsipc_assert(exp.arrivalMode >= 0 && exp.arrivalMode <= 1 &&
                 "arrivalMode is 0 (closed) or 1 (Poisson)");
    if (exp.arrivalMode != 0) {
        hsipc_assert(exp.arrivalRatePerSec > 0 &&
                     "open arrivals need a positive rate");
        hsipc_assert(exp.mixedLocal == 0 && exp.mixedRemote == 0 &&
                     "open arrivals are incompatible with the mixed "
                     "workload");
    }
    hsipc_assert(exp.deadlineUs >= 0 &&
                 "deadlineUs cannot be negative");
    hsipc_assert(exp.retryBudget >= 0 &&
                 "retryBudget cannot be negative");
    if (exp.retryBudget > 0)
        hsipc_assert(exp.retryBackoffUs > 0 &&
                     exp.retryBackoffMaxUs >= exp.retryBackoffUs &&
                     "retry backoff needs 0 < base <= ceiling");
    hsipc_assert(exp.svcQueueCap >= 0 &&
                 "svcQueueCap cannot be negative");
    hsipc_assert(exp.shedPolicy >= 0 && exp.shedPolicy <= 2 &&
                 "shedPolicy is 0 (reject-new), 1 (drop-oldest), or "
                 "2 (deadline-aware)");
    hsipc_assert(exp.timelineIntervalUs >= 0 &&
                 "timelineIntervalUs cannot be negative");
    if (exp.timelineIntervalUs > 0)
        hsipc_assert((exp.warmupUs + exp.measureUs) /
                             exp.timelineIntervalUs <=
                         4e6 &&
                     "timeline bin count is unreasonably large");
    hsipc_assert(exp.traceSampleRate >= 0 &&
                 exp.traceSampleRate <= 1 &&
                 "traceSampleRate is a probability");
    hsipc_assert((exp.topo.nodes == 0 ||
                  (exp.topo.nodes >= 2 && exp.topo.nodes <= 1024)) &&
                 "topology nodes is 0 (off) or in [2, 1024]");
    if (exp.topo.enabled()) {
        hsipc_assert(exp.topo.kind >= 0 && exp.topo.kind <= 2 &&
                     "topology kind is 0 (mesh), 1 (switch), or 2 "
                     "(ring)");
        hsipc_assert(exp.topo.placement >= 0 &&
                     exp.topo.placement <= 2 &&
                     "placement is 0 (classic), 1 (round-robin), or 2 "
                     "(locality)");
        hsipc_assert(exp.topo.linkLatencyUs >= 0 &&
                     exp.topo.switchLatencyUs >= 0 &&
                     "link parameters cannot be negative");
        hsipc_assert(exp.topo.segMbps > 0 &&
                     "ring rate must be positive");
        hsipc_assert((exp.mixedLocal + exp.mixedRemote == 0 ||
                      (exp.topo.nodes == 2 &&
                       exp.topo.placement == 0)) &&
                     "the mixed workload lays out its own "
                     "conversations over a two-node topology");
    }
    Sim sim(exp, tracer, metrics);
    return sim.run();
}

} // namespace hsipc::sim
