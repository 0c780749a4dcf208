#include "sim/topo/network.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "sim/check/test_hooks.hh"

namespace hsipc::sim::topo
{

Network::Network(EventQueue &eq, const Topology &t,
                 const obs::Sinks &sinks)
    : eq(eq), topo(t), tracer(sinks.tracer), prof(sinks.prof)
{
    hsipc_assert(topo.nodes >= 2);
    if (prof)
        wireOrigin = prof->origin("wire");

    const int n = topo.nodes;
    const Tick lat = usToTicks(topo.linkLatencyUs);
    auto node = [](int i) { return "n" + std::to_string(i); };
    auto addLink = [this](std::string name, Tick latency,
                          double mbps) {
        Link l;
        l.led.name = std::move(name);
        l.latency = latency;
        l.mbps = mbps;
        links.push_back(std::move(l));
    };

    switch (topo.kind) {
      case 0: // point-to-point mesh, one directed link per pair
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                if (j != i)
                    addLink(node(i) + "->" + node(j), lat,
                            topo.linkMbps);
            }
        }
        // Per-pair overrides, in declaration order (last wins);
        // out-of-range endpoints are ignored so shrinking the node
        // count never invalidates the override list.
        for (const TopoLink &o : topo.links) {
            if (o.a < 0 || o.a >= n || o.b < 0 || o.b >= n ||
                o.a == o.b)
                continue;
            Link &l = links[meshIndex(o.a, o.b)];
            l.latency = usToTicks(o.latencyUs);
            l.mbps = o.mbps;
        }
        break;

      case 1: // store-and-forward switch: ingress links, then egress
        for (int i = 0; i < n; ++i)
            addLink(node(i) + "->sw", lat, topo.linkMbps);
        // Serialization is charged once, at the switch's output
        // port (part of its service time); egress is pure latency.
        for (int i = 0; i < n; ++i)
            addLink("sw->" + node(i), lat, 0);
        routers.emplace_back();
        routers.back().led.name = "sw";
        break;

      default: { // token-ring segments bridged by routers
        const int s_count = topo.effectiveSegments();
        for (int s = 0; s < s_count; ++s) {
            // The ring is booked as one ledger entry: a send enters
            // the link, the delivery leaves it.
            addLink("ring" + std::to_string(s), 0, 0);
            TokenRing::Config rc;
            const int size =
                segmentStart(s + 1) - segmentStart(s);
            // With multiple segments the ring carries one extra
            // station: the segment's router.
            rc.stations = size + (s_count > 1 ? 1 : 0);
            rc.megabitsPerSec = topo.segMbps;
            rings.push_back(std::make_unique<TokenRing>(eq, rc));
        }
        if (s_count > 1) {
            for (int s = 0; s < s_count; ++s) {
                routers.emplace_back();
                routers.back().led.name = "r" + std::to_string(s);
            }
            for (int a = 0; a < s_count; ++a) {
                for (int b = 0; b < s_count; ++b) {
                    if (b != a)
                        addLink("r" + std::to_string(a) + "->r" +
                                    std::to_string(b),
                                lat, topo.linkMbps);
                }
            }
        }
        break;
      }
    }
    if (tracer && !routers.empty())
        topoTrack = tracer->track("topo");
}

Tick
Network::serTicks(int bytes, double mbps) const
{
    if (mbps <= 0)
        return 0;
    return usToTicks(static_cast<double>(bytes) * 8.0 / mbps);
}

std::size_t
Network::meshIndex(int src, int dst) const
{
    return static_cast<std::size_t>(src * (topo.nodes - 1) +
                                    (dst - (dst > src ? 1 : 0)));
}

std::size_t
Network::backboneIndex(int a, int b) const
{
    const int s_count = topo.effectiveSegments();
    return static_cast<std::size_t>(s_count + a * (s_count - 1) +
                                    (b - (b > a ? 1 : 0)));
}

int
Network::segmentStart(int seg) const
{
    const int s_count = topo.effectiveSegments();
    return (seg * topo.nodes + s_count - 1) / s_count;
}

int
Network::localStation(int n) const
{
    return n - segmentStart(topo.segmentOf(n));
}

void
Network::dispatch(Tick delay, EventQueue::Callback cb)
{
    if (prof) {
        // The inter-node lookahead edge: whoever is transmitting
        // now schedules a delivery `delay` in the future — the
        // minimum positive delta on (src -> wire) edges is the
        // lookahead a sharded engine could exploit between nodes.
        prof->edge(wireOrigin, delay);
        auto wrapped = [this, inner = std::move(cb)]() {
            obs::EngineProfiler::Scope s(prof, wireOrigin);
            inner();
        };
        eq.scheduleAfter(delay, std::move(wrapped));
    } else {
        eq.scheduleAfter(delay, std::move(cb));
    }
}

void
Network::traverse(std::size_t li, int bytes, EventQueue::Callback then)
{
    Link &l = links[li];
    ++l.led.msgsIn;
    l.led.bytesIn += bytes;
    ++l.inFlight;
    if (l.inFlight > l.led.queuePeak)
        l.led.queuePeak = l.inFlight;
    const Tick delay = l.latency + serTicks(bytes, l.mbps);
    dispatch(delay,
             [this, li, bytes, inner = std::move(then)]() {
                 Link &dl = links[li];
                 --dl.inFlight;
                 ++dl.led.msgsOut;
                 dl.led.bytesOut += bytes;
                 inner();
             });
}

void
Network::ringDelivered(std::size_t li, int bytes)
{
    Link &l = links[li];
    --l.inFlight;
    ++l.led.msgsOut;
    l.led.bytesOut += bytes;
}

void
Network::traceDepth(std::size_t ri)
{
    if (!tracer)
        return;
    const Router &r = routers[ri];
    tracer->counter(topoTrack, r.led.name + ".depth", eq.now(),
                    static_cast<double>(r.depth()));
}

void
Network::routerArrive(std::size_t ri, Tick service,
                      EventQueue::Callback next)
{
    Router &r = routers[ri];
    ++r.led.received;
    // Planted defect for the fuzzer's drill (see test_hooks.hh):
    // the packet vanishes here without touching `dropped`, leaving
    // received > forwarded + dropped + inFlight — exactly what
    // topo.conservation must catch.
    if (check::testHooks().topoRouterDrop > 0) {
        --check::testHooks().topoRouterDrop;
        return;
    }
    r.q.push_back(Item{service, std::move(next)});
    if (r.depth() > r.led.queuePeak)
        r.led.queuePeak = r.depth();
    traceDepth(ri);
    if (!r.busy)
        startService(ri);
}

void
Network::startService(std::size_t ri)
{
    Router &r = routers[ri];
    Item it = std::move(r.q.front());
    r.q.pop_front();
    r.busy = true;
    dispatch(it.service,
             [this, ri, next = std::move(it.next)]() mutable {
                 Router &dr = routers[ri];
                 ++dr.led.forwarded;
                 next();
                 if (!dr.q.empty())
                     startService(ri);
                 else
                     dr.busy = false;
                 traceDepth(ri);
             });
}

void
Network::send(int src, int dst, int bytes, EventQueue::Callback deliver)
{
    hsipc_assert(src >= 0 && src < topo.nodes);
    hsipc_assert(dst >= 0 && dst < topo.nodes && dst != src);

    switch (topo.kind) {
      case 0:
        traverse(meshIndex(src, dst), bytes, std::move(deliver));
        return;

      case 1: {
        const Tick service = usToTicks(topo.switchLatencyUs) +
                             serTicks(bytes, topo.linkMbps);
        const std::size_t egress =
            static_cast<std::size_t>(topo.nodes + dst);
        traverse(
            static_cast<std::size_t>(src), bytes,
            [this, service, egress, bytes,
             inner = std::move(deliver)]() mutable {
                routerArrive(0, service,
                             [this, egress, bytes,
                              cb = std::move(inner)]() mutable {
                                 traverse(egress, bytes, std::move(cb));
                             });
            });
        return;
      }

      default: {
        const int ss = topo.segmentOf(src);
        const int ds = topo.segmentOf(dst);
        Link &rl = links[static_cast<std::size_t>(ss)];
        ++rl.led.msgsIn;
        rl.led.bytesIn += bytes;
        ++rl.inFlight;
        if (rl.inFlight > rl.led.queuePeak)
            rl.led.queuePeak = rl.inFlight;
        if (ss == ds) {
            rings[static_cast<std::size_t>(ss)]->send(
                localStation(src), localStation(dst), bytes,
                [this, ss, bytes, inner = std::move(deliver)]() {
                    ringDelivered(static_cast<std::size_t>(ss),
                                  bytes);
                    inner();
                });
            return;
        }
        // Cross-segment: source ring to its router, switch service
        // (with serialization onto the backbone), a backbone link,
        // the destination router, and the destination ring.
        const int routerStation =
            segmentStart(ss + 1) - segmentStart(ss);
        const Tick srcService = usToTicks(topo.switchLatencyUs) +
                                serTicks(bytes, topo.linkMbps);
        const Tick dstService = usToTicks(topo.switchLatencyUs);
        auto atDstRouter = [this, ds, dst, bytes, dstService,
                            inner =
                                std::move(deliver)]() mutable {
            routerArrive(
                static_cast<std::size_t>(ds), dstService,
                [this, ds, dst, bytes,
                 cb = std::move(inner)]() mutable {
                    Link &dl = links[static_cast<std::size_t>(ds)];
                    ++dl.led.msgsIn;
                    dl.led.bytesIn += bytes;
                    ++dl.inFlight;
                    if (dl.inFlight > dl.led.queuePeak)
                        dl.led.queuePeak = dl.inFlight;
                    rings[static_cast<std::size_t>(ds)]->send(
                        segmentStart(ds + 1) - segmentStart(ds),
                        localStation(dst), bytes,
                        [this, ds, bytes,
                         done = std::move(cb)]() {
                            ringDelivered(
                                static_cast<std::size_t>(ds),
                                bytes);
                            done();
                        });
                });
        };
        rings[static_cast<std::size_t>(ss)]->send(
            localStation(src), routerStation, bytes,
            [this, ss, ds, bytes, srcService,
             hop = std::move(atDstRouter)]() mutable {
                ringDelivered(static_cast<std::size_t>(ss), bytes);
                routerArrive(
                    static_cast<std::size_t>(ss), srcService,
                    [this, ss, ds, bytes,
                     fwd = std::move(hop)]() mutable {
                        traverse(backboneIndex(ss, ds), bytes,
                                 std::move(fwd));
                    });
            });
        return;
      }
    }
}

void
Network::attributeRetransmissions(int src, int dst, long count)
{
    if (count <= 0)
        return;
    switch (topo.kind) {
      case 0:
        links[meshIndex(src, dst)].led.retransmissions += count;
        return;
      case 1:
        links[static_cast<std::size_t>(src)].led.retransmissions +=
            count;
        links[static_cast<std::size_t>(topo.nodes + dst)]
            .led.retransmissions += count;
        return;
      default: {
        const int ss = topo.segmentOf(src);
        const int ds = topo.segmentOf(dst);
        links[static_cast<std::size_t>(ss)].led.retransmissions +=
            count;
        if (ss != ds) {
            links[backboneIndex(ss, ds)].led.retransmissions +=
                count;
            links[static_cast<std::size_t>(ds)]
                .led.retransmissions += count;
        }
        return;
      }
    }
}

void
Network::fillLedger(Ledger &out) const
{
    out.enabled = true;
    out.links.clear();
    out.routers.clear();
    for (const Link &l : links) {
        LinkLedger led = l.led;
        led.inFlightAtEnd = l.inFlight;
        out.links.push_back(std::move(led));
    }
    for (const Router &r : routers) {
        RouterLedger led = r.led;
        led.inFlightAtEnd = r.depth();
        out.routers.push_back(std::move(led));
    }
}

double
Network::routerDepthSum() const
{
    double sum = 0;
    for (const Router &r : routers)
        sum += static_cast<double>(r.depth());
    return sum;
}

double
Network::linkInFlightSum() const
{
    double sum = 0;
    for (const Link &l : links)
        sum += static_cast<double>(l.inFlight);
    return sum;
}

std::pair<double, double>
Network::ringStats() const
{
    double util = 0, wait = 0;
    long packets = 0;
    for (const auto &r : rings) {
        util = std::max(util, r->utilization());
        wait += r->tokenWaitTicks();
        packets += r->packetCount();
    }
    const Tick mean = packets > 0 ? static_cast<Tick>(wait / packets) : 0;
    return {util, ticksToUs(mean)};
}

} // namespace hsipc::sim::topo
