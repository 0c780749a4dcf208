#include "sim/topo/network.hh"

#include <string>
#include <utility>

#include "common/logging.hh"
#include "sim/check/test_hooks.hh"

namespace hsipc::sim::topo
{

Network::Network(EventQueue &eq, const Topology &t,
                 const obs::Sinks &sinks)
    : eq(eq), topo(t), latency(usToTicks(t.linkLatencyUs)),
      tracer(sinks.tracer), prof(sinks.prof)
{
    hsipc_assert(topo.nodes >= 2);
    if (prof)
        wireOrigin = prof->origin("wire");

    const int n = topo.nodes;
    auto node = [](int i) { return "n" + std::to_string(i); };
    auto addLink = [this](std::string name) {
        Link l;
        l.led.name = std::move(name);
        links.push_back(std::move(l));
    };

    switch (topo.kind) {
      case 0: // point-to-point mesh, one directed link per pair
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                if (j != i)
                    addLink(node(i) + "->" + node(j));
            }
        }
        break;

      case 1: // store-and-forward switch: ingress links, then egress
        for (int i = 0; i < n; ++i)
            addLink(node(i) + "->sw");
        for (int i = 0; i < n; ++i)
            addLink("sw->" + node(i));
        routers.emplace_back();
        routers.back().led.name = "sw";
        break;

      default: { // one token ring, a station per node
        // The ring is booked as one ledger entry: a send enters the
        // link, the delivery leaves it.
        addLink("ring0");
        TokenRing::Config rc;
        rc.stations = n;
        rc.megabitsPerSec = topo.segMbps;
        ring = std::make_unique<TokenRing>(eq, rc);
        break;
      }
    }
    if (tracer && !routers.empty())
        topoTrack = tracer->track("topo");
}

std::size_t
Network::meshIndex(int src, int dst) const
{
    return static_cast<std::size_t>(src * (topo.nodes - 1) +
                                    (dst - (dst > src ? 1 : 0)));
}

void
Network::dispatch(Tick delay, EventQueue::Callback cb)
{
    if (prof) {
        // The delivery is the wire's: its claim comes before any the
        // receiving component makes.
        auto wrapped = [this, inner = std::move(cb)]() {
            prof->claim(wireOrigin);
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
    dispatch(latency,
             [this, li, bytes, inner = std::move(then)]() {
                 Link &dl = links[li];
                 --dl.inFlight;
                 ++dl.led.msgsOut;
                 dl.led.bytesOut += bytes;
                 inner();
             });
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
        const Tick service = usToTicks(topo.switchLatencyUs);
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
        Link &rl = links[0];
        ++rl.led.msgsIn;
        rl.led.bytesIn += bytes;
        ++rl.inFlight;
        if (rl.inFlight > rl.led.queuePeak)
            rl.led.queuePeak = rl.inFlight;
        ring->send(src, dst, bytes,
                   [this, bytes, inner = std::move(deliver)]() {
                       Link &dl = links[0];
                       --dl.inFlight;
                       ++dl.led.msgsOut;
                       dl.led.bytesOut += bytes;
                       inner();
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
      default:
        links[0].led.retransmissions += count;
        return;
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
    if (!ring)
        return {0, 0};
    const long packets = ring->packetCount();
    const Tick mean =
        packets > 0 ? static_cast<Tick>(ring->tokenWaitTicks() / packets)
                    : 0;
    return {ring->utilization(), ticksToUs(mean)};
}

} // namespace hsipc::sim::topo
