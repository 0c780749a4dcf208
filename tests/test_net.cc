/**
 * @file
 * Tests for the unreliable-medium stack: the FaultPlan injector and
 * the sliding-window ack/timeout/retransmit channel, exercised over a
 * bare event queue with synthetic media and processors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/check/invariants.hh"
#include "sim/des/event_queue.hh"
#include "sim/kernel/ipc_sim.hh"
#include "sim/net/faults.hh"
#include "sim/net/reliable.hh"
#include "sim/node/token_ring.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::sim;

// --- FaultInjector -------------------------------------------------------

TEST(FaultPlan, InactiveWhenAllRatesZero)
{
    FaultPlan p;
    EXPECT_FALSE(p.active());
    p.dropRate = 0.01;
    EXPECT_TRUE(p.active());
    p.dropRate = 0;
    p.crashes.push_back({0, 10, 20});
    EXPECT_TRUE(p.active());
}

TEST(FaultInjector, CleanPlanPassesEverythingUntouched)
{
    FaultInjector inj(FaultPlan{}, 42);
    for (int i = 0; i < 100; ++i) {
        const auto copies = inj.judge();
        ASSERT_EQ(copies.size(), 1u);
        EXPECT_FALSE(copies[0].corrupted);
        EXPECT_EQ(copies[0].extraDelay, 0);
    }
    EXPECT_EQ(inj.stats().injected, 100);
    EXPECT_EQ(inj.stats().dropped, 0);
    EXPECT_EQ(inj.stats().corrupted, 0);
}

TEST(FaultInjector, CertainFaultsAlwaysHappen)
{
    FaultPlan p;
    p.dropRate = 1.0;
    FaultInjector drop(p, 1);
    EXPECT_TRUE(drop.judge().empty());
    EXPECT_EQ(drop.stats().dropped, 1);

    p.dropRate = 0;
    p.corruptRate = 1.0;
    p.duplicateRate = 1.0;
    FaultInjector both(p, 1);
    const auto copies = both.judge();
    ASSERT_EQ(copies.size(), 2u);
    EXPECT_TRUE(copies[0].corrupted);
    // The duplicate is a faithful copy of the corrupted bits, lagging
    // the original.
    EXPECT_TRUE(copies[1].corrupted);
    EXPECT_GT(copies[1].extraDelay, copies[0].extraDelay);
    EXPECT_EQ(both.stats().corrupted, 1);
    EXPECT_EQ(both.stats().duplicated, 1);
}

TEST(FaultInjector, ReorderDelaysTheCopy)
{
    FaultPlan p;
    p.reorderRate = 1.0;
    p.reorderDelayUs = 300;
    FaultInjector inj(p, 7);
    const auto copies = inj.judge();
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_EQ(copies[0].extraDelay, usToTicks(300));
    EXPECT_EQ(inj.stats().reordered, 1);
}

TEST(FaultInjector, RatesConvergeAndAreSeedDeterministic)
{
    FaultPlan p;
    p.dropRate = 0.1;
    FaultInjector a(p, 99);
    FaultInjector b(p, 99);
    long droppedA = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool dropped = a.judge().empty();
        EXPECT_EQ(dropped, b.judge().empty());
        droppedA += dropped ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(droppedA) / 10000.0, 0.1, 0.02);
}

TEST(FaultInjector, CrashWindowsPartitionTheNode)
{
    FaultPlan p;
    p.crashes.push_back({1, 100, 200});
    p.crashes.push_back({0, 500, 600});
    FaultInjector inj(p, 1);
    EXPECT_TRUE(inj.nodeUp(1, usToTicks(50)));
    EXPECT_FALSE(inj.nodeUp(1, usToTicks(100)));
    EXPECT_FALSE(inj.nodeUp(1, usToTicks(199)));
    EXPECT_TRUE(inj.nodeUp(1, usToTicks(200))); // recovered
    EXPECT_TRUE(inj.nodeUp(0, usToTicks(150))); // other node unaffected
    EXPECT_FALSE(inj.nodeUp(0, usToTicks(550)));
}

// --- ReliableChannel -----------------------------------------------------

/** A channel over a synthetic medium and zero-cost processors. */
struct Harness
{
    explicit Harness(const FaultPlan &plan, ReliableChannel::Config cfg =
                                                ReliableChannel::Config{},
                     Tick wire = usToTicks(100))
        : faults(plan, 1234)
    {
        ReliableChannel::Hooks h;
        // Protocol steps cost 1 tick of "processing" on no processor:
        // the protocol logic is what is under test here.
        h.exec = [this](int, const char *, double, int,
                        EventQueue::Callback done) {
            eq.scheduleAfter(1, std::move(done));
        };
        h.mediumToDst = [this, wire](int, EventQueue::Callback cb) {
            eq.scheduleAfter(wire, std::move(cb));
        };
        h.mediumToSrc = h.mediumToDst;
        chan = std::make_unique<ReliableChannel>(eq, cfg, faults,
                                                 std::move(h));
    }

    EventQueue eq;
    FaultInjector faults;
    std::unique_ptr<ReliableChannel> chan;
};

TEST(ReliableChannel, DeliversInOrderExactlyOnceOnCleanMedium)
{
    Harness h{FaultPlan{}};
    std::vector<int> delivered;
    for (int i = 0; i < 10; ++i)
        h.chan->send([&delivered, i]() { delivered.push_back(i); });
    h.eq.runUntil(usToTicks(100000));
    EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(h.chan->stats().delivered, 10);
    EXPECT_EQ(h.chan->stats().retransmissions, 0);
    EXPECT_EQ(h.chan->stats().timeoutsFired, 0);
    EXPECT_EQ(h.chan->inFlight(), 0);
}

TEST(ReliableChannel, WindowLimitsInFlightPackets)
{
    ReliableChannel::Config cfg;
    cfg.windowSize = 2;
    Harness h{FaultPlan{}, cfg};
    int delivered = 0;
    for (int i = 0; i < 8; ++i)
        h.chan->send([&delivered]() { ++delivered; });
    // Before anything can be acked at most two packets are in flight.
    h.eq.runUntil(usToTicks(50));
    EXPECT_LE(h.chan->inFlight(), 2);
    h.eq.runUntil(usToTicks(100000));
    EXPECT_EQ(delivered, 8);
}

TEST(ReliableChannel, RetransmitsThroughHeavyLoss)
{
    FaultPlan p;
    p.dropRate = 0.4;
    ReliableChannel::Config cfg;
    cfg.rtoUs = 1000;
    Harness h{p, cfg};
    int delivered = 0;
    for (int i = 0; i < 20; ++i)
        h.chan->send([&delivered]() { ++delivered; });
    h.eq.runUntil(usToTicks(5000000));
    EXPECT_EQ(delivered, 20);
    EXPECT_EQ(h.chan->stats().delivered, 20);
    EXPECT_GT(h.chan->stats().retransmissions, 0);
    EXPECT_GT(h.chan->stats().timeoutsFired, 0);
    // Retransmissions inflate wire traffic above useful deliveries.
    EXPECT_GT(h.chan->stats().dataTransmissions,
              h.chan->stats().delivered);
}

TEST(ReliableChannel, SuppressesDuplicates)
{
    FaultPlan p;
    p.duplicateRate = 1.0; // every packet arrives twice
    Harness h{p};
    int delivered = 0;
    for (int i = 0; i < 5; ++i)
        h.chan->send([&delivered]() { ++delivered; });
    h.eq.runUntil(usToTicks(1000000));
    EXPECT_EQ(delivered, 5); // exactly once despite two copies each
    EXPECT_GT(h.chan->stats().duplicatesDropped, 0);
}

TEST(ReliableChannel, DiscardsCorruptCopiesAndRecovers)
{
    FaultPlan p;
    p.corruptRate = 0.5;
    ReliableChannel::Config cfg;
    cfg.rtoUs = 1000;
    Harness h{p, cfg};
    int delivered = 0;
    for (int i = 0; i < 10; ++i)
        h.chan->send([&delivered]() { ++delivered; });
    h.eq.runUntil(usToTicks(5000000));
    EXPECT_EQ(delivered, 10);
    EXPECT_GT(h.chan->stats().corruptDiscarded, 0);
}

TEST(ReliableChannel, ReorderingDeliversEachMessageExactlyOnce)
{
    FaultPlan p;
    p.reorderRate = 0.5;
    p.reorderDelayUs = 450; // several wire times: real inversions
    Harness h{p};
    std::vector<int> delivered;
    for (int i = 0; i < 30; ++i)
        h.chan->send([&delivered, i]() { delivered.push_back(i); });
    h.eq.runUntil(usToTicks(5000000));
    // Messages are independent datagrams: each arrives exactly once,
    // though delayed copies may overtake their successors.
    ASSERT_EQ(delivered.size(), 30u);
    std::sort(delivered.begin(), delivered.end());
    for (int i = 0; i < 30; ++i)
        EXPECT_EQ(delivered[static_cast<std::size_t>(i)], i);
}

TEST(ReliableChannel, SurvivesAReceiverOutage)
{
    FaultPlan p;
    p.crashes.push_back({1, 0, 3000}); // dst down for the first 3 ms
    ReliableChannel::Config cfg;
    cfg.rtoUs = 500;
    Harness h{p, cfg};
    int delivered = 0;
    h.chan->send([&delivered]() { ++delivered; });
    h.eq.runUntil(usToTicks(2000));
    EXPECT_EQ(delivered, 0); // lost at the crashed node's boundary
    h.eq.runUntil(usToTicks(100000));
    EXPECT_EQ(delivered, 1); // a retransmission got through
    EXPECT_GT(h.chan->stats().retransmissions, 0);
    EXPECT_GT(h.faults.stats().crashDrops, 0);
}

TEST(ReliableChannel, BackoffSpacesRetransmissions)
{
    FaultPlan p;
    p.dropRate = 1.0; // nothing ever arrives
    ReliableChannel::Config cfg;
    cfg.rtoUs = 1000;
    cfg.rtoMaxUs = 4000;
    Harness h{p, cfg};
    h.chan->send([]() {});
    h.eq.runUntil(usToTicks(20000));
    // Timeouts at ~1, 2, 4, 4, 4... ms: about six fire within 20 ms;
    // without backoff there would be ~20.
    EXPECT_GE(h.chan->stats().timeoutsFired, 4);
    EXPECT_LE(h.chan->stats().timeoutsFired, 8);
}

TEST(ReliableChannel, ExperimentRtoCeilingCapsTheBackoff)
{
    // The rtoMaxUs Experiment knob reaches the channel: a tight
    // ceiling fires more timeouts over the same outage than the
    // default exponential run-up allows.
    auto timeouts = [](double rtoMaxUs) {
        Experiment e;
        e.local = false;
        e.conversations = 1;
        e.lossRate = 0.4;
        e.warmupUs = 2000;
        e.measureUs = 60000;
        e.seed = 99;
        e.rtoMaxUs = rtoMaxUs;
        return runExperiment(e).netTotals.timeoutsFired;
    };
    EXPECT_GT(timeouts(600), timeouts(80000));
}

// --- ReliableChannel over a token-ring medium ----------------------------

/**
 * The protocol is medium-agnostic: run it over a token ring of any
 * station count (a two-node ring has two stations, the topology
 * layer's bridged segments many more) with data crossing the
 * whole ring and acks crossing back.
 */
class RingMediumStations : public ::testing::TestWithParam<int>
{
};

TEST_P(RingMediumStations, ChannelDeliversExactlyOnceOverALossyRing)
{
    const int stations = GetParam();
    EventQueue eq;
    FaultPlan plan;
    plan.dropRate = 0.25;
    FaultInjector faults(plan, 4321);
    TokenRing::Config rc;
    rc.stations = stations;
    TokenRing ring(eq, rc);

    ReliableChannel::Hooks h;
    h.exec = [&eq](int, const char *, double, int,
                   EventQueue::Callback done) {
        eq.scheduleAfter(1, std::move(done));
    };
    h.mediumToDst = [&ring, stations](int bytes,
                                      EventQueue::Callback cb) {
        ring.send(0, stations - 1, bytes, std::move(cb));
    };
    h.mediumToSrc = [&ring, stations](int bytes,
                                      EventQueue::Callback cb) {
        ring.send(stations - 1, 0, bytes, std::move(cb));
    };
    ReliableChannel::Config cfg;
    cfg.rtoUs = 4000;
    ReliableChannel chan(eq, cfg, faults, std::move(h));

    std::vector<int> delivered;
    for (int i = 0; i < 12; ++i)
        chan.send([&delivered, i]() { delivered.push_back(i); });
    eq.runUntil(usToTicks(5000000));

    // Messages are independent datagrams: a retransmitted packet may
    // overtake its successors, but each arrives exactly once.
    ASSERT_EQ(delivered.size(), 12u);
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
    EXPECT_EQ(chan.stats().delivered, 12);
    EXPECT_GT(chan.stats().retransmissions, 0);
    EXPECT_EQ(chan.inFlight(), 0);
    // Every surviving data packet and ack crossed the shared medium.
    EXPECT_GT(ring.packetCount(), 24);
    EXPECT_GT(ring.utilization(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Rings, RingMediumStations,
                         ::testing::Values(2, 3, 5, 8, 16));

TEST(RpcRobustness, ServerCrashDuringRendezvousRecoversViaRetry)
{
    // Regression for the crash-during-rendezvous window: the server
    // node dies between request delivery and reply send, the reply
    // (or the queued request) is lost at the crashed boundary, and
    // the client's timeout/retry path must carry the request through
    // to recovery rather than wedging the conversation.
    Experiment e;
    e.local = false;
    e.conversations = 2;
    e.warmupUs = 2000;
    e.measureUs = 40000;
    e.seed = 7;
    e.retryBudget = 3;
    e.retryBackoffUs = 2000;
    e.retryBackoffMaxUs = 32000;
    e.crashSchedule.push_back({1, 5000, 12000}); // server node down
    const Outcome out = runExperiment(e);

    // The crash ate traffic and the window was survived.
    EXPECT_GT(out.crashDrops, 0);
    EXPECT_EQ(out.crashWindowsRecovered, 1);
    // The client-side retry path fired and the workload kept going.
    EXPECT_GT(out.rpc.retries, 0);
    EXPECT_GT(out.rpc.completed, 0);
    EXPECT_GT(out.throughputPerSec, 0);
    // Minimum backoff (0.75 jitter on 2+4+8 ms) outlasts the window
    // remainder after any in-window loss, so no request can exhaust
    // its budget before the server returns.
    EXPECT_EQ(out.rpc.offered, out.rpc.completed + out.rpc.inFlightAtEnd);

    // The full invariant oracle (disposition conservation included)
    // stays green on the crash path.
    const auto v = sim::check::checkOutcome(e, out);
    EXPECT_TRUE(v.empty()) << sim::check::formatViolations(v);
}

} // namespace
