/**
 * @file
 * Tests for the event-driven kernel simulator: the DES core, the
 * processor/bus contention machinery, cost derivation, and end-to-end
 * agreement with hand analysis and the GTPN models.
 */

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/models/solution.hh"
#include "sim/des/event_queue.hh"
#include "sim/des/resource.hh"
#include "sim/kernel/ipc_sim.hh"
#include "sim/node/costs.hh"
#include "sim/runner/sweep_runner.hh"
#include "sim/node/processor.hh"
#include "sim/node/token_ring.hh"

/**
 * Global allocation counter backing the zero-steady-state-allocation
 * guarantees of the event queue (EventCallback inline storage and the
 * spill pool).  Replacing the global allocation functions is the only
 * way to observe every heap allocation; counting is relaxed-atomic so
 * the override stays safe under any threading.
 */
static std::atomic<std::size_t> g_heapAllocs{0};

// GCC pairs the replaced operator delete's free() against operator
// new at inlined call sites and warns, even though the replaced new
// allocates with malloc — matched in fact.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow forms must be replaced alongside the throwing ones:
// libstdc++'s std::get_temporary_buffer (stable_sort's scratch) uses
// nothrow new, and pairing the runtime's nothrow new with this file's
// free()-based delete is an alloc-dealloc mismatch under ASan.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &t) noexcept
{
    return ::operator new(n, t);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace
{

using namespace hsipc;
using namespace hsipc::sim;
using models::Arch;

TEST(EventQueue, OrdersByTimeThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(2); });
    eq.schedule(5, [&]() { order.push_back(1); });
    eq.schedule(10, [&]() { order.push_back(3); }); // same time: FIFO
    while (eq.runOne()) {}
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 10);
}

TEST(EventQueue, RunUntilAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&]() { ++fired; });
    eq.schedule(900, [&]() { ++fired; });
    eq.runUntil(500);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 500);
    eq.runUntil(1000);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int depth = 0;
    eq.schedule(1, [&]() {
        eq.scheduleAfter(1, [&]() {
            eq.scheduleAfter(1, [&]() { depth = 3; });
        });
    });
    eq.runUntil(10);
    EXPECT_EQ(depth, 3);
    EXPECT_EQ(eq.now(), 10);
}

// --- The pinned pop order -----------------------------------------
//
// A seeded branching process over one queue: each executed event
// folds (when, id) into an FNV-1a digest and schedules 0-3 children
// 0-7 ticks out, so simultaneous events are common and the FIFO
// tie-break decides most pops.  Captures alternate between inline
// and spilled, and one event schedules a burst of more than the
// queue's reserved capacity from inside its own body, so the
// backing storage grows while that callback is still running.
// fire() reads the id through a reference into the running
// callback's own capture, so a callback that the queue moved or
// overwrote under itself shows in the digest (or under ASan).

struct PopOrderRun
{
    static constexpr std::uint64_t budget = 200000; //!< events created
    static constexpr std::uint64_t burstAt = 5000;  //!< id that bursts
    static constexpr int burstSize = 1500;

    EventQueue eq;
    std::uint64_t rngState = 1987;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t created = 0;

    /** splitmix64: portable, unlike the std distributions. */
    std::uint64_t
    draw()
    {
        std::uint64_t z = (rngState += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    void
    fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    }

    void spawn();
    void fire(const std::uint64_t &id);
};

struct InlineFire
{
    PopOrderRun *run;
    std::uint64_t id;
    void operator()() const { run->fire(id); }
};

struct SpilledFire
{
    PopOrderRun *run;
    std::uint64_t id;
    unsigned char pad[72] = {};
    void operator()() const { run->fire(id); }
};

static_assert(sizeof(InlineFire) <= EventCallback::inlineCapacity);
static_assert(sizeof(SpilledFire) == 88);

void
PopOrderRun::spawn()
{
    const std::uint64_t r = draw();
    const std::uint64_t id = created++;
    const Tick delay = static_cast<Tick>(r & 7);
    // The bursting event stays inline, so its capture lives in the
    // queue's own storage rather than in a pool block.
    if ((r & 8) && id != burstAt)
        eq.scheduleAfter(delay, SpilledFire{this, id});
    else
        eq.scheduleAfter(delay, InlineFire{this, id});
}

void
PopOrderRun::fire(const std::uint64_t &id)
{
    fold(static_cast<std::uint64_t>(eq.now()));
    fold(id);
    if (id == burstAt) {
        for (int i = 0; i < burstSize; ++i)
            spawn();
        // Still running after the burst: the captured `this` and id
        // must have survived any growth of the queue's storage.
        fold(id);
        return;
    }
    // Mean 9/8 children: the population drifts up until the budget
    // runs out, then drains.
    static constexpr int children[8] = {0, 0, 0, 1, 1, 2, 2, 3};
    for (int n = children[draw() & 7]; n > 0 && created < budget; --n)
        spawn();
}

TEST(EventQueue, PopOrderIsPinned)
{
    // The unprofiled and profiled run loops must execute the same
    // sequence; both runOne() and runUntil() drive it.
    for (bool profiled : {false, true}) {
        SCOPED_TRACE(profiled ? "profiled" : "unprofiled");
        PopOrderRun run;
        obs::EngineProfiler prof;
        if (profiled) {
            prof.beginRun();
            run.eq.observe(obs::Sinks{.prof = &prof});
        }
        for (int i = 0; i < 64; ++i)
            run.spawn();
        for (int i = 0; i < 20000 && run.eq.runOne(); ++i) {}
        while (!run.eq.empty())
            run.eq.runUntil(run.eq.now() + 100);
        EXPECT_EQ(run.created, PopOrderRun::budget);
        EXPECT_EQ(run.eq.eventsRun(), 200000u);
        EXPECT_EQ(run.digest, 0xcb7d81c87159b897ull);
    }
}

TEST(Processor, RunsActivitySerially)
{
    EventQueue eq;
    Processor p(eq, "p");
    Tick done_a = 0, done_b = 0;
    Activity a;
    a.name = "a";
    a.processing = 100;
    a.onDone = [&]() { done_a = eq.now(); };
    Activity b;
    b.name = "b";
    b.processing = 50;
    b.onDone = [&]() { done_b = eq.now(); };
    p.submit(std::move(a));
    p.submit(std::move(b));
    eq.runUntil(1000);
    EXPECT_EQ(done_a, 100);
    EXPECT_EQ(done_b, 150);
    EXPECT_TRUE(p.idle());
}

TEST(Processor, MemoryAccessesAddBusTime)
{
    EventQueue eq;
    Resource bus(eq, "bus");
    Processor p(eq, "p");
    Tick done = 0;
    Activity a;
    a.name = "a";
    a.processing = usToTicks(100);
    a.memAccesses = 20;
    a.bus = &bus;
    a.onDone = [&]() { done = eq.now(); };
    p.submit(std::move(a));
    eq.runUntil(usToTicks(1000));
    // Uncontended: 100 us CPU + 20 us of memory cycles.
    EXPECT_EQ(done, usToTicks(120));
}

TEST(Processor, ContentionStretchesActivities)
{
    EventQueue eq;
    Resource bus(eq, "bus");
    Processor p1(eq, "p1"), p2(eq, "p2");
    Tick done1 = 0, done2 = 0;
    auto mk = [&](Tick *out) {
        Activity a;
        a.name = "x";
        a.processing = usToTicks(100);
        a.memAccesses = 100;
        a.bus = &bus;
        a.onDone = [&eq, out]() { *out = eq.now(); };
        return a;
    };
    p1.submit(mk(&done1));
    p2.submit(mk(&done2));
    eq.runUntil(usToTicks(10000));
    // Alone each would take 200 us; sharing the bus stretches both.
    EXPECT_GT(done1, usToTicks(200));
    EXPECT_GT(done2, usToTicks(200));
    EXPECT_LT(done1, usToTicks(310));
}

TEST(Processor, InterruptPreemptsAtChunkBoundary)
{
    EventQueue eq;
    Resource bus(eq, "bus");
    Processor p(eq, "p");
    Tick task_done = 0, intr_done = 0;

    Activity task;
    task.name = "task";
    task.processing = usToTicks(1000);
    task.memAccesses = 99; // 100 chunks of ~10 us
    task.bus = &bus;
    task.onDone = [&]() { task_done = eq.now(); };
    p.submit(std::move(task));

    eq.runUntil(usToTicks(50));
    Activity intr;
    intr.name = "intr";
    intr.processing = usToTicks(200);
    intr.priority = prioInterrupt;
    intr.onDone = [&]() { intr_done = eq.now(); };
    p.submit(std::move(intr));

    eq.runUntil(usToTicks(10000));
    // The interrupt finished long before the task despite arriving
    // while the task was running.
    EXPECT_LT(intr_done, usToTicks(300));
    EXPECT_GT(task_done, intr_done + usToTicks(700));
}

// --- Quiet bus runs, which the access loop runs in one go -----------
//
// The fixture's task: 100 us of CPU with 9 accesses, so ten 10-us
// chunks around 1-us accesses.  Uncontended, access k runs over
// [11k - 1, 11k) us and the task finishes at 109 us.

/** How a scenario drives its queue. */
enum class Drive
{
    CoStep,     //!< runUntil(), nothing recording
    Traced,     //!< runUntil() with a recording tracer: per access
    Decomposed, //!< runUntil() with a causal log only: per access
    Profiled,   //!< runUntil() with the engine profiler only
    Stepwise,   //!< runOne() loop: one event at a time, per access
};

/** Every drive; only CoStep and Profiled run access loops. */
constexpr Drive allDrives[] = {Drive::CoStep, Drive::Traced,
                               Drive::Decomposed, Drive::Profiled,
                               Drive::Stepwise};

struct QuietBus
{
    static constexpr long msg = 1; //!< the task's message id

    EventQueue eq;
    Resource bus{eq, "bus"};
    Processor p{eq, "p"};
    trace::Tracer tracer;
    trace::CausalLog causal;
    obs::EngineProfiler prof;
    obs::Sinks sinks; //!< the drive's sinks, for further components
    Tick taskDone = 0;

    explicit QuietBus(Drive d)
    {
        if (d == Drive::Traced) {
            tracer.setEnabled(true);
            sinks.tracer = &tracer;
        } else if (d == Drive::Decomposed) {
            causal.setEnabled(true);
            causal.start(msg, 0);
            sinks.causal = &causal;
        } else if (d == Drive::Profiled) {
            prof.beginRun();
            sinks.prof = &prof;
        }
        eq.observe(sinks);
        p.observe(sinks);
        bus.observe(sinks);
    }

    void
    submitTask()
    {
        Activity a;
        a.name = "task";
        a.processing = usToTicks(100);
        a.memAccesses = 9;
        a.bus = &bus;
        a.msgId = msg;
        a.onDone = [this]() { taskDone = eq.now(); };
        p.submit(std::move(a));
    }

    void
    run(Drive d, Tick end)
    {
        if (d == Drive::Stepwise)
            while (eq.runOne()) {}
        else
            eq.runUntil(end);
    }
};

TEST(FastForward, UncontendedActivityRunsInTwoEvents)
{
    for (Drive d : allDrives) {
        QuietBus s(d);
        s.submitTask();
        s.run(d, usToTicks(1000));
        SCOPED_TRACE(static_cast<int>(d));
        // The first chunk end starts an access loop that runs every
        // access; the second event is the finish.  Per access: 9 chunk
        // ends + 9 releases + finish.  The profiler records per event,
        // not per access, so it keeps the loop; the tracer and the
        // causal log do not.
        const bool fast = d == Drive::CoStep || d == Drive::Profiled;
        EXPECT_EQ(s.eq.eventsRun(), fast ? 2u : 19u);
        if (d == Drive::Profiled) {
            // The profiled loop is the bare one: it pushes the first
            // chunk end and the finish, and consumes one step key,
            // running every access after it in place.
            EXPECT_EQ(s.prof.profile().pushes, 2u);
            EXPECT_EQ(s.prof.profile().coStep.steps, 1u);
        }
        EXPECT_EQ(s.taskDone, usToTicks(109));
        EXPECT_EQ(s.p.busyTime(), usToTicks(109));
        EXPECT_EQ(s.p.activityTicks().at("task"), usToTicks(109));
        EXPECT_EQ(s.bus.busyTime(), usToTicks(9));
        EXPECT_TRUE(s.p.idle());
        EXPECT_TRUE(s.bus.quiet());
        if (d == Drive::Decomposed) {
            // Access k is the message's service on the bus over
            // [11k - 1, 11k) us.
            std::vector<std::pair<Tick, Tick>> accesses;
            for (const trace::PathInterval &iv :
                 s.causal.records().at(QuietBus::msg).intervals) {
                if (iv.resource == "bus" &&
                    iv.comp == trace::Component::Service)
                    accesses.emplace_back(iv.begin, iv.end);
            }
            ASSERT_EQ(accesses.size(), 9u);
            for (int k = 1; k <= 9; ++k)
                EXPECT_EQ(accesses[static_cast<std::size_t>(k - 1)],
                          std::make_pair(usToTicks(11 * k - 1),
                                         usToTicks(11 * k)));
        }
    }
}

TEST(FastForward, EventPendingAtAReleaseInstantStillWinsTheBus)
{
    // Another master starts at 13.5 us: 25.5 us of CPU around 2
    // accesses, so 8.5-us chunks.  Its first chunk end, at exactly the
    // task's second release instant (22 us), was scheduled before that
    // release (at 21 us), so it runs first, queues, and is granted at
    // the release: [22, 23).  Its next chunk end, at 31.5 us, takes
    // the idle bus until 32.5 us, so the task's third access (chunk
    // end at 32 us) waits until then, which pushes every later access
    // and the task's finish out by 0.5 us.  The other master's tail
    // chunk runs 32.5..41 us.
    for (Drive d : allDrives) {
        QuietBus s(d);
        Processor other(s.eq, "other");
        other.observe(s.sinks);
        Tick otherDone = -1;
        s.eq.schedule(usToTicks(13.5), [&]() {
            Activity a;
            a.name = "other";
            a.processing = usToTicks(25.5);
            a.memAccesses = 2;
            a.bus = &s.bus;
            a.onDone = [&]() { otherDone = s.eq.now(); };
            other.submit(std::move(a));
        });
        s.submitTask();
        s.run(d, usToTicks(1000));
        SCOPED_TRACE(static_cast<int>(d));
        EXPECT_EQ(otherDone, usToTicks(41));
        EXPECT_EQ(s.taskDone, usToTicks(109.5));
        EXPECT_EQ(s.bus.busyTime(), usToTicks(9 + 2));
        EXPECT_EQ(s.p.activityTicks().at("task"), usToTicks(109));
        EXPECT_EQ(other.activityTicks().at("other"), usToTicks(27.5));
    }
}

TEST(FastForward, EventPendingAtAReleaseInstantStillPreempts)
{
    // An interrupt submitted at exactly the second release instant
    // takes the processor at that boundary: it runs 22..72 us, and the
    // task's remaining 8 chunks and 7 accesses follow, to 159 us.
    for (Drive d : allDrives) {
        QuietBus s(d);
        Tick intrDone = 0;
        s.eq.schedule(usToTicks(22), [&]() {
            Activity intr;
            intr.name = "intr";
            intr.processing = usToTicks(50);
            intr.priority = prioInterrupt;
            intr.onDone = [&]() { intrDone = s.eq.now(); };
            s.p.submit(std::move(intr));
        });
        s.submitTask();
        s.run(d, usToTicks(1000));
        SCOPED_TRACE(static_cast<int>(d));
        EXPECT_EQ(intrDone, usToTicks(72));
        EXPECT_EQ(s.taskDone, usToTicks(159));
        EXPECT_EQ(s.p.activityTicks().at("task"), usToTicks(109));
        EXPECT_EQ(s.p.activityTicks().at("intr"), usToTicks(50));
    }
}

TEST(FastForward, RunUntilBoundSeesThePerAccessState)
{
    // Bounds inside an access, at a release instant, and inside a
    // chunk.  At the bound the chunk or access in flight is booked in
    // activityTicks() but excluded from busyTime().
    struct Expect
    {
        double boundUs;
        double procBusyUs; //!< busyTime(): 100% busy up to the bound
        double bookedUs;   //!< activityTicks(): through the charge in flight
        double busBusyUs;
    };
    const Expect cases[] = {
        {21.5, 21.5, 22, 1.5}, // second access in flight
        {22, 22, 32, 2},       // at its release: the next chunk booked
        {25, 25, 32, 2},       // inside the third chunk
        {54.5, 54.5, 55, 4.5}, // inside the fifth access
    };
    for (const Expect &c : cases) {
        for (Drive d : {Drive::CoStep, Drive::Traced,
                        Drive::Decomposed, Drive::Profiled}) {
            QuietBus s(d);
            s.submitTask();
            const Tick bound = usToTicks(c.boundUs);
            s.eq.runUntil(bound);
            SCOPED_TRACE(std::to_string(c.boundUs) + " us, drive " +
                         std::to_string(static_cast<int>(d)));
            EXPECT_EQ(s.p.busyTime(), usToTicks(c.procBusyUs));
            EXPECT_EQ(s.p.activityTicks().at("task"),
                      usToTicks(c.bookedUs));
            EXPECT_EQ(s.bus.busyTime(), usToTicks(c.busBusyUs));
            EXPECT_DOUBLE_EQ(s.p.utilization(), 1.0);
            EXPECT_DOUBLE_EQ(s.bus.utilization(),
                             c.busBusyUs / c.boundUs);
            // Resuming past the bound ends exactly as one long run.
            s.eq.runUntil(usToTicks(1000));
            EXPECT_EQ(s.taskDone, usToTicks(109));
            EXPECT_EQ(s.bus.busyTime(), usToTicks(9));
        }
    }
}

TEST(FastForward, ArchIVStillAlternatesBusPartitions)
{
    // 3 accesses on one partition and 2 on the other, 10-us chunks:
    // the order is A A B A B, releasing at 11, 22, 33, 44, 55 us.  A
    // bound at each release shows the partitions' busy time step by
    // step, whether the run reaches it in one access loop or several.
    for (Drive d : {Drive::CoStep, Drive::Traced}) {
        for (const std::vector<int> &bounds :
             {std::vector<int>{11, 22, 33, 44, 55},
              std::vector<int>{33, 55}, std::vector<int>{55}}) {
            EventQueue eq;
            Resource busA(eq, "busTcb"), busB(eq, "busKb");
            Processor p(eq, "mp");
            trace::Tracer tracer;
            if (d == Drive::Traced) {
                tracer.setEnabled(true);
                const obs::Sinks sinks{&tracer};
                eq.observe(sinks);
                p.observe(sinks);
                busA.observe(sinks);
                busB.observe(sinks);
            }
            Activity a;
            a.name = "split";
            a.processing = usToTicks(60);
            a.memAccesses = 3;
            a.bus = &busA;
            a.memAccesses2 = 2;
            a.bus2 = &busB;
            p.submit(std::move(a));
            const std::map<int, std::pair<int, int>> expectUs = {
                {11, {1, 0}}, {22, {2, 0}}, {33, {2, 1}},
                {44, {3, 1}}, {55, {3, 2}}};
            for (int b : bounds) {
                eq.runUntil(usToTicks(b));
                SCOPED_TRACE(std::to_string(b) + " us");
                EXPECT_EQ(busA.busyTime(),
                          usToTicks(expectUs.at(b).first));
                EXPECT_EQ(busB.busyTime(),
                          usToTicks(expectUs.at(b).second));
            }
            eq.runUntil(usToTicks(1000));
            EXPECT_EQ(p.activityTicks().at("split"), usToTicks(65));
            EXPECT_TRUE(p.idle());
        }
    }

    // And through the kernel simulator: an Arch-IV run's outcome is
    // identical with the per-access path forced by a tracer.
    Experiment e;
    e.arch = Arch::IV;
    e.local = true;
    e.conversations = 3;
    e.computeUs = 570;
    e.measureUs = 300000;
    trace::Tracer tracer;
    tracer.setEnabled(true);
    EXPECT_EQ(outcomeJson(runExperiment(e)),
              outcomeJson(runExperiment(e, &tracer, nullptr)));
}

// --- Co-stepping access loops ----------------------------------------
//
// Each scenario runs under Drive::Stepwise (runOne(): one event at a
// time, per access), Drive::Traced (runUntil(), per access) and the
// drives that run access loops (CoStep, Profiled), and must leave the
// same history: the finish order and times, and every processor's
// and bus's busy time, queue length and per-activity ticks at each
// runUntil() bound and at the end.

/** A co-step scenario's world: buses and processors on one queue. */
struct CoStepRig
{
    EventQueue eq;
    std::deque<Resource> buses;
    std::deque<Processor> procs;
    trace::Tracer tracer;
    obs::EngineProfiler prof;
    std::vector<std::pair<std::string, Tick>> finishes;

    Resource &
    bus(const std::string &name)
    {
        return buses.emplace_back(eq, name);
    }

    Processor &
    proc(const std::string &name)
    {
        return procs.emplace_back(eq, name);
    }

    /** Attach @p d's sinks; call once every component is built. */
    void
    observe(Drive d)
    {
        obs::Sinks sinks;
        if (d == Drive::Traced) {
            tracer.setEnabled(true);
            sinks.tracer = &tracer;
        } else if (d == Drive::Profiled) {
            prof.beginRun();
            sinks.prof = &prof;
        }
        eq.observe(sinks);
        for (Resource &b : buses)
            b.observe(sinks);
        for (Processor &p : procs)
            p.observe(sinks);
    }

    /** Submit @p name: @p cpuUs of CPU around @p accesses on @p b. */
    void
    submit(Processor &p, const std::string &name, double cpuUs,
           int accesses, Resource *b, int priority = prioTask,
           int accesses2 = 0, Resource *b2 = nullptr)
    {
        Activity a;
        a.name = name;
        a.processing = usToTicks(cpuUs);
        a.memAccesses = accesses;
        a.bus = b;
        a.memAccesses2 = accesses2;
        a.bus2 = b2;
        a.priority = priority;
        a.onDone = [this, name]() {
            finishes.emplace_back(name, eq.now());
        };
        p.submit(std::move(a));
    }

    /** Submit at @p atUs, from an event of its own. */
    void
    submitAt(double atUs, Processor &p, const std::string &name,
             double cpuUs, int accesses, Resource *b,
             int priority = prioTask)
    {
        eq.schedule(usToTicks(atUs), [=, this, &p]() {
            submit(p, name, cpuUs, accesses, b, priority);
        });
    }

    /**
     * Record @p label at @p atUs, from an event of its own, with the
     * ticks @p p had booked by then (a charge books the chunk or the
     * access it starts in full): a step event at the same tick shows
     * by whether it ran first.
     */
    void
    markAt(double atUs, const Processor &p, const std::string &label)
    {
        eq.schedule(usToTicks(atUs), [=, this, &p]() {
            Tick booked = 0;
            for (const auto &[name, t] : p.activityTicks())
                booked += t;
            finishes.emplace_back(label + " saw " + std::to_string(booked),
                                  eq.now());
        });
    }

    /** Everything a bound can see; @p withSpan adds utilization. */
    std::vector<double>
    state(bool withSpan) const
    {
        std::vector<double> v;
        for (const Resource &b : buses) {
            v.push_back(static_cast<double>(b.busyTime()));
            v.push_back(static_cast<double>(b.queueLength()));
            if (withSpan)
                v.push_back(b.utilization());
        }
        for (const Processor &p : procs) {
            v.push_back(static_cast<double>(p.busyTime()));
            v.push_back(p.idle() ? 1 : 0);
            for (const auto &[name, t] : p.activityTicks())
                v.push_back(static_cast<double>(t));
            if (withSpan)
                v.push_back(p.utilization());
        }
        return v;
    }
};

/** What a scenario run leaves behind. */
struct CoStepHistory
{
    std::vector<std::pair<std::string, Tick>> finishes;
    std::vector<std::vector<double>> atBounds; //!< runUntil() drives
    std::vector<double> atEnd;
    std::uint64_t events = 0;
};

using CoStepScenario = std::function<void(CoStepRig &, Drive)>;

CoStepHistory
runCoStep(const CoStepScenario &setup, Drive d,
          const std::vector<double> &boundsUs)
{
    CoStepRig r;
    setup(r, d);
    CoStepHistory h;
    if (d == Drive::Stepwise) {
        while (r.eq.runOne()) {}
    } else {
        for (double b : boundsUs) {
            r.eq.runUntil(usToTicks(b));
            h.atBounds.push_back(r.state(true));
        }
        r.eq.runUntil(usToTicks(100000));
    }
    h.finishes = r.finishes;
    h.atEnd = r.state(false);
    h.events = r.eq.eventsRun();
    if (d == Drive::Profiled) {
        r.prof.finishRun(r.eq.size());
        const obs::EngineProfile &p = r.prof.profile();
        EXPECT_EQ(p.pushes, p.pops + (p.coStep.steps - p.coStep.loops) +
                                p.remainingAtEnd);
        EXPECT_EQ(p.coStep.loops, p.coStep.stopNonAccess +
                                      p.coStep.stopBound +
                                      p.coStep.stopDrained);
    }
    return h;
}

/**
 * Run @p setup under every drive and expect one history; returns the
 * co-stepped run's.
 */
CoStepHistory
expectCoStepExact(const CoStepScenario &setup,
                  const std::vector<double> &boundsUs = {})
{
    const CoStepHistory ref = runCoStep(setup, Drive::Stepwise, {});
    const CoStepHistory traced = runCoStep(setup, Drive::Traced, boundsUs);
    EXPECT_EQ(traced.finishes, ref.finishes);
    EXPECT_EQ(traced.atEnd, ref.atEnd);
    CoStepHistory out;
    for (Drive d : {Drive::CoStep, Drive::Profiled}) {
        SCOPED_TRACE(d == Drive::CoStep ? "co-stepped" : "profiled");
        const CoStepHistory h = runCoStep(setup, d, boundsUs);
        EXPECT_EQ(h.finishes, ref.finishes);
        EXPECT_EQ(h.atEnd, ref.atEnd);
        EXPECT_EQ(h.atBounds, traced.atBounds);
        // Fewer events: the loop ran the accesses as steps.
        EXPECT_LT(h.events, ref.events);
        if (d == Drive::CoStep)
            out = h;
    }
    return out;
}

/** The finish time of @p name in @p h. */
Tick
finishOf(const CoStepHistory &h, const std::string &name)
{
    for (const auto &[n, t] : h.finishes)
        if (n == name)
            return t;
    ADD_FAILURE() << name << " never finished";
    return -1;
}

// --- Bus grants, with processors as the bus masters ------------------
//
// Each master runs one activity of zero CPU around its accesses, so its
// chunk ends fall at the instant it starts and at each of its releases.

using Finishes = std::vector<std::pair<std::string, Tick>>;

TEST(Resource, SerializesHolders)
{
    // Three masters ask at t = 0; each holds the bus for one access.
    const CoStepHistory h = expectCoStepExact(
        [](CoStepRig &r, Drive d) {
            Resource &bus = r.bus("bus");
            Processor &a = r.proc("a"), &b = r.proc("b"), &c = r.proc("c");
            r.observe(d);
            r.submit(a, "a", 0, 1, &bus);
            r.submit(b, "b", 0, 1, &bus);
            r.submit(c, "c", 0, 1, &bus);
        },
        {10});
    EXPECT_EQ(h.finishes, (Finishes{{"a", usToTicks(1)},
                                    {"b", usToTicks(2)},
                                    {"c", usToTicks(3)}}));
    EXPECT_NEAR(h.atBounds.at(0).at(2), 0.3, 1e-9); // bus utilization
}

TEST(Resource, PriorityJumpsQueue)
{
    const CoStepHistory h = expectCoStepExact([](CoStepRig &r, Drive d) {
        Resource &bus = r.bus("bus");
        Processor &p0 = r.proc("0"), &p1 = r.proc("1"), &p2 = r.proc("2");
        r.observe(d);
        r.submit(p0, "0", 0, 1, &bus);
        r.submit(p1, "1", 0, 1, &bus);
        r.submit(p2, "2", 0, 1, &bus, prioInterrupt); // urgent
    });
    // Master 0 was already granted; the urgent request overtakes 1.
    EXPECT_EQ(h.finishes, (Finishes{{"0", usToTicks(1)},
                                    {"2", usToTicks(2)},
                                    {"1", usToTicks(3)}}));
}

TEST(Resource, ReacquireFromReleaseContinuation)
{
    // "first" makes two accesses around a zero-length chunk, so its
    // second request is a chunk-end step at its first release instant.
    // The release grants the bus before that step runs: alone, "first"
    // finds it free again; behind a waiter it queues like any request,
    // even when more urgent, and its priority counts from the next
    // release on.
    struct Case
    {
        const char *label;
        int priority;
        int waiters;
        Finishes expect;
    };
    const Case cases[] = {
        {"alone", prioTask, 0, {{"first", usToTicks(2)}}},
        {"behind a waiter", prioTask, 1,
         {{"w1", usToTicks(2)}, {"first", usToTicks(3)}}},
        {"urgent, behind a waiter", prioInterrupt, 1,
         {{"w1", usToTicks(2)}, {"first", usToTicks(3)}}},
        {"urgent, ahead of the second waiter", prioInterrupt, 2,
         {{"w1", usToTicks(2)},
          {"first", usToTicks(3)},
          {"w2", usToTicks(4)}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        const CoStepHistory h =
            expectCoStepExact([&c](CoStepRig &r, Drive d) {
                Resource &bus = r.bus("bus");
                Processor &first = r.proc("first");
                std::vector<Processor *> waiters;
                for (int w = 1; w <= c.waiters; ++w)
                    waiters.push_back(&r.proc("w" + std::to_string(w)));
                r.observe(d);
                r.submit(first, "first", 0, 2, &bus, c.priority);
                for (Processor *w : waiters)
                    r.submit(*w, w->processorName(), 0, 1, &bus);
            });
        EXPECT_EQ(h.finishes, c.expect);
        // The bus's busy time, then its queue length, at the end.
        EXPECT_EQ(h.atEnd.at(0),
                  static_cast<double>(usToTicks(2 + c.waiters)));
        EXPECT_EQ(h.atEnd.at(1), 0.0);
    }
}

TEST(Resource, IdleGrantRecordsSameIntervals)
{
    // Message 1 is granted on an idle bus at t = 0; message 2 asks at
    // t = 0 too, queues behind it and is granted at its release.  Both
    // grants leave the same records: a "queued" sample of the queue
    // with the request in it, an access span and a sample of what is
    // left at the grant, and a Queue interval (the wait) then a
    // Service interval (the hold).  Only the bus records.
    EventQueue eq;
    Resource bus(eq, "bus");
    std::deque<Processor> masters;
    trace::Tracer tracer;
    tracer.setEnabled(true);
    trace::CausalLog causal;
    causal.setEnabled(true);
    causal.start(1, 0);
    causal.start(2, 0);
    obs::Sinks sinks;
    sinks.tracer = &tracer;
    sinks.causal = &causal;
    eq.observe(sinks);
    bus.observe(sinks);
    for (long msg : {1, 2}) {
        Activity a;
        a.name = "access";
        a.memAccesses = 1;
        a.bus = &bus;
        a.msgId = msg;
        masters.emplace_back(eq, "m" + std::to_string(msg))
            .submit(std::move(a));
    }
    eq.runUntil(usToTicks(10));

    using Sample =
        std::tuple<trace::Phase, std::string, Tick, Tick, double, long>;
    std::vector<Sample> samples;
    for (const trace::Event &e : tracer.events())
        samples.emplace_back(e.phase, e.name, e.start, e.duration,
                             e.value, e.id);
    using trace::Phase;
    const Tick us = usToTicks(1);
    const std::vector<Sample> expect = {
        {Phase::Counter, "queued", 0, 0, 1, 0},    // message 1 asks
        {Phase::Complete, "access", 0, us, 0, 1},  // granted at once
        {Phase::Counter, "queued", 0, 0, 0, 0},
        {Phase::Counter, "queued", 0, 0, 1, 0},    // message 2 queues
        {Phase::Complete, "access", us, us, 0, 2}, // granted at release
        {Phase::Counter, "queued", us, 0, 0, 0},
    };
    EXPECT_EQ(samples, expect);

    const auto intervals = [&](long msg) {
        std::vector<std::pair<trace::Component, std::pair<Tick, Tick>>>
            out;
        for (const trace::PathInterval &i :
             causal.records().at(msg).intervals) {
            EXPECT_EQ(i.resource, "bus");
            out.push_back({i.comp, {i.begin, i.end}});
        }
        return out;
    };
    using trace::Component;
    // Message 1's wait is empty, and the log keeps no empty interval.
    EXPECT_EQ(intervals(1),
              (std::vector<std::pair<Component, std::pair<Tick, Tick>>>{
                  {Component::Service, {0, us}}}));
    EXPECT_EQ(intervals(2),
              (std::vector<std::pair<Component, std::pair<Tick, Tick>>>{
                  {Component::Queue, {0, us}},
                  {Component::Service, {us, 2 * us}}}));
}

TEST(CoStep, TwoAndThreeProcessorsOnOneBus)
{
    for (int n : {2, 3}) {
        SCOPED_TRACE(std::to_string(n) + " processors");
        expectCoStepExact([n](CoStepRig &r, Drive d) {
            Resource &bus = r.bus("bus");
            Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
            Processor &p3 = r.proc("p3");
            r.observe(d);
            r.submit(p1, "a", 100, 10, &bus);
            r.submit(p2, "b", 50, 7, &bus);
            if (n == 3)
                r.submit(p3, "c", 30, 5, &bus);
        });
    }
}

TEST(CoStep, ContendedRunsInAHandfulOfEvents)
{
    // Three processors on one bus, 22 accesses between them: per
    // access 44 chunk ends and releases plus 3 finishes.  Co-stepped,
    // the first chunk end starts a loop that runs every access; the
    // finishes stop it, and the loop after the first finish runs to
    // the end.  A co-step that quietly never started would run 47.
    const CoStepHistory h = expectCoStepExact([](CoStepRig &r, Drive d) {
        Resource &bus = r.bus("bus");
        Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
        Processor &p3 = r.proc("p3");
        r.observe(d);
        r.submit(p1, "a", 100, 10, &bus);
        r.submit(p2, "b", 50, 7, &bus);
        r.submit(p3, "c", 30, 5, &bus);
    });
    EXPECT_EQ(h.events, 6u);
}

TEST(CoStep, TwoNodesBusesAtOnce)
{
    expectCoStepExact(
        [](CoStepRig &r, Drive d) {
            Resource &busA = r.bus("n0.bus"), &busB = r.bus("n1.bus");
            Processor &a1 = r.proc("n0.p1"), &a2 = r.proc("n0.p2");
            Processor &b1 = r.proc("n1.p1"), &b2 = r.proc("n1.p2");
            r.observe(d);
            r.submit(a1, "a1", 80, 9, &busA);
            r.submit(b1, "b1", 60, 11, &busB);
            r.submit(a2, "a2", 45, 6, &busA);
            r.submit(b2, "b2", 70, 4, &busB);
            // A non-access event on one node ends the loop for both.
            r.submitAt(33.3, a1, "a1.late", 20, 3, &busA);
        },
        {17, 41.5, 63});
}

TEST(CoStep, ChunkEndsAtTheSameTick)
{
    // Identical activities: every chunk end of p2 falls on a tick of
    // p1's, and the older seq goes first.
    expectCoStepExact([](CoStepRig &r, Drive d) {
        Resource &bus = r.bus("bus");
        Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
        r.observe(d);
        r.submit(p2, "second", 40, 8, &bus);
        r.submit(p1, "first", 40, 8, &bus);
    });
}

TEST(CoStep, ChunkEndAtAReleaseInstantInBothSeqOrders)
{
    // p1's first access holds the bus over [10, 11) us.  p2's chunk
    // end lands at exactly 11 us.  Scheduled at submit (t = 0), its
    // seq is older than the release's (drawn at 10 us): it queues and
    // is granted at the release.  Started at 10.5 us, it is younger:
    // the release runs first and it finds the bus free.
    for (double startUs : {0.0, 10.5}) {
        SCOPED_TRACE("p2 starts at " + std::to_string(startUs));
        const double chunkUs = 11 - startUs;
        const CoStepHistory h = expectCoStepExact(
            [=](CoStepRig &r, Drive d) {
                Resource &bus = r.bus("bus");
                Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
                r.observe(d);
                r.submit(p1, "p1", 30, 2, &bus);
                if (startUs == 0)
                    r.submit(p2, "p2", 2 * chunkUs, 1, &bus);
                else
                    r.submitAt(startUs, p2, "p2", 2 * chunkUs, 1, &bus);
            },
            {11, 12});
        // Either way p2's access is granted at 11 us; p1's second
        // access (its chunk end at 21 us) never waits.
        EXPECT_EQ(finishOf(h, "p2"), usToTicks(11 + 1 + chunkUs));
        EXPECT_EQ(finishOf(h, "p1"), usToTicks(32));
    }
}

TEST(CoStep, StepAndCallbackAtOneTickInBothSeqOrders)
{
    // p runs 8 us of CPU around 3 accesses on an idle bus: chunks of
    // 2 us, so a release at 3 us (its seq drawn at the chunk end at
    // 2 us) and a chunk end at 5 us (drawn at that release).  A mark
    // at the same tick is a callback event in the other pending set.
    // Scheduled at the start its seq is older and it runs first;
    // scheduled from an event half a microsecond before, younger, and
    // the step runs first.  What p had booked shows which ran first:
    // the release books the 2-us chunk after it, the chunk end its
    // 1-us access.
    struct Case
    {
        const char *label;
        double atUs;
        bool stepFirst;
        double sawUs;
    };
    const Case cases[] = {
        {"callback, then release", 3, false, 3},
        {"release, then callback", 3, true, 5},
        {"callback, then chunk end", 5, false, 5},
        {"chunk end, then callback", 5, true, 6},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        const CoStepHistory h = expectCoStepExact(
            [&c](CoStepRig &r, Drive d) {
                Resource &bus = r.bus("bus");
                Processor &p = r.proc("p");
                r.observe(d);
                r.submit(p, "a", 8, 3, &bus);
                if (!c.stepFirst)
                    r.markAt(c.atUs, p, "mark");
                else
                    r.eq.schedule(usToTicks(c.atUs - 0.5), [&r, &c, &p]() {
                        r.markAt(c.atUs, p, "mark");
                    });
            },
            {c.atUs});
        EXPECT_EQ(h.finishes,
                  (Finishes{{"mark saw " +
                                 std::to_string(usToTicks(c.sawUs)),
                             usToTicks(c.atUs)},
                            {"a", usToTicks(11)}}));
    }
}

TEST(CoStep, LoopStopsAtACallbackWithSeveralBusesStepsPending)
{
    // Three buses with two contending processors each.  Every mark is
    // a callback event among their accesses: the loop stops at it with
    // chunk ends and releases of all three buses pending in the step
    // heap, and the next loop resumes from them.  Each mark records
    // what one processor had booked by then.
    const CoStepHistory h = expectCoStepExact(
        [](CoStepRig &r, Drive d) {
            std::vector<std::pair<Processor *, Resource *>> masters;
            for (int b = 0; b < 3; ++b) {
                const std::string node = "n" + std::to_string(b);
                Resource &bus = r.bus(node + ".bus");
                masters.emplace_back(&r.proc(node + ".p1"), &bus);
                masters.emplace_back(&r.proc(node + ".p2"), &bus);
            }
            r.observe(d);
            for (std::size_t i = 0; i < masters.size(); ++i) {
                auto [p, bus] = masters[i];
                r.submit(*p, p->processorName(), 40 + 7.5 * i,
                         9 + static_cast<int>(i), bus);
            }
            for (double t : {6.0, 13.7, 29.0, 41.25})
                for (auto [p, bus] : masters)
                    r.markAt(t, *p,
                             p->processorName() + "@" + std::to_string(t));
        },
        {20, 45});
    EXPECT_EQ(h.finishes.size(), 6u + 4u * 6u);
}

TEST(CoStep, InterruptWaiterOvertakesAnEarlierTaskWaiter)
{
    // p1 holds the bus over [10, 11) us; a task on p2 asks at 10.2 us
    // and an interrupt on p3 at 10.5 us.  At the release the
    // interrupt is granted first, then the task.
    const CoStepHistory h = expectCoStepExact(
        [](CoStepRig &r, Drive d) {
            Resource &bus = r.bus("bus");
            Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
            Processor &p3 = r.proc("p3");
            r.observe(d);
            r.submit(p1, "holder", 20, 1, &bus);
            r.submit(p2, "task", 20.4, 1, &bus);
            r.submit(p3, "intr", 21, 1, &bus, prioInterrupt);
        },
        {10.7, 11.5, 12.5});
    EXPECT_EQ(finishOf(h, "intr"), usToTicks(12 + 10.5));
    EXPECT_EQ(finishOf(h, "task"), usToTicks(13 + 10.2));
}

TEST(CoStep, QueuedInterruptPreemptsAtABoundary)
{
    // An interrupt with accesses of its own is submitted to p1 mid-run
    // and takes it at the next boundary, while p2 keeps the bus busy.
    expectCoStepExact(
        [](CoStepRig &r, Drive d) {
            Resource &bus = r.bus("bus");
            Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
            r.observe(d);
            r.submit(p1, "task", 100, 9, &bus);
            r.submit(p2, "sibling", 90, 12, &bus);
            r.submitAt(25.5, p1, "intr", 30, 4, &bus, prioInterrupt);
        },
        {26, 40, 80});
}

TEST(CoStep, ZeroProcessingFinishesOnItsLastRelease)
{
    // No CPU at all: three back-to-back accesses, so every chunk end
    // falls on the tick of a release and the finish on the last one.
    const CoStepHistory h = expectCoStepExact([](CoStepRig &r, Drive d) {
        Resource &bus = r.bus("bus");
        Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
        r.observe(d);
        r.submit(p1, "empty", 0, 3, &bus);
        r.submit(p2, "sibling", 12, 3, &bus);
    });
    EXPECT_EQ(finishOf(h, "empty"), usToTicks(3));
}

TEST(CoStep, ArchIVActivityBesideASiblingOnOnePartition)
{
    // The MP alternates between its two partitions; a host contends
    // with it on the first.
    expectCoStepExact(
        [](CoStepRig &r, Drive d) {
            Resource &tcb = r.bus("busTcb"), &kb = r.bus("busKb");
            Processor &mp = r.proc("mp"), &host = r.proc("host");
            r.observe(d);
            r.submit(mp, "split", 60, 3, &tcb, prioTask, 2, &kb);
            r.submit(host, "user", 33, 5, &tcb);
        },
        {11, 22, 33, 44});
}

TEST(CoStep, RunUntilBoundsInsideAContendedRun)
{
    // Bounds inside accesses, at release instants and inside chunks
    // of three contending processors.
    std::vector<double> bounds;
    for (double b = 0.5; b < 130; b += 3.3)
        bounds.push_back(b);
    bounds.push_back(131);
    expectCoStepExact(
        [](CoStepRig &r, Drive d) {
            Resource &bus = r.bus("bus");
            Processor &p1 = r.proc("p1"), &p2 = r.proc("p2");
            Processor &p3 = r.proc("p3");
            r.observe(d);
            r.submit(p1, "a", 100, 10, &bus);
            r.submit(p2, "b", 50, 7, &bus);
            r.submit(p3, "c", 30, 5, &bus, prioInterrupt);
        },
        bounds);
}

TEST(CoStepDeathTest, RecorderOnAnUntoldQueueIsAWiringError)
{
    // A processor and a bus given a tracer on a queue that was not
    // told would co-step, and the steps in place would drop their
    // grant records: the first loop stops the run instead.
    const auto untold = []() {
        EventQueue eq;
        Resource bus(eq, "bus");
        Processor p(eq, "p");
        trace::Tracer tracer;
        tracer.setEnabled(true);
        const obs::Sinks sinks{&tracer};
        p.observe(sinks);
        bus.observe(sinks);
        Activity a;
        a.name = "task";
        a.processing = usToTicks(10);
        a.memAccesses = 1;
        a.bus = &bus;
        p.submit(std::move(a));
        eq.runUntil(usToTicks(100));
    };
    EXPECT_DEATH(untold(), "perAccess");
}

TEST(Processor, QueuedButNeverStartedActivityBooksNoTicks)
{
    // The per-activity slot is taken on the first charge, not at
    // submit: a queued activity that never runs has no entry.
    EventQueue eq;
    Processor p(eq, "p");
    Activity a;
    a.name = "first";
    a.processing = usToTicks(100);
    p.submit(std::move(a));
    Activity b;
    b.name = "second";
    b.processing = usToTicks(10);
    p.submit(std::move(b));
    eq.runUntil(usToTicks(50));
    EXPECT_EQ(p.activityTicks().count("second"), 0u);
}

TEST(Processor, SubmitKeepsPriorityOrderFcfsWithinAClass)
{
    EventQueue eq;
    Processor p(eq, "p");
    std::vector<std::string> order;
    auto submit = [&](const std::string &name, int prio) {
        Activity a;
        a.name = name;
        a.processing = usToTicks(10);
        a.priority = prio;
        a.onDone = [&order, name]() { order.push_back(name); };
        p.submit(std::move(a));
    };
    submit("t0", prioTask); // starts at once
    submit("t1", prioTask);
    submit("i0", prioInterrupt);
    submit("t2", prioTask);
    submit("i1", prioInterrupt);
    eq.runUntil(usToTicks(1000));
    EXPECT_EQ(order, (std::vector<std::string>{"t0", "i0", "i1", "t1",
                                               "t2"}));
}

TEST(Costs, DerivedFromStepTables)
{
    const IpcCosts c1 = ipcCosts(Arch::I, true);
    EXPECT_FALSE(c1.coproc);
    EXPECT_DOUBLE_EQ(c1.sendSyscall.procUs, 1040);
    EXPECT_EQ(c1.sendSyscall.tcb, 150);
    EXPECT_FALSE(c1.processSend.valid());

    const IpcCosts c2 = ipcCosts(Arch::II, false);
    EXPECT_TRUE(c2.coproc);
    EXPECT_DOUBLE_EQ(c2.processSend.procUs, 1000);
    EXPECT_DOUBLE_EQ(c2.match.procUs, 1650);
    EXPECT_DOUBLE_EQ(c2.dmaInReq.procUs, 200);

    const IpcCosts c4 = ipcCosts(Arch::IV, false);
    EXPECT_EQ(c4.processSend.kb, 50);
    EXPECT_EQ(c4.processSend.tcb, 21);
}

TEST(IpcSim, SingleLocalConversationMatchesHandAnalysis)
{
    // Arch I, one local conversation, X=0: the round trip is the
    // serialized 4970 us of Table 6.4.
    Experiment e;
    e.arch = Arch::I;
    e.local = true;
    e.conversations = 1;
    e.computeUs = 0;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 100);
    EXPECT_NEAR(o.meanRoundTripUs, 4970.0, 4970.0 * 0.02);
    EXPECT_NEAR(o.throughputPerSec, 1e6 / 4970.0, 1e6 / 4970.0 * 0.02);
}

TEST(IpcSim, ComputeTimeSlowsThroughput)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = true;
    e.conversations = 2;
    e.computeUs = 0;
    const double t0 = runExperiment(e).throughputPerSec;
    e.computeUs = 5700;
    const double t1 = runExperiment(e).throughputPerSec;
    EXPECT_LT(t1, t0 * 0.8);
}

TEST(IpcSim, CoprocessorHelpsUnderManyConversations)
{
    Experiment e;
    e.local = true;
    e.conversations = 4;
    e.computeUs = 2850;
    e.arch = Arch::I;
    const double uni = runExperiment(e).throughputPerSec;
    e.arch = Arch::II;
    const double cop = runExperiment(e).throughputPerSec;
    e.arch = Arch::III;
    const double smart = runExperiment(e).throughputPerSec;
    EXPECT_GT(cop, uni * 1.1);
    EXPECT_GT(smart, cop);
}

TEST(IpcSim, NonlocalConversationCompletes)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 50);
    EXPECT_GT(o.throughputPerSec, 0);
    // Round trip must exceed the sum of client-side work.
    EXPECT_GT(o.meanRoundTripUs, 3000);
}

TEST(IpcSim, AgreesWithGtpnModelLocal)
{
    // The model-vs-simulation comparison at the heart of Fig 6.15:
    // for local arch II the two should land within ~15%.
    Experiment e;
    e.arch = Arch::II;
    e.local = true;
    e.conversations = 2;
    e.computeUs = 1140;
    const Outcome o = runExperiment(e);

    const models::LocalSolution m =
        models::solveLocal(Arch::II, 2, 1140.0);
    const double model = m.throughputPerUs * 1e6;
    EXPECT_NEAR(o.throughputPerSec, model, model * 0.15);
}

TEST(IpcSim, BufferExhaustionStallsSends)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = true;
    e.conversations = 4;
    e.kernelBuffers = 1; // only one in-flight send allowed
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.bufferStalls, 0);
    EXPECT_GT(o.roundTrips, 10);
}

TEST(IpcSim, WireLatencyAddsToRoundTrip)
{
    Experiment e;
    e.arch = Arch::II;
    e.conversations = 1;
    e.topo.nodes = 2;
    const double rt0 = runExperiment(e).meanRoundTripUs;
    e.topo.linkLatencyUs = 500;
    const double rt1 = runExperiment(e).meanRoundTripUs;
    EXPECT_NEAR(rt1 - rt0, 1000.0, 150.0); // two crossings
}

TEST(IpcSim, DeterministicForFixedSeed)
{
    Experiment e;
    e.arch = Arch::III;
    e.local = true;
    e.conversations = 3;
    e.computeUs = 1000;
    const Outcome a = runExperiment(e);
    const Outcome b = runExperiment(e);
    EXPECT_EQ(a.roundTrips, b.roundTrips);
    EXPECT_DOUBLE_EQ(a.meanRoundTripUs, b.meanRoundTripUs);
}

TEST(IpcSim, ValidationConfigurationRuns)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.hostsPerNode = 2;
    e.extraCopy = true;
    e.computeUs = 2850;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 20);
}


// --- Token ring and extension features ----------------------------------

TEST(TokenRing, TransmitTimeMatchesRate)
{
    EventQueue eq;
    TokenRing::Config cfg;
    cfg.megabitsPerSec = 4.0;
    TokenRing ring(eq, cfg);
    // 48 bytes at 4 Mb/s = 96 us.
    EXPECT_EQ(ring.transmitTime(48), usToTicks(96));
}

// The ring model is station-count generic — a two-node ring has 2
// stations, the topology layer's bridged segments anything up
// to the segment size plus a router — so the medium tests run across
// the whole range instead of pinning one constant.
class TokenRingStations : public ::testing::TestWithParam<int>
{
};

TEST_P(TokenRingStations, SerializesTransmissions)
{
    const int n = GetParam();
    EventQueue eq;
    TokenRing::Config cfg;
    cfg.stations = n;
    TokenRing ring(eq, cfg);
    std::vector<Tick> deliveries;
    // One packet queued at once from every station to its neighbour.
    for (int s = 0; s < n; ++s)
        ring.send(s, (s + 1) % n, 48,
                  [&]() { deliveries.push_back(eq.now()); });
    eq.runUntil(usToTicks(100000));
    ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(n));
    // One token, one transmission at a time: consecutive deliveries
    // are spaced by at least the serialization time.
    for (std::size_t i = 1; i < deliveries.size(); ++i)
        EXPECT_GE(deliveries[i] - deliveries[i - 1],
                  ring.transmitTime(48));
    EXPECT_EQ(ring.packetCount(), n);
    EXPECT_GT(ring.utilization(), 0.0);
}

TEST_P(TokenRingStations, HopsWrapAroundTheRing)
{
    const int n = GetParam();
    EventQueue eq;
    TokenRing::Config cfg;
    cfg.stations = n;
    TokenRing ring(eq, cfg);
    for (int from = 0; from < n; ++from) {
        EXPECT_EQ(ring.hops(from, from), 0);
        for (int to = 0; to < n; ++to) {
            if (to == from)
                continue;
            const int fwd = ring.hops(from, to);
            // Unidirectional ring: forward distance, and the two
            // directions together close the loop.
            EXPECT_EQ(fwd, (to - from + n) % n);
            EXPECT_GE(fwd, 1);
            EXPECT_LE(fwd, n - 1);
            EXPECT_EQ(fwd + ring.hops(to, from), n);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Rings, TokenRingStations,
                         ::testing::Values(2, 3, 4, 8, 16));

TEST(IpcSim, TokenRingCostsThroughput)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 4;
    e.computeUs = 0;
    const Outcome ideal = runExperiment(e);
    e.topo.nodes = 2;
    e.topo.kind = 2;
    e.topo.segMbps = 4.0;
    const Outcome ring = runExperiment(e);
    EXPECT_LT(ring.throughputPerSec, ideal.throughputPerSec);
    EXPECT_GT(ring.ringUtil, 0.0);
    // At 4 Mb/s the ring is far from saturated (§6.6.4).
    EXPECT_LT(ring.ringUtil, 0.5);
    // A very slow ring becomes the bottleneck (0.1 Mb/s carries at
    // most ~130 round trips/sec for two 48-byte packets each).
    e.topo.segMbps = 0.1;
    const Outcome slow = runExperiment(e);
    EXPECT_LT(slow.throughputPerSec, ring.throughputPerSec * 0.8);
}

TEST(IpcSim, FasterMpRaisesThroughput)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = true;
    e.conversations = 4;
    e.computeUs = 0;
    const double base = runExperiment(e).throughputPerSec;
    e.mpSpeedFactor = 2.0;
    const double fast = runExperiment(e).throughputPerSec;
    EXPECT_GT(fast, base * 1.5);
}

TEST(IpcSim, ArchIVUsesBothBusPartitions)
{
    Experiment e;
    e.arch = Arch::IV;
    e.local = true;
    e.conversations = 3;
    e.computeUs = 570;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 50);
}

// Parameterized ordering sweep: III >= II at max load for any
// conversation count, local and non-local.
class ArchOrdering
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(ArchOrdering, SmartBusNeverLoses)
{
    const auto [n, local] = GetParam();
    Experiment e;
    e.local = local;
    e.conversations = n;
    e.computeUs = 0;
    e.measureUs = 800000;
    e.arch = Arch::II;
    const double t2 = runExperiment(e).throughputPerSec;
    e.arch = Arch::III;
    const double t3 = runExperiment(e).throughputPerSec;
    EXPECT_GT(t3, t2 * 1.05) << "n=" << n << " local=" << local;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArchOrdering,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(true, false)));


TEST(IpcSim, RoundTripPercentilesAreOrdered)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = true;
    e.conversations = 3;
    e.computeUs = 1710; // uniform 0.5X..1.5X spreads the distribution
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.rtP50Us, 0.0);
    EXPECT_GE(o.rtP95Us, o.rtP50Us);
    EXPECT_GE(o.meanRoundTripUs, o.rtP50Us * 0.5);
    EXPECT_LE(o.meanRoundTripUs, o.rtP95Us);
}


TEST(IpcSim, ActivityProfileMatchesStepTable)
{
    // At one uncontended conversation every activity's measured time
    // per round trip equals its step-table cost ("Best" column).
    Experiment e;
    e.arch = Arch::II;
    e.local = true;
    e.conversations = 1;
    e.computeUs = 0;
    const Outcome o = runExperiment(e);
    const IpcCosts c = ipcCosts(Arch::II, true);
    auto at = [&](const char *n) {
        auto it = o.activityUsPerRoundTrip.find(n);
        return it == o.activityUsPerRoundTrip.end() ? -1.0 : it->second;
    };
    EXPECT_NEAR(at("sendSyscall"),
                c.sendSyscall.procUs + c.sendSyscall.tcb, 6.0);
    EXPECT_NEAR(at("processSend"),
                c.processSend.procUs + c.processSend.tcb, 12.0);
    EXPECT_NEAR(at("match"), c.match.procUs + c.match.tcb, 14.0);
    EXPECT_NEAR(at("processReply"),
                c.processReply.procUs + c.processReply.tcb, 14.0);
}


// --- Mixed workloads (beyond the thesis' models, §6.6.3) -----------------

TEST(IpcSimMixed, AllLocalMatchesClassicLocalPerNode)
{
    // 2 local conversations on each of two nodes should roughly
    // double one node's 2-conversation throughput.
    Experiment classic;
    classic.arch = Arch::II;
    classic.local = true;
    classic.conversations = 2;
    classic.computeUs = 1710;
    const double one_node =
        runExperiment(classic).throughputPerSec;

    Experiment mixed;
    mixed.arch = Arch::II;
    mixed.mixedLocal = 4; // interleaved 2 + 2 over the two nodes
    mixed.computeUs = 1710;
    const double two_nodes = runExperiment(mixed).throughputPerSec;
    EXPECT_NEAR(two_nodes, 2.0 * one_node, 2.0 * one_node * 0.06);
}

TEST(IpcSimMixed, AllRemoteMatchesClassicNonlocalShape)
{
    // Mixed mode with only remote pairs differs from the classic
    // non-local split (clients spread over BOTH nodes instead of all
    // on one), so both directions of the wire carry requests; the
    // symmetric layout can only help.
    Experiment classic;
    classic.arch = Arch::II;
    classic.local = false;
    classic.conversations = 4;
    classic.computeUs = 1710;
    const double one_way = runExperiment(classic).throughputPerSec;

    Experiment mixed;
    mixed.arch = Arch::II;
    mixed.mixedRemote = 4;
    mixed.computeUs = 1710;
    const double two_way = runExperiment(mixed).throughputPerSec;
    EXPECT_GT(two_way, one_way * 0.95);
}

TEST(IpcSimMixed, RemoteTrafficSlowsLocalConversations)
{
    // The thesis' premise: local and non-local requests share the
    // same kernel resources.  Adding cross-node traffic must cost
    // the local conversations throughput.
    Experiment pure;
    pure.arch = Arch::II;
    pure.mixedLocal = 2;
    pure.computeUs = 1710;
    const Outcome p = runExperiment(pure);

    Experiment mixed = pure;
    mixed.mixedRemote = 2;
    const Outcome m = runExperiment(mixed);
    // More total conversations -> more total throughput...
    EXPECT_GT(m.throughputPerSec, p.throughputPerSec);
    // ...but longer round trips than the uncontended local-only run.
    EXPECT_GT(m.meanRoundTripUs, p.meanRoundTripUs);
}

TEST(IpcSimMixed, DeterministicAndCountsAllConversations)
{
    Experiment e;
    e.arch = Arch::III;
    e.mixedLocal = 2;
    e.mixedRemote = 2;
    e.computeUs = 570;
    const Outcome a = runExperiment(e);
    const Outcome b = runExperiment(e);
    EXPECT_EQ(a.roundTrips, b.roundTrips);
    EXPECT_GT(a.roundTrips, 100);
}

TEST(IpcSim, BufferPoolExhaustionAndRecovery)
{
    // Eight senders against a single kernel buffer: sends must stall,
    // yet the simulation keeps making progress as each completed
    // round trip frees the buffer for a waiter.
    Experiment starved;
    starved.arch = Arch::II;
    starved.local = true;
    starved.conversations = 8;
    starved.computeUs = 570;
    starved.kernelBuffers = 1;
    const Outcome s = runExperiment(starved);
    EXPECT_GT(s.bufferStalls, 0);
    EXPECT_GT(s.roundTrips, 50);

    // With the pool restored the stalls vanish and throughput
    // recovers beyond the starved run's.
    Experiment roomy = starved;
    roomy.kernelBuffers = 64;
    const Outcome r = runExperiment(roomy);
    EXPECT_EQ(r.bufferStalls, 0);
    EXPECT_GT(r.throughputPerSec, s.throughputPerSec);
}

TEST(IpcSimValidation, RejectsImpossibleConfigurations)
{
    Experiment e;
    e.computeUs = -1;
    EXPECT_DEATH(runExperiment(e), "computeUs");
    e = Experiment{};
    e.kernelBuffers = 0;
    EXPECT_DEATH(runExperiment(e), "kernel buffer");
    e = Experiment{};
    e.mpSpeedFactor = 0;
    EXPECT_DEATH(runExperiment(e), "mpSpeedFactor");
    e = Experiment{};
    e.lossRate = 1.5;
    EXPECT_DEATH(runExperiment(e), "probabilities");
    e = Experiment{};
    e.retransmitWindow = 0;
    EXPECT_DEATH(runExperiment(e), "retransmitWindow");
    e = Experiment{};
    e.crashSchedule.push_back({0, 500, 100}); // ends before it starts
    EXPECT_DEATH(runExperiment(e), "well-formed");
}

TEST(IpcSimValidation, RejectsRetiredArrivalAndPlacementModes)
{
    // Bounded-Pareto arrivals (mode 2) and Zipf hot-spot placement
    // (policy 3) are gone: a repro naming them fails loudly instead
    // of running something else.
    Experiment e;
    e.local = false;
    e.arrivalMode = 2;
    EXPECT_DEATH(runExperiment(e), "arrivalMode is 0 \\(closed\\) or 1");
    e = Experiment{};
    e.topo.nodes = 4;
    e.topo.placement = 3;
    EXPECT_DEATH(runExperiment(e), "placement is 0 \\(classic\\)");
}

TEST(IpcSimValidation, RejectsUnrepresentableTimes)
{
    // Every real-valued knob, nested records included, is finite.
    Experiment e;
    e.measureUs = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(runExperiment(e), "measureUs must be finite");
    e = Experiment{};
    e.computeUs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(runExperiment(e), "computeUs must be finite");
    e = Experiment{};
    e.crashSchedule.push_back(
        {1, 100, std::numeric_limits<double>::infinity()});
    EXPECT_DEATH(runExperiment(e), "endUs must be finite");
    e = Experiment{};
    e.topo.nodes = 2;
    e.topo.linkLatencyUs = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(runExperiment(e), "linkLatencyUs must be finite");
    // A horizon past the 64-bit tick clock (~292 years).
    e = Experiment{};
    e.measureUs = 1e300;
    EXPECT_DEATH(runExperiment(e), "overflows the tick clock");
    e = Experiment{};
    e.warmupUs = 9.3e15;
    e.measureUs = 1;
    EXPECT_DEATH(runExperiment(e), "overflows the tick clock");
    // A window that rounds to no tick at all.
    e = Experiment{};
    e.measureUs = 1e-300;
    EXPECT_DEATH(runExperiment(e), "zero-tick window");
    e = Experiment{};
    e.measureUs = 0.0004;
    EXPECT_DEATH(runExperiment(e), "zero-tick window");
}


// --- Unreliable medium and the reliability stack -------------------------

TEST(IpcSimLossy, FaultFreeRunBypassesTheStack)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    const Outcome o = runExperiment(e);
    EXPECT_EQ(o.retransmissions, 0);
    EXPECT_EQ(o.timeoutsFired, 0);
    EXPECT_EQ(o.faultDrops, 0);
    EXPECT_DOUBLE_EQ(o.netThroughputPktsPerSec, 0.0);
    EXPECT_DOUBLE_EQ(o.protoHostUsPerRt, 0.0);
    EXPECT_DOUBLE_EQ(o.protoMpUsPerRt, 0.0);
}

TEST(IpcSimLossy, ProtocolWithoutFaultsIsLossless)
{
    // Forcing the protocol over a clean medium costs processing but
    // never retransmits: wire throughput equals goodput.
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    const Outcome ideal = runExperiment(e);
    e.reliableProtocol = true;
    const Outcome o = runExperiment(e);
    EXPECT_EQ(o.retransmissions, 0);
    EXPECT_EQ(o.duplicatesDropped, 0);
    EXPECT_GT(o.netThroughputPktsPerSec, 0.0);
    EXPECT_DOUBLE_EQ(o.netThroughputPktsPerSec,
                     o.netGoodputPktsPerSec);
    // The protocol's processing shows up as longer round trips.
    EXPECT_GT(o.meanRoundTripUs, ideal.meanRoundTripUs);
    EXPECT_GT(o.protoMpUsPerRt, 0.0);
}

TEST(IpcSimLossy, PacketLossRetransmitsAndCompletes)
{
    // The acceptance scenario: 1% loss, fixed seed.  The run
    // completes, retransmits, and goodput trails wire throughput.
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    e.lossRate = 0.01;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 100);
    EXPECT_GT(o.retransmissions, 0);
    EXPECT_GT(o.timeoutsFired, 0);
    EXPECT_GT(o.faultDrops, 0);
    EXPECT_LT(o.netGoodputPktsPerSec, o.netThroughputPktsPerSec);
}

TEST(IpcSimLossy, DeterministicForFixedSeed)
{
    Experiment e;
    e.arch = Arch::III;
    e.local = false;
    e.conversations = 3;
    e.computeUs = 1140;
    e.lossRate = 0.02;
    e.duplicateRate = 0.01;
    e.corruptRate = 0.005;
    e.reorderRate = 0.01;
    const Outcome a = runExperiment(e);
    const Outcome b = runExperiment(e);
    EXPECT_EQ(a.roundTrips, b.roundTrips);
    EXPECT_DOUBLE_EQ(a.meanRoundTripUs, b.meanRoundTripUs);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.duplicatesDropped, b.duplicatesDropped);
    EXPECT_EQ(a.corruptDiscarded, b.corruptDiscarded);
    EXPECT_EQ(a.faultDrops, b.faultDrops);
}

TEST(IpcSimLossy, WhoPaysDependsOnArchitecture)
{
    // The thesis' point made measurable: under Architecture I the
    // host pays for retransmission processing; under II-IV the MP
    // absorbs it and the host pays nothing.
    Experiment e;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    e.lossRate = 0.02;
    e.arch = Arch::I;
    const Outcome uni = runExperiment(e);
    EXPECT_GT(uni.protoHostUsPerRt, 0.0);
    EXPECT_DOUBLE_EQ(uni.protoMpUsPerRt, 0.0);
    e.arch = Arch::II;
    const Outcome cop = runExperiment(e);
    EXPECT_DOUBLE_EQ(cop.protoHostUsPerRt, 0.0);
    EXPECT_GT(cop.protoMpUsPerRt, 0.0);
}

TEST(IpcSimLossy, DuplicationAndCorruptionAreCountedAndSurvived)
{
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    e.duplicateRate = 0.05;
    e.corruptRate = 0.02;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 100);
    EXPECT_GT(o.duplicatesDropped, 0);
    EXPECT_GT(o.corruptDiscarded, 0);
}

TEST(IpcSimLossy, LossyTokenRingAlsoRecovers)
{
    // The injector applies uniformly to both media: the same loss
    // rate over the explicit token ring still completes round trips.
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    e.topo.nodes = 2;
    e.topo.kind = 2;
    e.lossRate = 0.02;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 100);
    EXPECT_GT(o.retransmissions, 0);
    EXPECT_GT(o.ringUtil, 0.0);
}

TEST(IpcSimCrash, NodeOutageIsRecoveredFrom)
{
    // Node 1 (the server node) drops off the network for 200 ms in
    // the middle of the measurement window.  The protocol's
    // retransmissions carry the workload across the outage, and the
    // time to the first completed round trip after the window closes
    // is reported as the recovery time.
    Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 1140;
    e.crashSchedule.push_back({1, 300000, 500000});
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.roundTrips, 50);
    EXPECT_GT(o.retransmissions, 0);
    EXPECT_GT(o.crashDrops, 0);
    EXPECT_EQ(o.crashWindowsRecovered, 1);
    EXPECT_GT(o.meanRecoveryUs, 0.0);
    // Recovery is bounded by the backoff ceiling plus a round trip.
    EXPECT_LT(o.meanRecoveryUs, 100000.0);

    // The same run without the outage completes strictly more work.
    Experiment clean = e;
    clean.crashSchedule.clear();
    clean.reliableProtocol = true;
    const Outcome c = runExperiment(clean);
    EXPECT_GT(c.roundTrips, o.roundTrips);
    EXPECT_EQ(c.crashWindowsRecovered, 0);
}

TEST(IpcSimLossy, MpArchitectureDegradesMoreGracefully)
{
    // The bench's headline in miniature: with servers doing realistic
    // computation, 2% loss costs the uniprocessor the most, because
    // the host that is already the bottleneck must also pay for the
    // reliability stack and every retransmission.  The more protocol
    // work an architecture keeps off the host (II: MP on the shared
    // bus; III: MP behind a smart bus), the more of its ideal-medium
    // throughput it retains.
    auto retained = [](Arch a) {
        Experiment e;
        e.arch = a;
        e.local = false;
        e.conversations = 4;
        e.computeUs = 2850;
        const double ideal = runExperiment(e).throughputPerSec;
        e.reliableProtocol = true;
        e.lossRate = 0.02;
        const double lossy = runExperiment(e).throughputPerSec;
        return lossy / ideal;
    };
    const double archI = retained(Arch::I);
    const double archII = retained(Arch::II);
    const double archIII = retained(Arch::III);
    EXPECT_GT(archII, archI + 0.03);
    EXPECT_GT(archIII, archII + 0.03);
}

TEST(IpcSimMixed, PerKindBreakdownSumsToTotal)
{
    Experiment e;
    e.arch = Arch::II;
    e.mixedLocal = 2;
    e.mixedRemote = 2;
    e.computeUs = 1140;
    const Outcome o = runExperiment(e);
    EXPECT_NEAR(o.localThroughputPerSec + o.remoteThroughputPerSec,
                o.throughputPerSec, o.throughputPerSec * 1e-6);
    // Remote round trips are longer than local ones.
    EXPECT_GT(o.remoteMeanRtUs, o.localMeanRtUs);
}

/**
 * A self-rescheduling event with a capture of `Pad` extra bytes —
 * the simulator's steady-state shape.  Runs the queue until
 * `remaining` reschedules have happened, then lets it drain.
 */
template <std::size_t Pad> struct SelfSched
{
    EventQueue *q;
    std::uint64_t *remaining;
    unsigned char pad[Pad] = {};

    void
    operator()()
    {
        if (*remaining > 0) {
            --*remaining;
            q->scheduleAfter(10, SelfSched(*this));
        }
    }
};

template <std::size_t Pad>
std::size_t
allocationsDuringSteadyState(int fanout, std::uint64_t warmup,
                             std::uint64_t measured)
{
    EventQueue eq;
    std::uint64_t remaining = warmup;
    for (int i = 0; i < fanout; ++i)
        eq.scheduleAfter(i, SelfSched<Pad>{&eq, &remaining});
    // Warm up: backing vector growth, pool fills, etc.
    while (remaining > 0)
        eq.runOne();

    // Measure while the event population is steady; the final drain
    // (every conversation dying at once) parks a burst of spill
    // blocks and legitimately grows the free list.
    remaining = measured;
    const std::size_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    while (remaining > 0)
        eq.runOne();
    const std::size_t after =
        g_heapAllocs.load(std::memory_order_relaxed);
    while (eq.runOne()) {}
    return after - before;
}

TEST(EventQueue, InlineCapturesNeverAllocateInSteadyState)
{
    // 24-byte capture: inline in EventCallback's 48-byte buffer.
    static_assert(sizeof(SelfSched<8>) <=
                  EventCallback::inlineCapacity);
    EXPECT_EQ(allocationsDuringSteadyState<8>(32, 1000, 20000), 0u);
    // 64 pending: the depth the 16- and 32-node fleets reach.
    EXPECT_EQ(allocationsDuringSteadyState<8>(64, 1000, 20000), 0u);
}

TEST(EventQueue, MaxInlineCapturesNeverAllocateInSteadyState)
{
    // Exactly at the 48-byte boundary.
    static_assert(sizeof(SelfSched<32>) ==
                  EventCallback::inlineCapacity);
    EXPECT_EQ(allocationsDuringSteadyState<32>(32, 1000, 20000), 0u);
    EXPECT_EQ(allocationsDuringSteadyState<32>(64, 1000, 20000), 0u);
}

TEST(EventQueue, SpilledCapturesReusePooledBlocksWithoutAllocating)
{
    // 88-byte capture: spills to the per-thread pool; after warmup
    // every block is recycled, so the steady state allocates nothing.
    static_assert(sizeof(SelfSched<64>) >
                  EventCallback::inlineCapacity);
    static_assert(sizeof(SelfSched<64>) <=
                  detail::SpillPool::blockSize);
    EXPECT_EQ(allocationsDuringSteadyState<64>(32, 1000, 20000), 0u);
    EXPECT_EQ(allocationsDuringSteadyState<64>(64, 1000, 20000), 0u);
    EXPECT_GT(detail::SpillPool::instance().freeBlocks(), 0u);
}

TEST(EventQueue, ProfilerAtDefaultsKeepsSteadyStateAllocationFree)
{
    // The engine profiler at its default 1-in-1024 sampling must not
    // reintroduce steady-state allocations: counters are plain
    // increments, and the quantile sketches only allocate when a
    // sample opens a *new* bucket.  The simulated-time sketches
    // stabilize during warmup; the wall-clock sketch can always meet
    // a scheduling outlier that opens a fresh bucket, so the pin
    // retries a few times and requires one clean measured phase.
    obs::EngineProfiler prof; // defaultSampleShift
    prof.beginRun();
    EventQueue eq;
    eq.observe(obs::Sinks{.prof = &prof});

    std::uint64_t remaining = 300000; // ~293 wall samples of warmup
    for (int i = 0; i < 32; ++i)
        eq.scheduleAfter(i, SelfSched<8>{&eq, &remaining});
    while (remaining > 0)
        eq.runOne();

    bool clean = false;
    for (int attempt = 0; attempt < 12 && !clean; ++attempt) {
        remaining = 20000;
        const std::size_t before =
            g_heapAllocs.load(std::memory_order_relaxed);
        while (remaining > 0)
            eq.runOne();
        const std::size_t after =
            g_heapAllocs.load(std::memory_order_relaxed);
        clean = after == before;
    }
    EXPECT_TRUE(clean)
        << "profiled steady state allocated on every attempt";
    while (eq.runOne()) {}
    prof.finishRun(eq.size());
    EXPECT_GT(prof.profile().sampledEvents, 0u);
    EXPECT_EQ(prof.profile().pushes,
              prof.profile().pops + prof.profile().remainingAtEnd);
}

/**
 * A callable that counts its moves.  The user-provided move
 * constructor makes it not trivially copyable, so every relocation of
 * a callback holding it runs that constructor and is counted.
 */
struct MoveCounter
{
    int *moves;
    int *runs;

    MoveCounter(int *moves, int *runs) : moves(moves), runs(runs) {}
    MoveCounter(MoveCounter &&o) noexcept : moves(o.moves), runs(o.runs)
    {
        ++*moves;
    }
    MoveCounter(const MoveCounter &) = delete;
    void operator()() const { ++*runs; }
};

TEST(EventQueue, SchedulesWithoutRelocating)
{
    // A push builds the callback in its slot (a fresh one, then a
    // recycled one): one move each.  A pop moves it out once.
    static_assert(!std::is_trivially_copyable_v<MoveCounter>);
    for (bool profiled : {false, true}) {
        SCOPED_TRACE(profiled ? "profiled" : "unprofiled");
        EventQueue eq;
        obs::EngineProfiler prof;
        if (profiled) {
            prof.beginRun();
            eq.observe(obs::Sinks{.prof = &prof});
        }
        int moves = 0, runs = 0;
        eq.schedule(5, MoveCounter(&moves, &runs));
        EXPECT_EQ(moves, 1);
        eq.scheduleAfter(7, MoveCounter(&moves, &runs));
        EXPECT_EQ(moves, 2);
        ASSERT_TRUE(eq.runOne());
        EXPECT_EQ(moves, 3);
        EXPECT_EQ(runs, 1);
        // Into the slot the pop just freed.
        eq.scheduleAfter(1, MoveCounter(&moves, &runs));
        EXPECT_EQ(moves, 4);
        eq.schedule(eq.now() + 1, MoveCounter(&moves, &runs));
        EXPECT_EQ(moves, 5);
        while (eq.runOne()) {}
        EXPECT_EQ(moves, 8);
        EXPECT_EQ(runs, 4);

        // A named EventCallback goes in by std::move: one relocation
        // of its target into the slot, one out.
        EventCallback cb(MoveCounter(&moves, &runs));
        moves = 0;
        eq.schedule(eq.now(), std::move(cb));
        EXPECT_FALSE(cb);
        EXPECT_EQ(moves, 1);
        EventCallback cb2(MoveCounter(&moves, &runs));
        moves = 0;
        eq.scheduleAfter(0, std::move(cb2));
        EXPECT_EQ(moves, 1);
        while (eq.runOne()) {}
        EXPECT_EQ(moves, 3);
        EXPECT_EQ(runs, 6);
    }
}

/**
 * A callable of exactly `Bytes` bytes (alignment 1, so sizeof does
 * not round up) that counts invocations and destructions — probes the
 * storage-tier boundaries of EventCallback precisely.
 */
template <std::size_t Bytes> struct SizedCapture
{
    static_assert(Bytes >= 2 * sizeof(int *));
    // The pointers live memcpy'd into a byte array so the struct has
    // alignment 1 and sizeof is exactly Bytes — pointer members would
    // round odd sizes up to a multiple of 8 and miss the boundary.
    unsigned char raw[Bytes];

    SizedCapture(int *invoked, int *destroyed) : raw{}
    {
        std::memcpy(raw, &invoked, sizeof invoked);
        std::memcpy(raw + sizeof(int *), &destroyed,
                    sizeof destroyed);
    }
    SizedCapture(SizedCapture &&o) noexcept
    {
        std::memcpy(raw, o.raw, Bytes);
        int *none = nullptr; // moved-from shell must not count
        std::memcpy(o.raw + sizeof(int *), &none, sizeof none);
    }
    ~SizedCapture()
    {
        int *destroyed;
        std::memcpy(&destroyed, raw + sizeof(int *),
                    sizeof destroyed);
        if (destroyed)
            ++*destroyed;
    }
    void
    operator()()
    {
        int *invoked;
        std::memcpy(&invoked, raw, sizeof invoked);
        ++*invoked;
    }
};

/**
 * Construct, invoke, and destroy an EventCallback holding a
 * `Bytes`-sized capture; return the heap allocations the callback
 * itself performed (the spill block, if any).
 */
template <std::size_t Bytes>
std::size_t
allocationsForOneCallback(int &invoked, int &destroyed)
{
    const std::size_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    {
        EventCallback cb(SizedCapture<Bytes>{&invoked, &destroyed});
        cb();
    }
    return g_heapAllocs.load(std::memory_order_relaxed) - before;
}

TEST(EventCallback, InlineBoundaryIsExactlyInlineCapacity)
{
    static_assert(sizeof(SizedCapture<47>) == 47);
    static_assert(sizeof(SizedCapture<48>) == 48);
    static_assert(sizeof(SizedCapture<49>) == 49);

    int invoked = 0, destroyed = 0;
    // 47 and 48 bytes: inline, zero allocations.
    EXPECT_EQ(allocationsForOneCallback<47>(invoked, destroyed), 0u);
    EXPECT_EQ(allocationsForOneCallback<48>(invoked, destroyed), 0u);
    EXPECT_EQ(invoked, 2);
    EXPECT_EQ(destroyed, 2);

    // 49 bytes: one byte over — spills.  Warm the pool once (the
    // free-list vector itself allocates on first growth), then drain
    // it so the next spill is forced to allocate a fresh block.
    auto &pool = detail::SpillPool::instance();
    allocationsForOneCallback<49>(invoked, destroyed);
    while (pool.freeBlocks() > 0)
        ::operator delete(pool.alloc());
    EXPECT_EQ(allocationsForOneCallback<49>(invoked, destroyed), 1u);
    EXPECT_EQ(invoked, 4);
    EXPECT_EQ(destroyed, 4);
    // The block was parked on the free list, not freed: a second
    // 49-byte spill recycles it and allocates nothing.
    EXPECT_EQ(pool.freeBlocks(), 1u);
    EXPECT_EQ(allocationsForOneCallback<49>(invoked, destroyed), 0u);
    EXPECT_EQ(pool.freeBlocks(), 1u);
}

TEST(EventCallback, SpillPoolBoundaryIsExactlyBlockSize)
{
    static_assert(detail::SpillPool::blockSize == 256);
    static_assert(sizeof(SizedCapture<256>) == 256);
    static_assert(sizeof(SizedCapture<257>) == 257);

    auto &pool = detail::SpillPool::instance();
    int invoked = 0, destroyed = 0;

    // 256 bytes fills a block exactly: pooled, recycled on destroy.
    allocationsForOneCallback<256>(invoked, destroyed);
    const std::size_t parked = pool.freeBlocks();
    EXPECT_GE(parked, 1u);
    EXPECT_EQ(allocationsForOneCallback<256>(invoked, destroyed), 0u);
    EXPECT_EQ(pool.freeBlocks(), parked);

    // 257 bytes exceeds a block: plain operator new, never pooled —
    // it allocates every time and leaves the free list alone.
    EXPECT_EQ(allocationsForOneCallback<257>(invoked, destroyed), 1u);
    EXPECT_EQ(allocationsForOneCallback<257>(invoked, destroyed), 1u);
    EXPECT_EQ(pool.freeBlocks(), parked);
    EXPECT_EQ(invoked, 4);
    EXPECT_EQ(destroyed, 4);
}

TEST(EventCallback, MovedFromSpilledCallbackReleasesNothing)
{
    auto &pool = detail::SpillPool::instance();
    int invoked = 0, destroyed = 0;

    EventCallback dst;
    const std::size_t parked = pool.freeBlocks();
    {
        EventCallback src(SizedCapture<64>{&invoked, &destroyed});
        dst = std::move(src);
        // src leaves scope holding nothing: the block must not come
        // back to the pool while dst still owns the target.
    }
    EXPECT_EQ(pool.freeBlocks(),
              parked == 0 ? 0 : parked - 1); // block in use by dst
    EXPECT_EQ(destroyed, 0);
    dst();
    EXPECT_EQ(invoked, 1);
    dst = EventCallback(); // destroys the target, parks the block
    EXPECT_EQ(destroyed, 1);
    EXPECT_GE(pool.freeBlocks(), 1u);
}

TEST(EventCallback, SpilledBlockParksOnTheDestroyingThreadsPool)
{
    // The pool is thread-local: a spilled callback destroyed on
    // another thread parks its block on *that* thread's free list and
    // leaves this thread's list untouched.
    auto &pool = detail::SpillPool::instance();
    int invoked = 0, destroyed = 0;
    EventCallback cb(SizedCapture<64>{&invoked, &destroyed});
    const std::size_t parkedHere = pool.freeBlocks();

    std::size_t parkedThere = 0;
    std::thread([&] {
        EventCallback mine(std::move(cb));
        mine();
        mine = EventCallback();
        parkedThere = detail::SpillPool::instance().freeBlocks();
    }).join();

    EXPECT_EQ(invoked, 1);
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(parkedThere, 1u);
    EXPECT_EQ(pool.freeBlocks(), parkedHere);
}

} // namespace
