/**
 * @file
 * Google-benchmark microbenchmarks of the library itself: GTPN
 * reachability + steady-state solution, queue primitives (software
 * reference vs microcode), smart-bus transactions, the event queue
 * (current explicit-heap/SBO implementation vs the seed
 * priority_queue/std::function pattern), and the event-driven kernel
 * simulator.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "bus/memory.hh"
#include "bus/queue_ops.hh"
#include "bus/smart_bus.hh"
#include "core/models/local_model.hh"
#include "core/models/solution.hh"
#include "sim/des/event_queue.hh"
#include "sim/kernel/ipc_sim.hh"
#include "ucode/microcode.hh"

namespace
{

using namespace hsipc;

void
BM_GtpnSolveLocal(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto s = models::solveLocal(models::Arch::II, n, 0.0);
        benchmark::DoNotOptimize(s.throughputPerUs);
    }
    state.counters["states"] = static_cast<double>(
        models::solveLocal(models::Arch::II, n, 0.0).states);
}
BENCHMARK(BM_GtpnSolveLocal)->Arg(1)->Arg(2)->Arg(3);

void
BM_GtpnNonlocalFixedPoint(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto s = models::solveNonlocal(models::Arch::III, n, 0.0);
        benchmark::DoNotOptimize(s.throughputPerUs);
    }
}
BENCHMARK(BM_GtpnNonlocalFixedPoint)->Arg(1)->Arg(2);

void
BM_QueueOpsSoftware(benchmark::State &state)
{
    bus::SimMemory mem(4096);
    for (auto _ : state) {
        bus::QueueOps::enqueue(mem, 2, 64);
        bus::QueueOps::enqueue(mem, 2, 96);
        benchmark::DoNotOptimize(bus::QueueOps::first(mem, 2));
        benchmark::DoNotOptimize(bus::QueueOps::first(mem, 2));
    }
}
BENCHMARK(BM_QueueOpsSoftware);

void
BM_QueueOpsMicrocoded(benchmark::State &state)
{
    bus::SimMemory mem(4096);
    ucode::MicroSequencer seq(mem);
    const auto &prog = ucode::microProgram();
    for (auto _ : state) {
        seq.run(prog.entryEnqueue, 2, 64);
        seq.run(prog.entryEnqueue, 2, 96);
        benchmark::DoNotOptimize(seq.run(prog.entryFirst, 2, 0).value);
        benchmark::DoNotOptimize(seq.run(prog.entryFirst, 2, 0).value);
    }
}
BENCHMARK(BM_QueueOpsMicrocoded);

void
BM_SmartBusBlockTransfer(benchmark::State &state)
{
    const auto bytes = static_cast<std::uint16_t>(state.range(0));
    for (auto _ : state) {
        bus::SimMemory mem(65536);
        bus::SmartBus b(mem);
        const int mp = b.addUnit("MP", 3);
        const auto op = b.postBlockRead(mp, 0, bytes);
        b.run();
        benchmark::DoNotOptimize(b.result(op).data.size());
    }
}
BENCHMARK(BM_SmartBusBlockTransfer)->Arg(40)->Arg(1024);

/**
 * The event queue the repo shipped with before the explicit-heap
 * rewrite, reconstructed locally as the microbenchmark baseline:
 * std::function callbacks (which heap-allocate once the capture
 * outgrows the library's 16-24 byte inline buffer) in a
 * std::priority_queue (whose top() must be const_cast-moved to
 * extract a move-only payload, and whose pop() re-inspects the heap).
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return current; }

    void
    schedule(Tick when, Callback cb)
    {
        events.push(Event{when, nextSeq++, std::move(cb)});
    }

    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(current + delay, std::move(cb));
    }

    std::uint64_t eventsRun() const { return executed; }

    void
    runUntil(Tick end)
    {
        while (!events.empty() && events.top().when <= end) {
            Event ev = std::move(const_cast<Event &>(events.top()));
            events.pop();
            current = ev.when;
            ++executed;
            ev.cb();
        }
        if (current < end)
            current = end;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };
    struct After
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, After> events;
    Tick current = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
};

/**
 * A self-rescheduling event: the simulator's steady-state shape (each
 * activity completion schedules the next).  `Pad` sizes the capture:
 * the default mirrors the typical this-plus-a-few-ints capture and
 * stays within EventCallback's 48-byte inline buffer; 64 forces the
 * spill path (and, on the legacy queue, a std::function allocation).
 */
template <typename Queue, std::size_t Pad = 8> struct SelfSched
{
    Queue *q;
    std::uint64_t *remaining;
    unsigned char pad[Pad] = {};

    void
    operator()()
    {
        if (*remaining > 0) {
            --*remaining;
            q->scheduleAfter(100, SelfSched(*this));
        }
    }
};

template <typename Queue, std::size_t Pad>
void
runEventQueueBench(benchmark::State &state)
{
    const int fanout = static_cast<int>(state.range(0));
    constexpr std::uint64_t perIter = 16384;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Queue q;
        std::uint64_t remaining = perIter;
        for (int i = 0; i < fanout; ++i)
            q.scheduleAfter(i, SelfSched<Queue, Pad>{&q, &remaining});
        q.runUntil(std::numeric_limits<Tick>::max());
        total += q.eventsRun();
        benchmark::DoNotOptimize(q.now());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    runEventQueueBench<sim::EventQueue, 8>(state);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(16)->Arg(256);

void
BM_EventQueueScheduleRunSpilled(benchmark::State &state)
{
    runEventQueueBench<sim::EventQueue, 64>(state);
}
BENCHMARK(BM_EventQueueScheduleRunSpilled)->Arg(16)->Arg(256);

/**
 * The pay-for-use check: the same workload with the engine profiler
 * attached at its default 1-in-1024 sampling.  The acceptance budget
 * is < 5% over BM_EventQueueScheduleRun.
 */
void
BM_EventQueueScheduleRunProfiled(benchmark::State &state)
{
    const int fanout = static_cast<int>(state.range(0));
    constexpr std::uint64_t perIter = 16384;
    std::uint64_t total = 0;
    for (auto _ : state) {
        obs::EngineProfiler prof;
        prof.beginRun();
        sim::EventQueue q;
        q.observe(obs::Sinks{.prof = &prof});
        std::uint64_t remaining = perIter;
        for (int i = 0; i < fanout; ++i)
            q.scheduleAfter(
                i, SelfSched<sim::EventQueue, 8>{&q, &remaining});
        q.runUntil(std::numeric_limits<Tick>::max());
        total += q.eventsRun();
        prof.finishRun(q.size());
        benchmark::DoNotOptimize(prof.profile().pushes);
        benchmark::DoNotOptimize(q.now());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventQueueScheduleRunProfiled)->Arg(16)->Arg(256);

/**
 * The engine at thousands of concurrently pending events, where the
 * heap pays an O(log n) sift of 16-byte keys per operation.  Same
 * self-rescheduling workload as above at fanouts 4096..65536 — far
 * past the few dozen pending events any shipped workload reaches
 * (docs/performance.md, "Why one heap per event kind").
 */
void
BM_EventQueueHighPendingHeap(benchmark::State &state)
{
    const int fanout = static_cast<int>(state.range(0));
    constexpr std::uint64_t perIter = 262144;
    std::uint64_t total = 0;
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t remaining = perIter;
        for (int i = 0; i < fanout; ++i)
            q.scheduleAfter(
                i, SelfSched<sim::EventQueue, 8>{&q, &remaining});
        q.runUntil(std::numeric_limits<Tick>::max());
        total += q.eventsRun();
        benchmark::DoNotOptimize(q.now());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventQueueHighPendingHeap)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void
BM_EventQueueLegacy(benchmark::State &state)
{
    runEventQueueBench<LegacyEventQueue, 8>(state);
}
BENCHMARK(BM_EventQueueLegacy)->Arg(16)->Arg(256);

void
BM_EventQueueLegacySpilled(benchmark::State &state)
{
    runEventQueueBench<LegacyEventQueue, 64>(state);
}
BENCHMARK(BM_EventQueueLegacySpilled)->Arg(16)->Arg(256);

void
BM_KernelSimulation(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Experiment e;
        e.arch = models::Arch::II;
        e.local = true;
        e.conversations = 2;
        e.computeUs = 1140;
        e.warmupUs = 20000;
        e.measureUs = 200000;
        const auto o = sim::runExperiment(e);
        benchmark::DoNotOptimize(o.throughputPerSec);
    }
}
BENCHMARK(BM_KernelSimulation);

} // namespace

/**
 * Expanded BENCHMARK_MAIN() so this binary honors the same
 * `--json <path>` flag as every other bench: it maps onto google
 * benchmark's native JSON reporter flags before initialization.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--json" && i + 1 < args.size()) {
            const std::string path = args[i + 1];
            args.erase(args.begin() + static_cast<long>(i),
                       args.begin() + static_cast<long>(i) + 2);
            args.push_back("--benchmark_out=" + path);
            args.push_back("--benchmark_out_format=json");
            break;
        }
    }
    std::vector<char *> cargs;
    for (std::string &a : args)
        cargs.push_back(a.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
