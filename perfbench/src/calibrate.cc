#include "calibrate.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

// --- The event-loop probe -------------------------------------------

constexpr int kStations = 8;
constexpr int kPending = 16;
constexpr int kEvents = 100000;

struct Event
{
    double when;
    std::uint64_t seq;
    std::function<void()> fn;
};

struct Later
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
};

/**
 * A closed event loop: kPending events circulate among kStations
 * stations; each pop updates its station and schedules one successor
 * whose callback captures more than std::function's inline buffer, so
 * every event allocates, as a simulator bus grant does.
 */
struct EventLoop
{
    std::vector<Event> heap;
    double now = 0;
    std::uint64_t seq = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    double busy[kStations] = {};
    std::uint64_t served[kStations] = {};

    void
    schedule(double delay, int station, double a, double b)
    {
        heap.push_back({now + delay, seq++, [this, station, a, b] {
                            serve(station, a, b);
                        }});
        std::push_heap(heap.begin(), heap.end(), Later());
    }

    void
    serve(int station, double a, double b)
    {
        busy[station] += a * 0.5 + b;
        ++served[station];
        const std::uint64_t r = xorshift(rng);
        const double delay = 1.0 + double(r & 1023) * (1.0 / 64);
        schedule(delay, int((r >> 10) % kStations), delay, busy[station]);
    }

    double
    run()
    {
        heap.reserve(kPending + 1);
        for (int i = 0; i < kPending; ++i)
            schedule(double(i), i % kStations, 1.0, 0.0);
        for (int i = 0; i < kEvents; ++i) {
            std::pop_heap(heap.begin(), heap.end(), Later());
            Event e = std::move(heap.back());
            heap.pop_back();
            now = e.when;
            e.fn();
        }
        double sum = now;
        for (int s = 0; s < kStations; ++s)
            sum += busy[s] * 1e-9 + double(served[s]);
        return sum;
    }
};

// --- The stationary-solve probe -------------------------------------

constexpr int kRows = 6000;
constexpr int kPerRow = 14;
constexpr int kSweeps = 150;

/** A fixed, diagonally dominant sparse matrix in CSR form. */
struct Sparse
{
    std::vector<int> col;
    std::vector<double> val;
    std::vector<double> diag;

    Sparse()
    {
        std::uint64_t s = 0x2545f4914f6cdd1dull;
        for (int i = 0; i < kRows; ++i) {
            double off = 0;
            for (int k = 0; k < kPerRow; ++k) {
                const std::uint64_t r = xorshift(s);
                col.push_back(int(r % kRows));
                val.push_back(double((r >> 32) & 0xffff) / 65536.0 + 0.01);
                off += val.back();
            }
            diag.push_back(off * 1.25);
        }
    }
};

double
gaussSeidel()
{
    static const Sparse m;
    std::vector<double> x(kRows, 1.0);
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (int i = 0; i < kRows; ++i) {
            double acc = 1.0;
            const int base = i * kPerRow;
            for (int k = 0; k < kPerRow; ++k)
                acc += m.val[base + k] * x[m.col[base + k]];
            x[i] = 0.3 * x[i] + 0.7 * acc / m.diag[i];
        }
    }
    double sum = 0;
    for (double v : x)
        sum += v;
    return sum;
}

} // namespace

double
runProbe()
{
    static double expect = 0;
    const Clock::time_point t0 = Clock::now();
    const double sum = EventLoop().run() + gaussSeidel();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (expect == 0)
        expect = sum;
    if (sum != expect) {
        std::fprintf(stderr, "perfbench: host probe checksum changed\n");
        std::abort();
    }
    return s;
}

} // namespace perfbench
