/**
 * @file
 * Deterministic parallel execution primitives for embarrassingly
 * parallel sweeps.
 *
 * Every figure/table reproduction evaluates a grid of independent
 * configurations (architectures x loads x knobs); classic parallel-DES
 * work (Fujimoto's survey) observes that independent replications are
 * the highest-leverage parallelism for such studies, because each
 * replication stays a plain sequential simulation.  These helpers run
 * a task set on a small fixed-size thread pool with two invariants
 * that make parallelism invisible to the results:
 *
 *  - results land by input index, never by completion order, so any
 *    downstream rendering sees the same sequence as a serial run; and
 *  - jobs <= 1 is a true serial fallback (no threads are created and
 *    tasks run inline on the caller's thread), so `--jobs 1` is
 *    byte-for-byte the pre-parallel behavior.
 *
 * Tasks must not touch shared mutable state; per-task randomness
 * derives from deriveSeed(base, index) so a task's stream depends
 * only on its index, not on which worker ran it.
 */

#ifndef HSIPC_COMMON_PARALLEL_HH
#define HSIPC_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hh" // deriveSeed

namespace hsipc::parallel
{

/** Jobs to use when the user asks for "all cores": >= 1 always. */
int defaultJobs();

/**
 * A fixed-size pool of worker threads draining one task queue.
 * Submitted tasks run in submission order (each on whichever worker
 * frees up first); wait() blocks until the queue is empty and every
 * worker is idle.  The destructor waits, then joins.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers.size()); }

    /** Enqueue @p task; it may start immediately on another thread. */
    void submit(std::function<void()> task);

    /** Block until all submitted tasks have finished. */
    void wait();

  private:
    void workerLoop();

    std::mutex mutex;
    std::condition_variable taskReady; //!< workers: queue non-empty/stop
    std::condition_variable allIdle;   //!< wait(): queue drained
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    int active = 0; //!< tasks currently executing
    bool stopping = false;
};

/**
 * Run body(0..count-1) on up to @p jobs workers.  Indices are claimed
 * in order from a shared counter, so early indices start first, but
 * no completion-order guarantee exists — write results into
 * index-addressed slots.  jobs <= 1 (or count <= 1) runs inline with
 * no thread machinery at all.  The first exception a body throws is
 * rethrown on the caller's thread after all workers stop.
 */
void parallelFor(int jobs, std::size_t count,
                 const std::function<void(std::size_t)> &body);

/**
 * Evaluate @p tasks and return their results in input order,
 * regardless of completion order.  T must be default-constructible
 * and movable.
 */
template <typename T>
std::vector<T>
runAll(int jobs, const std::vector<std::function<T()>> &tasks)
{
    std::vector<T> results(tasks.size());
    parallelFor(jobs, tasks.size(),
                [&](std::size_t i) { results[i] = tasks[i](); });
    return results;
}

} // namespace hsipc::parallel

#endif // HSIPC_COMMON_PARALLEL_HH
