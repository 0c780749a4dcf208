#include "common/parallel/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/logging.hh"

namespace hsipc::parallel
{

int
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    hsipc_assert(threads >= 1);
    workers.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        stopping = true;
    }
    taskReady.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        queue.push_back(std::move(task));
    }
    taskReady.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex);
    allIdle.wait(lock,
                 [this]() { return queue.empty() && active == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            taskReady.wait(lock, [this]() {
                return stopping || !queue.empty();
            });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
            ++active;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex);
            --active;
            if (queue.empty() && active == 0)
                allIdle.notify_all();
        }
    }
}

void
parallelFor(int jobs, std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    if (jobs <= 1 || count <= 1) {
        // Serial fallback: inline on the caller's thread, exactly the
        // pre-parallel execution.
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    const int width =
        static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(jobs), count));
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    {
        ThreadPool pool(width);
        for (int w = 0; w < width; ++w) {
            pool.submit([&]() {
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= count ||
                        failed.load(std::memory_order_relaxed))
                        return;
                    try {
                        body(i);
                    } catch (...) {
                        std::unique_lock<std::mutex> lock(errorMutex);
                        if (!firstError)
                            firstError = std::current_exception();
                        failed.store(true,
                                     std::memory_order_relaxed);
                        return;
                    }
                }
            });
        }
        pool.wait();
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace hsipc::parallel
