#include "core/executor.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>

#include "sim/logging.hh"

namespace varsim
{
namespace core
{

namespace
{

std::size_t
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // anonymous namespace

/** One parallelFor call; lives on its caller's stack. */
struct Executor::Batch
{
    const std::function<void(std::size_t)> &job;
    const std::size_t n;
    std::atomic<std::size_t> next{0};
    std::size_t claimers = 0; ///< claim tasks running; mu
    std::exception_ptr error; ///< first job exception; mu
};

Executor::Executor(std::size_t maxThreads)
    : maxThreads(maxThreads != 0 ? maxThreads : hardwareThreads())
{
}

Executor::~Executor()
{
    stop();
}

Executor &
Executor::shared()
{
    static Executor ex(std::numeric_limits<std::size_t>::max());
    return ex;
}

void
Executor::enqueue(Task task)
{
    if (stopping)
        return;
    queue.push_back(std::move(task));
    if (queue.size() > idle && threads.size() < maxThreads) {
        try {
            threads.emplace_back([this] { workerMain(); });
        } catch (...) {
            // Out of threads: a running worker takes the task later.
            // With none, it would never run (and a batch's claim
            // task would outlive the batch), so withdraw it.
            if (threads.empty()) {
                queue.pop_back();
                throw;
            }
        }
    }
    work.notify_one();
    done.notify_all();
}

void
Executor::post(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lk(mu);
    enqueue({std::move(fn)});
}

void
Executor::parallelFor(std::size_t n, std::size_t maxWorkers,
                      const std::function<void(std::size_t)> &job)
{
    const std::size_t workers =
        std::min(maxWorkers != 0 ? maxWorkers : hardwareThreads(), n);
    if (workers <= 1) {
        // Inline: no executor traffic, exceptions propagate directly.
        for (std::size_t i = 0; i < n; ++i)
            job(i);
        return;
    }

    Batch b{job, n, {0}, 0, nullptr};
    {
        std::lock_guard<std::mutex> lk(mu);
        for (std::size_t k = 1; k < workers; ++k)
            enqueue({nullptr, &b});
    }
    claim(b);

    // Every index is claimed. Withdraw the claim tasks no worker
    // took, then wait out the ones still in a job, running queued
    // tasks meanwhile: that is what lets batches nest and overlap.
    std::unique_lock<std::mutex> lk(mu);
    std::erase_if(queue, [&](const Task &t) { return t.batch == &b; });
    while (b.claimers != 0) {
        if (queue.empty())
            done.wait(lk);
        else
            runFront(lk);
    }
    if (b.error)
        std::rethrow_exception(b.error);
}

void
Executor::claim(Batch &b)
{
    for (std::size_t i; (i = b.next.fetch_add(1)) < b.n;) {
        try {
            b.job(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            if (!b.error)
                b.error = std::current_exception();
            b.next.store(b.n); // cancel the unclaimed indices
        }
    }
}

void
Executor::stop()
{
    std::deque<Task> discarded;
    std::vector<std::thread> joining;
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
        discarded.swap(queue);
        joining.swap(threads);
    }
    work.notify_all();
    done.notify_all();
    for (std::thread &t : joining)
        t.join();
}

std::size_t
Executor::workerCount() const
{
    std::lock_guard<std::mutex> lk(mu);
    return threads.size();
}

void
Executor::runFront(std::unique_lock<std::mutex> &lk)
{
    Task task = std::move(queue.front());
    queue.pop_front();
    if (Batch *b = task.batch) {
        ++b->claimers;
        lk.unlock();
        claim(*b);
        lk.lock();
        if (--b->claimers == 0)
            done.notify_all();
        return;
    }
    lk.unlock();
    try {
        task.fn();
    } catch (const std::exception &e) {
        sim::warn("executor: task failed: %s", e.what());
    } catch (...) {
        sim::warn("executor: task failed with a non-standard "
                  "exception");
    }
    task.fn = nullptr; // captures die outside the lock
    lk.lock();
}

void
Executor::workerMain()
{
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        ++idle;
        work.wait(lk, [this] { return stopping || !queue.empty(); });
        --idle;
        if (stopping)
            return;
        runFront(lk);
    }
}

} // namespace core
} // namespace varsim
