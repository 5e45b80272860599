/**
 * @file
 * The host-side executor behind every multi-run path: runMany*,
 * campaign rounds and the serve daemon.
 *
 * Separate simulations are the only parallel axis (the paper's
 * "coarse-grain parallelism", Section 5): one simulation is always
 * one thread, and the executor spreads whole runs over host threads.
 * It sits above core::Simulation, never inside it.
 *
 * An Executor is a FIFO of posted closures drained by worker threads
 * that are started on demand, up to a cap, and then persist: sweeps
 * call runMany() in a loop (every CLI experiment, every ablation),
 * and spawning and joining threads per call was paid once per
 * configuration.
 *
 * Two ways in:
 *  - post(fn) is asynchronous. The serve daemon keeps posting work
 *    as results stream in and never blocks a submission on another
 *    tenant's work. It posts *tokens*, not campaign cells: each
 *    token asks the scheduler for the globally best cell at the
 *    moment it runs (late binding), which is how fair-share
 *    admission stays accurate under completion-order churn.
 *  - parallelFor(n, maxWorkers, job) is a synchronous batch: it
 *    posts up to maxWorkers-1 claim tasks, then the caller claims
 *    indices itself and waits. Because the caller takes part, a
 *    one-worker batch runs inline with no synchronisation, and a
 *    batch always makes progress even when no worker is free. While
 *    it waits, the caller runs other queued tasks, so a job may
 *    start a batch of its own and batches posted from different
 *    threads overlap: neither deadlocks nor queues behind another.
 */

#ifndef VARSIM_CORE_EXECUTOR_HH
#define VARSIM_CORE_EXECUTOR_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace varsim
{
namespace core
{

class Executor
{
  public:
    /** At most @p maxThreads workers (0 = hardware concurrency). */
    explicit Executor(std::size_t maxThreads);

    /** stop()s and joins. */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * The process-wide executor of experiments and campaigns. It has
     * no thread cap of its own: each batch's maxWorkers bounds it.
     */
    static Executor &shared();

    /**
     * Enqueue @p fn, FIFO. A post after stop() is dropped (the
     * daemon's shutdown races its own completion callbacks; dropping
     * is the loser's correct outcome). A task that throws is
     * swallowed with a warning: one tenant's failure must not take
     * the executor down.
     */
    void post(std::function<void()> fn);

    /**
     * Run @p job(i) for i in [0, n) on at most @p maxWorkers threads
     * (0 = hardware concurrency), the caller included. Job order
     * across threads is unspecified, so callers key results by
     * index. If a job throws, unclaimed indices are cancelled,
     * in-flight jobs finish and the first exception is rethrown
     * here.
     */
    void parallelFor(std::size_t n, std::size_t maxWorkers,
                     const std::function<void(std::size_t)> &job);

    /**
     * Discard queued tasks, let running ones finish and join every
     * worker. Idempotent.
     */
    void stop();

    /** Worker threads alive (tests/diagnostics). */
    std::size_t workerCount() const;

  private:
    struct Batch;

    /** A posted closure, or (batch set) a claim task of a batch. */
    struct Task
    {
        std::function<void()> fn;
        Batch *batch = nullptr;
    };

    /** Queue @p task, starting a worker if none is free; mu held.
     *  Dropped after stop(). */
    void enqueue(Task task);

    /** Claim indices of @p b until none is left. */
    void claim(Batch &b);

    void workerMain();

    /** Pop the front task and run it with mu released; @p lk holds
     *  mu on entry and on return. */
    void runFront(std::unique_lock<std::mutex> &lk);

    const std::size_t maxThreads;

    mutable std::mutex mu;
    /** Workers: a task was queued, or stop() began. */
    std::condition_variable work;
    /** Batch callers: a task was queued, a claim task finished, or
     *  stop() began. Workers never wait here, so a batch's end wakes
     *  no idle worker. */
    std::condition_variable done;
    std::deque<Task> queue;
    std::size_t idle = 0; ///< workers waiting for a task
    bool stopping = false;
    /** Last: the workers use every member above. */
    std::vector<std::thread> threads;
};

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_EXECUTOR_HH
