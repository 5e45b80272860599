/**
 * @file
 * The executor: batch scheduling, exception propagation and reuse;
 * nested and concurrent batches; posted tasks (FIFO order, stop()
 * semantics, exception containment); and the multi-run entry points
 * built on it.
 *
 * The historical bug pinned by the batch cases: a job exception
 * thrown on a worker thread used to escape the thread's start
 * function and std::terminate the whole process. The executor must
 * instead capture the first exception, cancel unclaimed work,
 * rethrow on the caller and remain usable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/executor.hh"
#include "core/experiment.hh"

namespace
{

using varsim::core::Executor;
using namespace std::chrono_literals;

// ---------------------------------------------------------------
// parallelFor
// ---------------------------------------------------------------

TEST(Executor, RunsEveryIndexExactlyOnce)
{
    const std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    Executor::shared().parallelFor(
        n, 4, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Executor, SingleWorkerRunsInline)
{
    // With one worker the calling thread does everything, in order.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    Executor::shared().parallelFor(5, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Executor, PropagatesJobException)
{
    EXPECT_THROW(
        Executor::shared().parallelFor(
            8, 4,
            [](std::size_t i) {
                if (i == 3)
                    throw std::runtime_error("job 3 failed");
            }),
        std::runtime_error);
}

TEST(Executor, ExceptionCancelsUnclaimedWork)
{
    // Job 0 throws, so of 100 jobs only a handful (the ones already
    // claimed by concurrent workers) may still run.
    std::atomic<std::size_t> ran{0};
    try {
        Executor::shared().parallelFor(100, 2, [&](std::size_t i) {
            if (i == 0)
                throw std::runtime_error("first job failed");
            ++ran;
        });
        FAIL() << "exception did not propagate";
    } catch (const std::runtime_error &) {
    }
    // At most the other worker's in-flight job ran per thread; the
    // bulk of the indices must have been cancelled.
    EXPECT_LT(ran.load(), std::size_t{100});
}

TEST(Executor, UsableAfterException)
{
    Executor &ex = Executor::shared();
    EXPECT_THROW(ex.parallelFor(4, 4,
                                [](std::size_t) {
                                    throw std::logic_error("boom");
                                }),
                 std::logic_error);

    std::atomic<std::size_t> sum{0};
    ex.parallelFor(10, 4, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), std::size_t{45});
}

TEST(Executor, ConcurrentIndicesAreDisjoint)
{
    // Each index is claimed exactly once even under heavy worker
    // contention; collect them under a mutex and check the set.
    std::mutex mu;
    std::set<std::size_t> seen;
    Executor::shared().parallelFor(500, 8, [&](std::size_t i) {
        std::lock_guard<std::mutex> lk(mu);
        EXPECT_TRUE(seen.insert(i).second)
            << "index " << i << " ran twice";
    });
    EXPECT_EQ(seen.size(), std::size_t{500});
}

// A job may start a batch of its own (a deadlock here hangs; ctest's
// timeout turns that into a failure).
TEST(Executor, NestedParallelForCompletes)
{
    std::vector<std::atomic<int>> hits(16);
    Executor::shared().parallelFor(4, 4, [&](std::size_t i) {
        Executor::shared().parallelFor(4, 4, [&](std::size_t j) {
            ++hits[4 * i + j];
        });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1) << "index " << k;
}

// A batch posted from another thread starts while the first one is
// still running: a job of batch A waits for a job of batch B.
TEST(Executor, ConcurrentBatchesOverlap)
{
    std::atomic<bool> aStarted{false};
    std::atomic<bool> bStarted{false};
    std::atomic<int> aSawB{0};
    std::thread other([&] {
        while (!aStarted.load())
            std::this_thread::yield();
        Executor::shared().parallelFor(
            2, 2, [&](std::size_t) { bStarted.store(true); });
    });
    Executor::shared().parallelFor(2, 2, [&](std::size_t) {
        aStarted.store(true);
        const auto deadline = std::chrono::steady_clock::now() + 5s;
        while (!bStarted.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(1ms);
        aSawB += bStarted.load();
    });
    other.join();
    EXPECT_EQ(aSawB.load(), 2) << "batch B waited for batch A";
}

// ---------------------------------------------------------------
// post
// ---------------------------------------------------------------

TEST(Executor, PostRunsEverythingPosted)
{
    std::atomic<int> ran{0};
    std::latch done(101);
    Executor ex(4);
    for (int i = 0; i < 100; ++i)
        ex.post([&] {
            ++ran;
            done.count_down();
        });
    // Workers start on demand and never exceed the cap.
    EXPECT_LE(ex.workerCount(), 4u);
    EXPECT_GE(ex.workerCount(), 1u);

    // The executor keeps accepting after a burst.
    ex.post([&] {
        ++ran;
        done.count_down();
    });
    done.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(Executor, SingleWorkerPreservesFifoOrder)
{
    std::vector<int> order;
    std::latch done(16);
    Executor ex(1);
    for (int i = 0; i < 16; ++i)
        ex.post([&order, &done, i] {
            order.push_back(i);
            done.count_down();
        });
    done.wait();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Executor, StopDiscardsQueuedButFinishesRunning)
{
    std::mutex mu;
    std::condition_variable cv;
    bool release = false, started = false;
    std::atomic<int> ran{0};
    Executor ex(1);

    // The first task blocks the sole worker; the rest queue behind.
    ex.post([&] {
        std::unique_lock<std::mutex> lock(mu);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        ++ran;
    });
    for (int i = 0; i < 50; ++i)
        ex.post([&] { ++ran; });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return started; });
    }
    // Release the running task only once stop() has discarded the
    // queue and taken the workers to join (workerCount drops to 0).
    std::thread releaser([&] {
        while (ex.workerCount() != 0)
            std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        release = true;
        cv.notify_all();
    });
    ex.stop();
    releaser.join();
    // The running task completed; the queued ones were discarded.
    EXPECT_EQ(ran.load(), 1);

    // Posts after stop() are silently dropped.
    ex.post([&] { ran += 1000; });
    EXPECT_EQ(ex.workerCount(), 0u);
    EXPECT_EQ(ran.load(), 1);

    ex.stop(); // idempotent
}

TEST(Executor, ThrowingTaskDoesNotKillTheWorker)
{
    std::atomic<int> ran{0};
    std::latch done(1);
    Executor ex(1);
    ex.post([] { throw std::runtime_error("tenant bug"); });
    ex.post([&] {
        ++ran;
        done.count_down();
    });
    done.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(Executor, TasksMayPostMoreTasks)
{
    // The serve scheduler's refill does exactly this: a completing
    // cell posts the next round's tokens from inside a task.
    std::atomic<int> ran{0};
    std::latch done(21);
    Executor ex(2);
    std::function<void(int)> chain = [&](int depth) {
        ++ran;
        if (depth > 0)
            ex.post([&chain, depth] { chain(depth - 1); });
        done.count_down();
    };
    ex.post([&chain] { chain(20); });
    done.wait();
    ex.stop(); // no task still runs chain once it is destroyed
    EXPECT_EQ(ran.load(), 21);
}

// ---------------------------------------------------------------
// Multi-run entry points
// ---------------------------------------------------------------

// End to end: a workload that fails validation inside a pooled run
// must surface as an exception from runMany on the caller, not as
// std::terminate on a pool thread.
TEST(RunManyExceptions, ThrowingWorkloadPropagates)
{
    varsim::core::SystemConfig sys =
        varsim::core::SystemConfig::testDefault();
    varsim::workload::WorkloadParams wl;
    wl.kind = varsim::workload::WorkloadKind::Oltp;
    wl.scale = -1.0; // invalid: Workload::build throws

    varsim::core::RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = 10;

    varsim::core::ExperimentConfig exp;
    exp.numRuns = 4;
    exp.baseSeed = 1;
    exp.hostThreads = 4;

    EXPECT_THROW(varsim::core::runMany(sys, wl, rc, exp),
                 std::invalid_argument);

    // The serial path throws the same way.
    exp.hostThreads = 1;
    EXPECT_THROW(varsim::core::runMany(sys, wl, rc, exp),
                 std::invalid_argument);
}

TEST(RunManyBatch, MatchesPerSpecRunMany)
{
    varsim::core::SystemConfig sysA =
        varsim::core::SystemConfig::testDefault();
    varsim::core::SystemConfig sysB = sysA;
    sysB.mem.l2Assoc = 8;

    varsim::workload::WorkloadParams wl;
    wl.kind = varsim::workload::WorkloadKind::Apache;
    wl.threadsPerCpu = 2;

    varsim::core::RunConfig rc;
    rc.warmupTxns = 5;
    rc.measureTxns = 20;

    varsim::core::ExperimentConfig exp;
    exp.numRuns = 3;
    exp.baseSeed = 42;
    exp.hostThreads = 4;

    const auto batched = varsim::core::runManyBatch(
        {{sysA, wl, rc, exp}, {sysB, wl, rc, exp}});
    const auto plainA = varsim::core::runMany(sysA, wl, rc, exp);
    const auto plainB = varsim::core::runMany(sysB, wl, rc, exp);

    ASSERT_EQ(batched.size(), std::size_t{2});
    ASSERT_EQ(batched[0].size(), plainA.size());
    ASSERT_EQ(batched[1].size(), plainB.size());
    for (std::size_t i = 0; i < plainA.size(); ++i) {
        EXPECT_EQ(batched[0][i].runtimeTicks,
                  plainA[i].runtimeTicks);
        EXPECT_EQ(batched[0][i].txns, plainA[i].txns);
    }
    for (std::size_t i = 0; i < plainB.size(); ++i) {
        EXPECT_EQ(batched[1][i].runtimeTicks,
                  plainB[i].runtimeTicks);
        EXPECT_EQ(batched[1][i].txns, plainB[i].txns);
    }
}

} // namespace
