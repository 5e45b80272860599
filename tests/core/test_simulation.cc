/**
 * @file
 * Integration tests of the full simulation stack, checking the
 * properties the paper's methodology rests on:
 *
 *  1. the simulator is deterministic: same seed => bit-identical
 *     results (Section 2.3: "most simulators ... are deterministic");
 *  2. with the perturbation disabled, the seed does not matter at
 *     all — the injected randomness is the ONLY random input;
 *  3. distinct seeds expose genuine space variability (Section 3.3);
 *  4. checkpoints restore bit-exactly: two restores with the same
 *     seed agree, restores with different seeds diverge.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/varsim.hh"
#include "mem/tag_arena.hh"

namespace varsim
{
namespace core
{
namespace
{

SystemConfig
smallSys(sim::Tick perturb = 4)
{
    SystemConfig sys = SystemConfig::testDefault();
    sys.mem.perturbMaxNs = perturb;
    return sys;
}

workload::WorkloadParams
smallOltp()
{
    workload::WorkloadParams wl;
    wl.kind = workload::WorkloadKind::Oltp;
    wl.threadsPerCpu = 4;
    return wl;
}

RunConfig
quickRun(std::uint64_t seed)
{
    RunConfig r;
    r.warmupTxns = 10;
    r.measureTxns = 40;
    r.perturbSeed = seed;
    return r;
}

// A recycled tag arena is indistinguishable from a fresh mapping:
// the second run takes back the first's dirty arena, zeroed on
// acquisition, and reproduces the fresh run bit for bit.
TEST(TagArenaReuse, RunMatchesTheSameRunInAFreshArena)
{
    mem::TagArena::trimPool();
    const auto s0 = mem::TagArena::poolStats();
    const RunResult fresh =
        runOnce(smallSys(), smallOltp(), quickRun(7));
    const auto s1 = mem::TagArena::poolStats();
    EXPECT_EQ(s1.mapped, s0.mapped + 1);
    const RunResult reused =
        runOnce(smallSys(), smallOltp(), quickRun(7));
    EXPECT_EQ(mem::TagArena::poolStats().reused, s1.reused + 1);
    EXPECT_EQ(fresh.cyclesPerTxn, reused.cyclesPerTxn);
    EXPECT_EQ(fresh.runtimeTicks, reused.runtimeTicks);
    EXPECT_EQ(fresh.statsJsonl(), reused.statsJsonl());
}

// Cache arrays hand their arena back all zero by zeroing the sets
// they wrote, so a recycled arena needs no memset. Checked on every
// path that writes tags: timed runs, functional warming (sampled
// runs) and checkpoint restore. The newest released arena of a size
// is the next one acquired, so the arena probed is the run's own.
TEST(TagArenaReuse, RunsHandTheirArenaBackZero)
{
    const SystemConfig sys = smallSys();
    const std::size_t bytes = mem::MemSystem::tagArenaBytes(sys.mem);
    auto expectZeroArena = [&](const char *what) {
        mem::TagArena arena(bytes);
        const auto *p = static_cast<const std::uint8_t *>(
            arena.take(bytes));
        const std::size_t nonzero = static_cast<std::size_t>(
            std::count_if(p, p + bytes,
                          [](std::uint8_t b) { return b != 0; }));
        EXPECT_EQ(nonzero, 0u) << what;
    };

    runOnce(sys, smallOltp(), quickRun(3));
    expectZeroArena("timed run");

    RunConfig sampled = quickRun(4);
    sampled.measureTxns = 200;
    ASSERT_TRUE(SampleConfig::parse("systematic:100:10:20",
                                    sampled.sample));
    core::runOnce(sys, smallOltp(), sampled);
    expectZeroArena("sampled run");

    Simulation warm(sys, smallOltp());
    warm.runTransactions(20);
    const Checkpoint cp = warm.checkpoint();
    RunConfig fromCp = quickRun(5);
    fromCp.warmupTxns = 0;
    runFromCheckpoint(sys, smallOltp(), cp, fromCp);
    expectZeroArena("restored run");
}

TEST(Simulation, SameSeedIsBitIdentical)
{
    const RunResult a = runOnce(smallSys(), smallOltp(),
                                quickRun(7));
    const RunResult b = runOnce(smallSys(), smallOltp(),
                                quickRun(7));
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.cyclesPerTxn, b.cyclesPerTxn);
    EXPECT_EQ(a.mem.l2Misses, b.mem.l2Misses);
    EXPECT_EQ(a.os.dispatches, b.os.dispatches);
    EXPECT_EQ(a.cpu.instructions, b.cpu.instructions);
}

// The smallest topology — one CPU, one memory node, threads
// oversubscribed so the scheduler still switches — runs and repeats
// bit for bit, down to the full stats dump.
TEST(Simulation, SingleCpuTopologyIsDeterministic)
{
    SystemConfig sys = smallSys();
    sys.mem.numNodes = 1;
    workload::WorkloadParams wl = smallOltp();
    wl.threadsPerCpu = 2;
    RunConfig rc = quickRun(11);
    rc.warmupTxns = 5;
    rc.measureTxns = 20;

    const RunResult a = runOnce(sys, wl, rc);
    const RunResult b = runOnce(sys, wl, rc);
    EXPECT_GT(a.txns, 0u);
    EXPECT_GT(a.os.dispatches, 0u);
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.cyclesPerTxn, b.cyclesPerTxn);
    EXPECT_EQ(a.statsJsonl(), b.statsJsonl());
}

TEST(Simulation, DifferentSeedsDiverge)
{
    const RunResult a = runOnce(smallSys(), smallOltp(),
                                quickRun(1));
    const RunResult b = runOnce(smallSys(), smallOltp(),
                                quickRun(2));
    EXPECT_NE(a.runtimeTicks, b.runtimeTicks);
}

TEST(Simulation, NoPerturbationMeansNoVariability)
{
    // Section 3.3: the perturbation is the sole random input. With
    // perturbMaxNs = 0 every seed produces the same execution.
    const RunResult a = runOnce(smallSys(0), smallOltp(),
                                quickRun(1));
    const RunResult b = runOnce(smallSys(0), smallOltp(),
                                quickRun(999));
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.mem.l2Misses, b.mem.l2Misses);
    EXPECT_EQ(a.os.preemptions, b.os.preemptions);
}

TEST(Simulation, MeasuresRequestedTransactions)
{
    const RunResult r = runOnce(smallSys(), smallOltp(),
                                quickRun(3));
    EXPECT_EQ(r.txns, 40u);
    EXPECT_GT(r.runtimeTicks, 0u);
    EXPECT_GT(r.cyclesPerTxn, 0.0);
    EXPECT_FALSE(r.workloadEnded);
}

TEST(Simulation, MetricIsAggregateCyclesPerTxn)
{
    const RunResult r = runOnce(smallSys(), smallOltp(),
                                quickRun(3));
    EXPECT_DOUBLE_EQ(r.cyclesPerTxn,
                     static_cast<double>(r.runtimeTicks) * 4 /
                         static_cast<double>(r.txns));
}

TEST(Simulation, CollectsSubsystemStats)
{
    const RunResult r = runOnce(smallSys(), smallOltp(),
                                quickRun(3));
    EXPECT_GT(r.cpu.instructions, 0u);
    EXPECT_GT(r.mem.l1Hits, 0u);
    EXPECT_GT(r.mem.l2Misses, 0u);
    EXPECT_GT(r.os.dispatches, 0u);
    EXPECT_GT(r.os.lockAcquires, 0u);
    EXPECT_GT(r.mem.perturbationTotal, 0u);
}

TEST(Simulation, WindowsPartitionTheRun)
{
    RunConfig rc = quickRun(5);
    rc.measureTxns = 40;
    rc.windowTxns = 10;
    const RunResult r = runOnce(smallSys(), smallOltp(), rc);
    EXPECT_EQ(r.windows.size(), 4u);
    for (double w : r.windows)
        EXPECT_GT(w, 0.0);
}

TEST(Simulation, ScientificWorkloadRunsToCompletion)
{
    workload::WorkloadParams wl;
    wl.kind = workload::WorkloadKind::Barnes;
    RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = 1;
    rc.perturbSeed = 1;
    const RunResult r = runOnce(smallSys(), wl, rc);
    EXPECT_EQ(r.txns, 1u);
    EXPECT_GT(r.runtimeTicks, 0u);
}

TEST(Simulation, DirectoryProtocolEndToEnd)
{
    SystemConfig sys = smallSys();
    sys.mem.protocol = mem::CoherenceProtocol::Directory;
    const RunResult a = runOnce(sys, smallOltp(), quickRun(7));
    const RunResult b = runOnce(sys, smallOltp(), quickRun(7));
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks)
        << "directory runs must be deterministic per seed";
    const RunResult c = runOnce(sys, smallOltp(), quickRun(8));
    EXPECT_NE(a.runtimeTicks, c.runtimeTicks)
        << "and diverge across seeds";
    EXPECT_GT(a.mem.cacheToCache, 0u);
}

TEST(Checkpoint, DirectoryProtocolRestoresBitExact)
{
    SystemConfig sys = smallSys();
    sys.mem.protocol = mem::CoherenceProtocol::Directory;
    Simulation simn(sys, smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(30);
    const Checkpoint cp = simn.checkpoint();

    RunConfig rc;
    rc.measureTxns = 30;
    rc.perturbSeed = 42;
    const RunResult a = runFromCheckpoint(sys, smallOltp(), cp, rc);
    const RunResult b = runFromCheckpoint(sys, smallOltp(), cp, rc);
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.mem.l2Misses, b.mem.l2Misses);
}

TEST(Simulation, TotalTxnsAccumulates)
{
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(10);
    EXPECT_EQ(simn.totalTxns(), 10u);
    simn.runTransactions(15);
    EXPECT_EQ(simn.totalTxns(), 25u);
}

TEST(Checkpoint, RestoreIsBitExact)
{
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(30);
    const Checkpoint cp = simn.checkpoint();
    EXPECT_GT(cp.size(), 0u);

    RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = 30;
    rc.perturbSeed = 42;
    const RunResult a =
        runFromCheckpoint(smallSys(), smallOltp(), cp, rc);
    const RunResult b =
        runFromCheckpoint(smallSys(), smallOltp(), cp, rc);
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.mem.l2Misses, b.mem.l2Misses);
    EXPECT_EQ(a.os.dispatches, b.os.dispatches);
}

TEST(Checkpoint, DifferentSeedsDivergeFromSameCheckpoint)
{
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(30);
    const Checkpoint cp = simn.checkpoint();

    RunConfig a;
    a.measureTxns = 30;
    a.perturbSeed = 10;
    RunConfig b = a;
    b.perturbSeed = 11;
    EXPECT_NE(
        runFromCheckpoint(smallSys(), smallOltp(), cp, a)
            .runtimeTicks,
        runFromCheckpoint(smallSys(), smallOltp(), cp, b)
            .runtimeTicks);
}

TEST(Checkpoint, RestorePreservesProgress)
{
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(25);
    const Checkpoint cp = simn.checkpoint();
    // checkpoint() drains in-flight work, which advances time; the
    // checkpoint records the post-drain instant.
    const sim::Tick when = simn.now();

    auto restored =
        Simulation::restore(smallSys(), smallOltp(), cp);
    EXPECT_EQ(restored->totalTxns(), 25u);
    EXPECT_EQ(restored->now(), when);
}

TEST(Checkpoint, SimulationContinuesAfterCheckpointing)
{
    // checkpoint() must be non-destructive.
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(10);
    simn.checkpoint();
    const Simulation::Progress p = simn.runTransactions(10);
    EXPECT_EQ(p.txns, 10u);
}

TEST(Checkpoint, RestoreWithDifferentTimingConfig)
{
    // The space-variability experiment design: one warmed
    // checkpoint, restored under *different* cache configurations
    // (Figure 1: runs 1 and 2 differ in L2 associativity).
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(20);
    const Checkpoint cp = simn.checkpoint();

    SystemConfig direct = smallSys();
    direct.mem.l2Assoc = 1;
    RunConfig rc;
    rc.measureTxns = 20;
    rc.perturbSeed = 5;
    const RunResult r =
        runFromCheckpoint(direct, smallOltp(), cp, rc);
    EXPECT_EQ(r.txns, 20u);
}

TEST(Checkpoint, MismatchedWorkloadDies)
{
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(5);
    const Checkpoint cp = simn.checkpoint();

    workload::WorkloadParams other;
    other.kind = workload::WorkloadKind::Apache;
    EXPECT_DEATH(
        { auto r = Simulation::restore(smallSys(), other, cp); },
        "");
}

TEST(Experiment, RunManyIsOrderedAndDeterministic)
{
    ExperimentConfig exp;
    exp.numRuns = 3;
    exp.baseSeed = 100;
    exp.hostThreads = 2;
    const auto r1 = runMany(smallSys(), smallOltp(), quickRun(0),
                            exp);
    exp.hostThreads = 1;
    const auto r2 = runMany(smallSys(), smallOltp(), quickRun(0),
                            exp);
    ASSERT_EQ(r1.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(r1[i].runtimeTicks, r2[i].runtimeTicks)
            << "host parallelism must not change results";
    }
    // Distinct seeds => (almost surely) distinct results.
    EXPECT_NE(r1[0].runtimeTicks, r1[1].runtimeTicks);
}

TEST(Experiment, RunManyFromCheckpointSharesWarmup)
{
    Simulation simn(smallSys(), smallOltp());
    simn.seedPerturbation(1);
    simn.runTransactions(20);
    const Checkpoint cp = simn.checkpoint();

    ExperimentConfig exp;
    exp.numRuns = 3;
    RunConfig rc;
    rc.measureTxns = 20;
    const auto rs = runManyFromCheckpoint(smallSys(), smallOltp(),
                                          cp, rc, exp);
    ASSERT_EQ(rs.size(), 3u);
    for (const auto &r : rs)
        EXPECT_EQ(r.txns, 20u);
}

TEST(Experiment, MetricOfExtractsCyclesPerTxn)
{
    RunResult a, b;
    a.cyclesPerTxn = 1.0;
    b.cyclesPerTxn = 2.0;
    EXPECT_EQ(metricOf({a, b}), (std::vector<double>{1.0, 2.0}));
}

} // namespace
} // namespace core
} // namespace varsim
