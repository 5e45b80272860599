/**
 * @file
 * End-to-end tests of the per-run metrics export: the registry dump
 * is byte-stable across identical runs, collecting it is
 * timing-neutral (the golden pins hold with stats dumped, and
 * dumping never advances a tick), its values agree with the harness's
 * own aggregate counters, and the host profile is populated (each
 * runner times construction, warm-up and measurement apart).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/varsim.hh"
#include "sample/runner.hh"
#include "sim/jsonl.hh"

namespace
{

using namespace varsim;

core::SystemConfig
exportSys()
{
    core::SystemConfig sys = core::SystemConfig::testDefault();
    sys.mem.perturbMaxNs = 4;
    return sys;
}

workload::WorkloadParams
exportWl()
{
    workload::WorkloadParams wl;
    wl.kind = workload::WorkloadKind::Oltp;
    wl.threadsPerCpu = 2;
    return wl;
}

core::RunConfig
exportRun(std::uint64_t seed)
{
    core::RunConfig rc;
    rc.warmupTxns = 10;
    rc.measureTxns = 40;
    rc.perturbSeed = seed;
    return rc;
}

TEST(StatsExport, JsonlIsByteStableAcrossIdenticalRuns)
{
    const auto sys = exportSys();
    const auto a = core::runOnce(sys, exportWl(), exportRun(11));
    const auto b = core::runOnce(sys, exportWl(), exportRun(11));
    ASSERT_FALSE(a.stats.empty());
    EXPECT_EQ(a.statsJsonl(), b.statsJsonl());
}

TEST(StatsExport, DumpIsPureAndTickNeutral)
{
    const auto sys = exportSys();
    core::Simulation simn(sys, exportWl());
    simn.seedPerturbation(11);
    simn.runTransactions(20);

    const sim::Tick before = simn.now();
    const auto d1 = simn.statsRegistry().dump();
    const auto d2 = simn.statsRegistry().dump();
    EXPECT_EQ(simn.now(), before)
        << "dump() advanced simulated time";
    EXPECT_EQ(sim::statistics::toJsonl(d1),
              sim::statistics::toJsonl(d2))
        << "dump() perturbed its own next dump";
}

TEST(StatsExport, GoldenPinsHoldWithStatsCollected)
{
    // The seed-11 Oltp golden pins from test_determinism_golden.cc:
    // taking the registry dump is observation only, so the pinned
    // simulated results must be bitwise unchanged.
    const auto sys = exportSys();
    const auto r = core::runOnce(sys, exportWl(), exportRun(11));
    EXPECT_EQ(r.runtimeTicks, 186781ull);
    EXPECT_EQ(r.txns, 40ull);
    EXPECT_EQ(r.mem.l2Misses, 3948ull);
    EXPECT_EQ(r.os.dispatches, 43ull);
    EXPECT_EQ(r.cpu.instructions, 125432ull);
    ASSERT_FALSE(r.stats.empty());
}

TEST(StatsExport, DumpAgreesWithHarnessCounters)
{
    const auto sys = exportSys();
    const auto r = core::runOnce(sys, exportWl(), exportRun(11));

    sim::JsonLine line;
    ASSERT_TRUE(line.parse(r.statsJsonl()));

    // Registry values are the same counters the harness aggregates.
    EXPECT_EQ(line.real("system.mem.bus.l2_misses"),
              static_cast<double>(r.mem.l2Misses));
    EXPECT_EQ(line.real("system.kernel.dispatches"),
              static_cast<double>(r.os.dispatches));
    EXPECT_EQ(line.real("system.kernel.transactions"),
              static_cast<double>(r.os.transactions));

    double instrs = 0.0;
    for (std::size_t c = 0; c < sys.numCpus(); ++c)
        instrs += line.real(
            sim::format("system.cpu%zu.instructions", c));
    EXPECT_EQ(instrs, static_cast<double>(r.cpu.instructions));

    // Sim-level formulas.
    EXPECT_EQ(line.real("sim.txns"),
              static_cast<double>(r.txns + 10)); // warmup + measure
    EXPECT_GT(line.real("sim.ticks"), 0.0);
    EXPECT_GT(line.real("sim.events_dispatched"), 0.0);

    // Distribution expansion made it through the pipeline.
    EXPECT_GT(line.real("system.mem.bus.queue_delay.count"), 0.0);
    EXPECT_GE(line.real("system.mem.bus.queue_delay.max"),
              line.real("system.mem.bus.queue_delay.min"));
}

TEST(StatsExport, EverySimObjectContributes)
{
    const auto sys = exportSys();
    core::Simulation simn(sys, exportWl());
    const auto &reg = simn.statsRegistry();
    // One representative metric per registered SimObject family.
    EXPECT_TRUE(reg.has("system.mem.bus.transactions"));
    EXPECT_TRUE(reg.has("system.mem.node0.l2.hits"));
    EXPECT_TRUE(reg.has("system.mem.node0.l1i.misses"));
    EXPECT_TRUE(reg.has("system.mem.node0.l1d.miss_ratio"));
    EXPECT_TRUE(reg.has("system.mem.l1_miss_ratio"));
    EXPECT_TRUE(reg.has("system.cpu0.instructions"));
    EXPECT_TRUE(reg.has("system.kernel.lock_acquires"));
    EXPECT_TRUE(reg.has("sim.ticks"));
}

TEST(StatsExport, MetricOfByNameAndAnalyze)
{
    const auto sys = exportSys();
    core::ExperimentConfig exp;
    exp.numRuns = 3;
    exp.baseSeed = 11;
    exp.hostThreads = 1;
    const auto results =
        core::runMany(sys, exportWl(), exportRun(0), exp);

    const auto misses =
        core::metricOf(results, "system.mem.bus.l2_misses");
    ASSERT_EQ(misses.size(), 3u);
    EXPECT_EQ(misses[0],
              static_cast<double>(results[0].mem.l2Misses));

    // Built-ins resolve without touching the dump.
    const auto cpt = core::metricOf(results, "cycles_per_txn");
    EXPECT_EQ(cpt, core::metricOf(results));

    const auto rep =
        core::analyze(results, "system.mem.bus.l2_misses");
    EXPECT_EQ(rep.summary.n, 3u);
    EXPECT_FALSE(std::isnan(rep.coefficientOfVariation));
}

TEST(StatsExport, HostProfileIsPopulated)
{
    const auto sys = exportSys();
    const auto r = core::runOnce(sys, exportWl(), exportRun(11));
    EXPECT_GT(r.host.eventsDispatched, 0u);
    EXPECT_GT(r.host.constructWallSec, 0.0);
    EXPECT_GE(r.host.warmupWallSec, 0.0);
    EXPECT_GT(r.host.measureWallSec, 0.0);
    EXPECT_GT(r.host.eventsPerSec, 0.0);
    EXPECT_GT(r.host.hostMips, 0.0);
}

TEST(StatsExport, EveryRunnerTimesConstruction)
{
    const auto sys = exportSys();
    const auto wl = exportWl();

    core::Simulation warm(sys, wl);
    warm.runTransactions(10);
    const core::Checkpoint cp = warm.checkpoint();
    core::RunConfig fromCp = exportRun(12);
    fromCp.warmupTxns = 0;
    const auto restored = core::runFromCheckpoint(sys, wl, cp, fromCp);
    EXPECT_GT(restored.host.constructWallSec, 0.0);
    EXPECT_GT(restored.host.measureWallSec, 0.0);

    core::RunConfig sampled = exportRun(13);
    sampled.measureTxns = 200;
    ASSERT_TRUE(core::SampleConfig::parse("systematic:100:10:20",
                                          sampled.sample));
    const auto s = sample::runOnce(sys, wl, sampled);
    ASSERT_TRUE(s.sampled.enabled);
    EXPECT_GT(s.host.constructWallSec, 0.0);
    EXPECT_GT(s.host.measureWallSec, 0.0);
    const auto sr = sample::runFromCheckpoint(sys, wl, cp, sampled);
    EXPECT_GT(sr.host.constructWallSec, 0.0);

    // measure() on a ready-made simulation has nothing to time.
    core::Simulation ready(sys, wl);
    const auto m = core::measure(ready, exportRun(14), sys.numCpus());
    EXPECT_EQ(m.host.constructWallSec, 0.0);
}

} // anonymous namespace
