/**
 * @file
 * Microbenchmarks of the simulator's hot paths (google-benchmark):
 * the event queue, the RNG, tag-array probes, coherence
 * transactions, the statistics kernels, simulation set-up, and
 * end-to-end simulated transaction throughput. These quantify the simulator's own cost —
 * the paper's motivation for a multiple-short-runs methodology is
 * that simulation is ~24,000x slower than the target (Section 1),
 * so per-event costs decide what experiments are feasible.
 */

#include <benchmark/benchmark.h>

#include "core/varsim.hh"
#include "cpu/simple_cpu.hh"

using namespace varsim;

namespace
{

void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    sim::EventQueue eq;
    class Nop : public sim::Event
    {
      public:
        void process() override {}
    };
    std::vector<Nop> events(64);
    std::uint64_t t = 0;
    for (auto _ : state) {
        for (auto &ev : events)
            eq.schedule(&ev, t + 1 + (&ev - events.data()) % 16);
        while (!eq.empty())
            eq.step();
        t = eq.curTick();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

/**
 * Steady-state hold model of the event queue: 35 pending events, and
 * every dispatch schedules one successor, so the queue stays at the
 * occupancy a simulation sees. Delays follow the mix measured on an
 * ECPerf run: 28% at most 16 ticks, 70% 17-256, 1.5% 257-4096 and
 * 0.5% beyond (about 20000 ticks on average). As in that run, the
 * rare long delays make up about half of the pending events. One
 * item is one dispatch plus one schedule.
 */
void
BM_EventQueueHold(benchmark::State &state)
{
    sim::EventQueue eq;
    std::vector<sim::Tick> delays(4096);
    sim::Random rng(7);
    for (sim::Tick &d : delays) {
        const double u = rng.uniformReal();
        d = u < 0.28    ? rng.uniformInt(1, 16)
            : u < 0.98  ? rng.uniformInt(17, 256)
            : u < 0.995 ? rng.uniformInt(257, 4096)
                        : rng.uniformInt(4097, 36864);
    }
    class Hold : public sim::Event
    {
      public:
        Hold(sim::EventQueue &q, const std::vector<sim::Tick> &d,
             std::size_t &next)
            : q_(q), delays_(d), next_(next)
        {}
        void
        process() override
        {
            q_.schedule(this, q_.curTick() +
                                  delays_[next_++ % delays_.size()]);
        }

      private:
        sim::EventQueue &q_;
        const std::vector<sim::Tick> &delays_;
        std::size_t &next_;
    };
    std::size_t next = 0;
    std::vector<std::unique_ptr<Hold>> events;
    for (int i = 0; i < 35; ++i) {
        events.push_back(std::make_unique<Hold>(eq, delays, next));
        eq.schedule(events.back().get(), delays[next++]);
    }
    for (auto _ : state)
        eq.step();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold);

void
BM_RandomNext(benchmark::State &state)
{
    sim::Random rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.next();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomNext);

void
BM_RandomUniformInt(benchmark::State &state)
{
    sim::Random rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.uniformInt(0, 4);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomUniformInt);

void
BM_ZipfSample(benchmark::State &state)
{
    sim::Random rng(1);
    sim::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)),
                          1.0);
    std::size_t sink = 0;
    for (auto _ : state)
        sink += zipf.sample(rng);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(65536);

void
BM_CacheArrayHit(benchmark::State &state)
{
    mem::CacheArray array(4 * 1024 * 1024, 4, 64);
    mem::CacheLine victim;
    for (sim::Addr a = 0; a < 256 * 64; a += 64) {
        auto [line, _] = array.allocate(a, victim);
        line->state = mem::LineState::Shared;
    }
    sim::Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.findAndTouch(a));
        a = (a + 64) % (256 * 64);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayHit);

void
BM_CoherenceTransaction(benchmark::State &state)
{
    // L2-miss round trips (request, snoop, fill) through the 16-node
    // snooping memory system: k = state.range(0) nodes read a fresh
    // block, then node 0 writes it — k GetS plus one GetM that
    // invalidates k sharers. k = 0 is a lone cold write miss.
    const auto sharers = static_cast<std::size_t>(state.range(0));
    sim::EventQueue eq;
    mem::MemConfig cfg;
    mem::MemSystem ms("mem", eq, cfg);
    struct Sink : mem::MemClient
    {
        void memResponse(std::uint64_t) override {}
    } sink;
    for (std::size_t n = 0; n <= sharers; ++n)
        ms.dcache(n).setClient(&sink);
    sim::Addr a = 0x1000'0000;
    std::uint64_t tag = 0;
    for (auto _ : state) {
        for (std::size_t n = 1; n <= sharers; ++n) {
            ms.dcache(n).access({a, false, false, ++tag});
            eq.run();
        }
        ms.dcache(0).access({a, true, false, ++tag});
        eq.run();
        a += 64; // always a fresh block: every access is a miss
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(sharers + 1));
}
BENCHMARK(BM_CoherenceTransaction)->Arg(0)->Arg(3)->Arg(15);

void
BM_StudentTQuantile(benchmark::State &state)
{
    double p = 0.90;
    double sink = 0.0;
    for (auto _ : state) {
        sink += stats::studentTQuantile(p, 19.0);
        p = p > 0.99 ? 0.90 : p + 0.0001;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_StudentTQuantile);

void
BM_OneWayAnova(benchmark::State &state)
{
    std::vector<std::vector<double>> groups(8);
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (int i = 0; i < 20; ++i)
            groups[g].push_back(double(g) + 0.1 * i);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::oneWayAnova(groups));
}
BENCHMARK(BM_OneWayAnova);

void
BM_OltpTransactionThroughput(benchmark::State &state)
{
    // End-to-end simulated OLTP transactions per host-second on the
    // 16-CPU paper target.
    core::SystemConfig sys;
    workload::WorkloadParams wl;
    core::Simulation simn(sys, wl);
    simn.seedPerturbation(1);
    simn.runTransactions(50); // boot + warm
    for (auto _ : state)
        simn.runTransactions(10);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_OltpTransactionThroughput)
    ->Unit(benchmark::kMillisecond);

/**
 * Build and destroy one paper-default (16-node) Simulation, the
 * fixed cost every run of a multiple-simulation experiment pays
 * before its warm-up. Arg 0: 0 = OLTP, 1 = ECPerf. Arg 1: 1 keeps a
 * second simulation of the workload live throughout, as the other
 * clients of a parallel sweep do, so its Zipf tables are shared
 * instead of rebuilt. After the first iteration the tag arena comes
 * back from the pool, so this is the steady-state per-run cost.
 */
void
BM_SimulationConstruct(benchmark::State &state)
{
    const auto sys = core::SystemConfig::paperDefault();
    workload::WorkloadParams wl;
    wl.kind = state.range(0) == 0 ? workload::WorkloadKind::Oltp
                                  : workload::WorkloadKind::EcPerf;
    std::unique_ptr<core::Simulation> other;
    if (state.range(1) != 0)
        other = std::make_unique<core::Simulation>(sys, wl);
    for (auto _ : state) {
        core::Simulation simn(sys, wl);
        benchmark::DoNotOptimize(&simn);
    }
}
BENCHMARK(BM_SimulationConstruct)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Unit(benchmark::kMillisecond);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    // Op-stream generation cost alone (no timing simulation).
    sim::EventQueue eq;
    mem::MemConfig mcfg;
    mem::MemSystem ms("mem", eq, mcfg);
    cpu::CpuConfig ccfg;
    std::vector<std::unique_ptr<cpu::BaseCpu>> cpus;
    std::vector<cpu::BaseCpu *> ptrs;
    for (int i = 0; i < 16; ++i) {
        cpus.push_back(std::make_unique<cpu::SimpleCpu>(
            sim::format("cpu%d", i), eq, ccfg, ms.icache(i),
            ms.dcache(i), i));
        ptrs.push_back(cpus.back().get());
    }
    os::OsConfig oscfg;
    os::Kernel kernel("kernel", eq, oscfg, ptrs);
    workload::WorkloadParams params;
    auto wl = workload::Workload::build(params, kernel, 16, 64);
    cpu::OpStream &s = kernel.thread(0).stream();
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            benchmark::DoNotOptimize(s.current());
            s.advance();
            ++ops;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_WorkloadGeneration);

} // anonymous namespace

BENCHMARK_MAIN();
