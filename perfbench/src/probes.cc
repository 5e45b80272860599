/**
 * @file
 * Layer probes: time single public functions of the simulator's
 * lower layers directly, outside any workload run. Each probe reports
 * the median over several batches, per operation.
 */

#include "bench.hh"
#include "core/simulation.hh"
#include "mem/cache_array.hh"
#include "mem/mem_system.hh"
#include "sim/eventq.hh"

using namespace varsim;

namespace perfbench
{

namespace
{

constexpr int kBatches = 7;

/** Where probe loops leave a result, so none is optimized away. */
volatile std::uintptr_t sinkHole = 0;

/** Median over kBatches of (time of batch() / opsPerBatch), in ns. */
template <typename F>
double
nsPerOp(double opsPerBatch, F &&batch)
{
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        batch();
        ns.push_back(secondsSince(t0) * 1e9 / opsPerBatch);
    }
    return median(ns);
}

/** EventQueue::schedule plus dispatch, per event. */
double
eventQueueNs()
{
    class Nop : public sim::Event
    {
      public:
        void process() override {}
    };
    sim::EventQueue eq;
    std::vector<Nop> events(64);
    constexpr int kRounds = 20000;
    return nsPerOp(64.0 * kRounds, [&] {
        for (int r = 0; r < kRounds; ++r) {
            const sim::Tick t = eq.curTick();
            for (std::size_t i = 0; i < events.size(); ++i)
                eq.schedule(&events[i], t + 1 + i % 16);
            while (!eq.empty())
                eq.step();
        }
    });
}

/** CacheArray::findAndTouch on resident lines, per probe. */
double
cacheProbeNs()
{
    mem::CacheArray array(4 * 1024 * 1024, 4, 64);
    mem::CacheLine victim;
    constexpr sim::Addr kSpan = 4096 * 64;
    for (sim::Addr a = 0; a < kSpan; a += 64) {
        auto [line, evicted] = array.allocate(a, victim);
        (void)evicted;
        line->state = mem::LineState::Shared;
    }
    constexpr int kProbes = 2000000;
    std::uintptr_t sink = 0;
    const double ns = nsPerOp(kProbes, [&] {
        sim::Addr a = 0;
        for (int i = 0; i < kProbes; ++i) {
            sink += reinterpret_cast<std::uintptr_t>(
                array.findAndTouch(a));
            a = (a + 64 * 7) % kSpan;
        }
    });
    sinkHole = sink;
    return ns;
}

/** One L2-miss round trip (request, snoop or home, fill), per miss. */
double
l2MissNs(mem::CoherenceProtocol protocol)
{
    sim::EventQueue eq;
    mem::MemConfig cfg;
    cfg.protocol = protocol;
    mem::MemSystem ms("mem", eq, cfg);
    struct Sink : mem::MemClient
    {
        void memResponse(std::uint64_t) override {}
    } sink;
    ms.dcache(0).setClient(&sink);
    sim::Addr a = 0x1000'0000;
    std::uint64_t tag = 0;
    constexpr int kMisses = 20000;
    return nsPerOp(kMisses, [&] {
        for (int i = 0; i < kMisses; ++i) {
            ms.dcache(0).access({a, false, false, ++tag});
            eq.run();
            a += 64; // a fresh block: every access misses
        }
    });
}

/** OpStream::advance on a built workload's first thread, per op. */
double
opGenNs(const core::SystemConfig &sys, const workload::WorkloadParams &wl)
{
    core::Simulation simn(sys, wl);
    cpu::OpStream &s = simn.kernel().thread(0).stream();
    constexpr int kOps = 200000;
    std::uintptr_t sink = 0;
    const double ns = nsPerOp(kOps, [&] {
        for (int i = 0; i < kOps; ++i) {
            sink += reinterpret_cast<std::uintptr_t>(&s.current());
            s.advance();
        }
    });
    sinkHole = sink;
    return ns;
}

/** runTransactions per transaction, detailed and in fast mode. */
void
cpuNsPerTxn(const core::SystemConfig &sys,
            const workload::WorkloadParams &wl, double *detailNs,
            double *fastNs)
{
    core::Simulation simn(sys, wl);
    simn.seedPerturbation(1);
    simn.runTransactions(100);
    constexpr int kTxns = 50;
    *detailNs = nsPerOp(kTxns, [&] { simn.runTransactions(kTxns); });
    simn.setFastMode(true);
    *fastNs = nsPerOp(kTxns, [&] { simn.runTransactions(kTxns); });
}

} // anonymous namespace

void
runLayerProbes(const Workload &w, Metrics &m)
{
    core::SystemConfig sys;
    workload::WorkloadParams wl;
    w.probeConfig(sys, wl);
    m.set("sim.eventq_ns", eventQueueNs(), "ns");
    m.set("mem.cache_probe_ns", cacheProbeNs(), "ns");
    m.set("mem.snoop_miss_ns", l2MissNs(mem::CoherenceProtocol::Snooping),
          "ns");
    m.set("mem.dir_miss_ns", l2MissNs(mem::CoherenceProtocol::Directory),
          "ns");
    m.set("workload.opgen_ns", opGenNs(sys, wl), "ns");
    double detail = 0, fast = 0;
    cpuNsPerTxn(sys, wl, &detail, &fast);
    m.set("cpu.detail_ns_per_txn", detail, "ns");
    m.set("cpu.fast_ns_per_txn", fast, "ns");
}

} // namespace perfbench
