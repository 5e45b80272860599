/**
 * @file
 * `sampled`: closed-loop clients call sample::runOnce (systematic
 * design) on long Apache and OLTP runs. Functional warming replaces
 * the timing protocol for most transactions, so the cpu and mem
 * layers are exercised through their fast paths: a fast-path gain
 * shows here and not in `sweep`, a timing-protocol gain the other
 * way round.
 *
 * cpt_err_pct compares each item's sampled cycles/txn with a
 * full-detail run of the same seeds. The reference runs come after
 * the timed phase and count toward neither set-up nor timing.
 */

#include <cmath>
#include <stdexcept>

#include "bench.hh"
#include "core/runner.hh"
#include "sample/runner.hh"

using namespace varsim;

namespace perfbench
{

namespace
{

struct Item
{
    std::string name;
    core::SystemConfig sys;
    workload::WorkloadParams wl;
    core::RunConfig run; ///< with the sampling design set
};

/**
 * Apache on the 16-node directory target, where detailed miss
 * traffic dominates, and OLTP on 8 nodes, where traps and locks keep
 * fast mode's ceiling low. Both out-of-order, both systematic.
 */
Item
baseItem(bool apache)
{
    Item it;
    it.sys = core::SystemConfig::paperDefault();
    it.sys.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
    it.run.warmupTxns = 100;
    const char *design;
    if (apache) {
        it.name = "apache";
        it.wl.kind = workload::WorkloadKind::Apache;
        it.sys.mem.protocol = mem::CoherenceProtocol::Directory;
        it.run.measureTxns = 4000;
        design = "systematic:500:16:64";
    } else {
        it.name = "oltp";
        it.wl.kind = workload::WorkloadKind::Oltp;
        it.sys.mem.numNodes = 8;
        it.run.measureTxns = 4000;
        design = "systematic:250:10:40";
    }
    if (!core::SampleConfig::parse(design, it.run.sample))
        throw std::logic_error("bad sampling design");
    return it;
}

/**
 * Items in the pool: one Apache to two OLTP. cpt_err_pct is a mean
 * over them, and its spread across seeds falls as 1/sqrt(items) with
 * most of it from OLTP's larger errors: half-and-half, 64 items gave
 * an IQR/median of 0.13 and 96 gave 0.10. One-to-two also keeps
 * op_p50_s inside the OLTP runs rather than between the two kinds.
 */
constexpr std::size_t kItems = 144;

/** An item whose sampled estimate is off by more is a failure. */
constexpr double kMaxErrPct = 25.0;

class Sampled : public Workload
{
  public:
    explicit Sampled(const Context &c) : Workload(c)
    {
        SeedStream ss(ctx.seed * 0x5a3dull + 7);
        for (std::size_t i = 0; i < kItems; ++i) {
            Item it = baseItem(i % 3 == 0);
            it.run.perturbSeed = ss.next() % 1000000 + 1;
            it.name += "/s" + std::to_string(it.run.perturbSeed);
            items.push_back(it);
        }
        results.resize(kItems);
    }

    std::size_t
    clients() const override
    {
        return ctx.clientThreads;
    }

    std::size_t
    numItems() const override
    {
        return items.size();
    }

    std::string
    itemName(std::size_t i) const override
    {
        return items[i].name;
    }

    std::size_t
    itemClass(std::size_t i) const override
    {
        return i % 3; // Apache, OLTP, OLTP
    }

    void
    setup() override
    {
        parallelFor(3, clients(), [&](std::size_t i) { run(i); });
    }

    OpOutput
    run(std::size_t item) override
    {
        const Item &it = items[item];
        const auto t0 = Clock::now();
        core::RunResult r;
        if (Tracer *t = ctx.tracer) {
            auto simn = warmedSimulation(t, it.sys, it.wl,
                                         it.run.perturbSeed,
                                         it.run.warmupTxns);
            core::RunConfig measured = it.run;
            measured.warmupTxns = 0;
            Span s(t, "sample.measure");
            r = sample::measure(*simn, measured, it.sys.numCpus());
        } else {
            r = sample::runOnce(it.sys, it.wl, it.run);
        }
        const double wall = secondsSince(t0);
        if (!r.sampled.enabled || r.sampled.windows == 0 ||
            r.sampled.fullDetailFallback)
            throw std::runtime_error(it.name + ": run was not sampled");
        {
            std::lock_guard<std::mutex> g(mu);
            Result &res = results[item];
            if (!res.done)
                res = {true, r.cyclesPerTxn, wall, 0.0, 0.0};
            else
                res.sampledWall = std::min(res.sampledWall, wall);
        }
        return {runDigest(r.cyclesPerTxn, r.stats),
                Counters::fromDump(r.stats)};
    }

    bool
    finishEndToEnd(Metrics &m) override
    {
        double err = 0;
        const bool ok = references(&err);
        m.set("cpt_err_pct", err, "%");
        return ok;
    }

    bool
    layerMetrics(Metrics &m) override
    {
        double err = 0;
        const bool ok = references(&err);
        std::vector<double> speedups;
        for (const Result &r : results)
            if (r.done)
                speedups.push_back(r.fullWall / r.sampledWall);
        m.set("sample.speedup", median(speedups), "x");
        return ok;
    }

    void
    probeConfig(core::SystemConfig &sys,
                workload::WorkloadParams &wl) const override
    {
        const Item it = baseItem(false);
        sys = it.sys;
        wl = it.wl;
    }

    /** Run every item once (the accuracy probe of other workloads). */
    void
    runAll()
    {
        parallelFor(items.size(), ctx.overheadThreads,
                    [&](std::size_t i) { run(i); });
    }

    /**
     * Full-detail reference of every item that ran; mean absolute
     * cycles/txn error in percent.
     */
    bool
    references(double *errPct)
    {
        std::vector<std::size_t> ran;
        for (std::size_t i = 0; i < results.size(); ++i)
            if (results[i].done && results[i].fullCpt == 0.0)
                ran.push_back(i);
        parallelFor(ran.size(), ctx.overheadThreads, [&](std::size_t k) {
            const Item &it = items[ran[k]];
            core::RunConfig full = it.run;
            full.sample = {};
            const auto t0 = Clock::now();
            const core::RunResult r = core::runOnce(it.sys, it.wl, full);
            const double wall = secondsSince(t0);
            std::lock_guard<std::mutex> g(mu);
            results[ran[k]].fullCpt = r.cyclesPerTxn;
            results[ran[k]].fullWall = wall;
        });
        double sum = 0;
        std::size_t n = 0;
        bool ok = true;
        for (const Result &r : results) {
            if (!r.done)
                continue;
            const double e =
                std::fabs(r.sampledCpt - r.fullCpt) / r.fullCpt * 100.0;
            ok = ok && std::isfinite(e) && e <= kMaxErrPct;
            sum += e;
            ++n;
        }
        *errPct = n ? sum / static_cast<double>(n) : 0.0;
        return ok && n > 0;
    }

  private:
    struct Result
    {
        bool done = false;
        double sampledCpt = 0, sampledWall = 0;
        double fullCpt = 0, fullWall = 0;
    };

    std::vector<Item> items;
    std::mutex mu;
    std::vector<Result> results; ///< per item, guarded by mu
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSampled(const Context &ctx)
{
    return std::make_unique<Sampled>(ctx);
}

bool
samplingAccuracyProbe(const Context &ctx, double *errPct)
{
    Sampled probe(ctx);
    probe.runAll();
    return probe.references(errPct);
}

} // namespace perfbench
