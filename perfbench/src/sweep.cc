/**
 * @file
 * `sweep`: the paper-regeneration traffic. Closed-loop clients call
 * core::runOnce (fresh boot, warm-up, full-detail measurement) over a
 * shuffled grid of figure cells, several seeds per cell. The event
 * kernel, the coherence fabrics, the timing CPUs, the OS and the op
 * generators do nearly all the work; ckpt, campaign and sample do
 * none.
 */

#include <stdexcept>

#include "bench.hh"
#include "core/runner.hh"

using namespace varsim;

namespace perfbench
{

namespace
{

struct Cell
{
    const char *name;
    core::SystemConfig sys;
    workload::WorkloadParams wl;
    core::RunConfig run;
    std::size_t seeds = 4; ///< perturbation seeds (items) per cell
};

/**
 * The cells. Run lengths are cut from the figures' so that one
 * operation stays under a second. ECPerf, Barnes and the OLTP cells
 * each take about a third of the host time.
 */
std::vector<Cell>
figureCells()
{
    auto cell = [](const char *name, workload::WorkloadKind kind,
                   std::uint64_t warmup, std::uint64_t measure) {
        Cell c{name, core::SystemConfig::paperDefault(), {}, {}};
        c.wl.kind = kind;
        c.run.warmupTxns = warmup;
        c.run.measureTxns = measure;
        return c;
    };
    using K = workload::WorkloadKind;
    std::vector<Cell> cells;
    // Fig. 7: ECPerf is the largest single cost of the sweep.
    cells.push_back(cell("ecperf", K::EcPerf, 1, 1));
    // Fig. 5: OLTP, simple CPU, L2 direct-mapped and 4-way.
    for (std::size_t assoc : {1, 4}) {
        Cell c = cell(assoc == 1 ? "oltp-l2assoc1" : "oltp-l2assoc4",
                      K::Oltp, 100, 200);
        c.sys.mem.l2Assoc = assoc;
        cells.push_back(c);
    }
    // Figs. 6 and 11: OLTP, out-of-order CPU, ROB 32 and 64.
    for (std::uint32_t rob : {32u, 64u}) {
        Cell c = cell(rob == 32 ? "oltp-ooo-rob32" : "oltp-ooo-rob64",
                      K::Oltp, 50, 50);
        c.sys.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
        c.sys.cpu.robEntries = rob;
        cells.push_back(c);
    }
    // Barrier-heavy scientific code (Fig. 7). One transaction is a
    // whole set of timesteps, four times an ECPerf op: one seed.
    {
        Cell c = cell("barnes", K::Barnes, 0, 1);
        c.seeds = 1;
        cells.push_back(c);
    }
    // The directory protocol (protocol ablation), OLTP.
    {
        Cell c = cell("oltp-directory", K::Oltp, 100, 200);
        c.sys.mem.protocol = mem::CoherenceProtocol::Directory;
        cells.push_back(c);
    }
    return cells;
}

class Sweep : public Workload
{
  public:
    explicit Sweep(const Context &c) : Workload(c)
    {
        SeedStream ss(ctx.seed * 0x5157ull + 1);
        const std::vector<Cell> cells = figureCells();
        for (std::size_t c = 0; c < cells.size(); ++c) {
            firstOfCell.push_back(items.size());
            for (std::size_t k = 0; k < cells[c].seeds; ++k) {
                Cell cell = cells[c];
                cell.run.perturbSeed = ss.next() % 1000000 + 1;
                items.push_back(cell);
                cellOf.push_back(c);
            }
        }
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

    std::size_t
    itemClass(std::size_t i) const override
    {
        return cellOf[i];
    }

    std::string
    itemName(std::size_t i) const override
    {
        const Cell &c = items[i];
        return std::string(c.name) + "/s" +
               std::to_string(c.run.perturbSeed);
    }

    void
    setup() override
    {
        // One run per cell, on the clients: the first Simulation of
        // each shape pays page faults and lazy allocation here.
        parallelFor(firstOfCell.size(), clients(), [&](std::size_t c) {
            run(firstOfCell[c]);
        });
    }

    OpOutput
    run(std::size_t item) override
    {
        const Cell &c = items[item];
        core::RunResult r;
        if (Tracer *t = ctx.tracer) {
            // The same run, split into its public steps.
            auto simn = warmedSimulation(t, c.sys, c.wl,
                                         c.run.perturbSeed,
                                         c.run.warmupTxns);
            core::RunConfig measured = c.run;
            measured.warmupTxns = 0;
            Span s(t, "core.measure");
            r = core::measure(*simn, measured, c.sys.numCpus());
        } else {
            r = core::runOnce(c.sys, c.wl, c.run);
        }
        if (r.txns != c.run.measureTxns)
            throw std::runtime_error(itemName(item) +
                                     ": measured a short run");
        return {runDigest(r.cyclesPerTxn, r.stats),
                Counters::fromDump(r.stats)};
    }

    bool
    finishEndToEnd(Metrics &m) override
    {
        double err = 0;
        const bool ok = samplingAccuracyProbe(ctx, &err);
        m.set("cpt_err_pct", err, "%");
        return ok;
    }

    /**
     * `campaign` is not an end-to-end workload of BENCHMARK.json (its
     * store fsyncs made it too unsteady on the reference host), so
     * its layers are measured here, after the traced loop.
     */
    bool
    layerMetrics(Metrics &m) override
    {
        return campaignLayerProbe(ctx, m);
    }

    void
    probeConfig(core::SystemConfig &sys,
                workload::WorkloadParams &wl) const override
    {
        sys = core::SystemConfig::paperDefault();
        wl = {};
    }

  private:
    /** Cells x seeds, cell-major; seeds drawn from ctx.seed. */
    std::vector<Cell> items;
    std::vector<std::size_t> cellOf;      ///< item -> cell
    std::vector<std::size_t> firstOfCell; ///< cell -> its first item
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSweep(const Context &ctx)
{
    return std::make_unique<Sweep>(ctx);
}

} // namespace perfbench
