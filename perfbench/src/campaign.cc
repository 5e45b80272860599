/**
 * @file
 * `campaign`: one client runs repeated Table-5 sessions. A session
 * is runCampaign into a fresh store (ROB 32 vs 64 from Section 5.2
 * starting points, alpha cycling over 10/5/2.5/1/0.5%), restoring
 * from a checkpoint library that set-up pre-warms, followed by
 * campaignStatus, campaignReport and campaignMetricReport. With short
 * measured runs, most of the time goes to checkpoint restore, store
 * writes and reads, the stopping controller, the report statistics
 * and the pool barrier between adaptive rounds; `sweep` touches none
 * of these.
 */

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "bench.hh"
#include "campaign/engine.hh"
#include "ckpt/library.hh"
#include "core/analysis.hh"
#include "core/runner.hh"

using namespace varsim;
namespace fs = std::filesystem;

namespace perfbench
{

namespace
{

const double kAlphas[] = {0.10, 0.05, 0.025, 0.01, 0.005};

/** Host threads of the campaign engine: all four cores. */
constexpr std::size_t kEngineThreads = 4;

/**
 * Campaign families (seed spaces) per run. A session's cost depends
 * on its seed space (the pilot decides how far each group extends),
 * so the loop cycles over several rather than one per run.
 */
constexpr std::size_t kFamilies = 8;

/**
 * Table 5's pair on an 8-node target: the 16-node images (28 MB)
 * would make one session take over a second, too few for per-session
 * percentiles within a run.
 */
campaign::CampaignSpec
tableFiveSpec(std::uint64_t baseSeed)
{
    campaign::CampaignSpec spec;
    for (std::uint32_t rob : {32u, 64u}) {
        core::SystemConfig sys = core::SystemConfig::testDefault();
        sys.mem.numNodes = 8;
        sys.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
        sys.cpu.robEntries = rob;
        spec.configs.push_back({"rob-" + std::to_string(rob), sys});
    }
    spec.wl.kind = workload::WorkloadKind::Oltp;
    spec.run.measureTxns = 50;
    spec.numCheckpoints = 2;
    spec.checkpointStep = 100;
    spec.baseSeed = baseSeed;
    spec.stop.pilotRuns = 4;
    spec.stop.maxRuns = 16;
    return spec;
}

std::string
fmt17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * fsync every file under @p dir. The library writes its objects
 * without fsync; left dirty, they are flushed inside the timed
 * sessions' store fsyncs instead (one journal commits both).
 */
void
flushTree(const std::string &dir)
{
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        const int fd = ::open(e.path().c_str(), O_RDONLY);
        if (fd < 0 || ::fsync(fd) != 0)
            throw std::runtime_error("cannot flush " + e.path().string());
        ::close(fd);
    }
}

sim::statistics::StatDump
toDump(const std::vector<std::pair<std::string, double>> &metrics)
{
    sim::statistics::StatDump d;
    d.reserve(metrics.size());
    for (const auto &[name, value] : metrics)
        d.push_back({name, value});
    return d;
}

/** One seed space: its spec and the checkpoint library set-up warms. */
struct Family
{
    campaign::CampaignSpec spec;
    std::string libDir;

    struct Base
    {
        Counters counters;
        ckpt::CheckpointKey key;
    };
    /** (config, position) -> state right after restore. */
    std::map<std::pair<std::size_t, std::uint64_t>, Base> bases;
    std::vector<std::uint64_t> positions; ///< checkpoint index -> txn

    campaign::CampaignOptions
    options(std::size_t threads) const
    {
        campaign::CampaignOptions opt;
        opt.hostThreads = threads;
        opt.ckptDir = libDir;
        return opt;
    }

    /** Warm a fresh library, then learn its checkpoints' bases. */
    void
    warm()
    {
        fs::remove_all(libDir);
        campaign::warmCampaignCheckpoints(spec, options(kEngineThreads));
        flushTree(libDir);
        learnBases();
    }

    /**
     * Registry counters are cumulative across a checkpoint, so a
     * restored run's work is its dump minus the dump right after the
     * restore. Map each library entry to its (config, position) and
     * keep that base dump.
     */
    void
    learnBases()
    {
        auto lib = ckpt::CheckpointLibrary::open(libDir);
        bases.clear();
        for (const ckpt::LibraryEntry &e : lib->entries()) {
            for (std::size_t c = 0; c < spec.configs.size(); ++c) {
                ckpt::CheckpointKey key;
                key.sys = spec.configs[c].sys;
                key.wl = spec.wl;
                key.warmupSeed = e.warmupSeed;
                key.position = e.position;
                if (key.canonical() != e.key)
                    continue;
                core::Checkpoint cp;
                if (!lib->fetch(key, cp))
                    throw std::runtime_error("library lost " + e.key);
                auto simn =
                    core::Simulation::restore(key.sys, key.wl, cp);
                bases[{c, e.position}] = {
                    Counters::fromDump(simn->statsRegistry().dump()),
                    key};
            }
        }
        positions.clear();
        for (const auto &[k, v] : bases)
            if (k.first == 0)
                positions.push_back(k.second); // std::map: ascending
        if (positions.size() != spec.numCheckpoints)
            throw std::runtime_error("checkpoint library incomplete");
    }
};

class Campaign : public Workload
{
  public:
    explicit Campaign(const Context &c)
        : Workload(c), sessionsDir(c.workDir + "/sessions")
    {
        SeedStream ss(c.seed * 0x7c1dull + 3);
        families.resize(kFamilies);
        for (std::size_t f = 0; f < kFamilies; ++f) {
            families[f].spec = tableFiveSpec(ss.next() % 1000000 + 1000);
            families[f].libDir = c.workDir + "/ckpt-lib-" + std::to_string(f);
        }
    }

    std::size_t clients() const override { return 1; }
    std::size_t hostThreads() const override { return kEngineThreads; }

    std::size_t
    numItems() const override
    {
        return families.size() * std::size(kAlphas);
    }

    /** Rounds cover every family; alpha varies within one. */
    std::size_t
    itemClass(std::size_t i) const override
    {
        return i / std::size(kAlphas);
    }

    std::string
    itemName(std::size_t i) const override
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "base%llu/alpha=%g",
                      static_cast<unsigned long long>(
                          familyOf(i).spec.baseSeed),
                      alphaOf(i));
        return buf;
    }

    /** Warm fresh libraries, then one untimed session. */
    void
    setup() override
    {
        for (Family &f : families)
            f.warm();
        run(0);
    }

    OpOutput
    run(std::size_t item) override
    {
        return session(item, kEngineThreads);
    }

    std::string
    rerunSerial(std::size_t item) override
    {
        return session(item, 1).digest;
    }

    bool
    finishEndToEnd(Metrics &m) override
    {
        double err = 0;
        const bool ok = samplingAccuracyProbe(ctx, &err);
        m.set("cpt_err_pct", err, "%");
        return ok;
    }

    bool
    layerMetrics(Metrics &m) override
    {
        const Tracer &t = *ctx.tracer;
        m.set("campaign.run_s",
              median(t.durations("campaign.runCampaign")), "s");
        m.set("campaign.status_s",
              median(t.durations("campaign.status")), "s");
        m.set("campaign.report_s",
              median(t.durations("campaign.report")), "s");
        m.set("campaign.metric_report_s",
              median(t.durations("campaign.metricReport")), "s");
        m.set("campaign.runs_per_session",
              sessions ? static_cast<double>(runsRecorded) /
                             static_cast<double>(sessions)
                       : 0.0,
              "count");
        m.set("ckpt.hit_ratio",
              static_cast<double>(ckptRestored) /
                  static_cast<double>(ckptRestored + ckptWarmed),
              "ratio");
        return decompose(m);
    }

    void
    probeConfig(core::SystemConfig &sys,
                workload::WorkloadParams &wl) const override
    {
        sys = families.front().spec.configs[0].sys;
        wl = families.front().spec.wl;
    }

  private:
    const Family &
    familyOf(std::size_t item) const
    {
        return families[item / std::size(kAlphas)];
    }

    static double
    alphaOf(std::size_t item)
    {
        return kAlphas[item % std::size(kAlphas)];
    }

    OpOutput
    session(std::size_t item, std::size_t threads)
    {
        const Family &fam = familyOf(item);
        campaign::CampaignSpec s = fam.spec;
        s.stop.alpha = alphaOf(item);
        const std::string dir =
            sessionsDir + "/" + std::to_string(nextSession++);
        fs::remove_all(dir);
        fs::create_directories(sessionsDir);

        Tracer *t = ctx.tracer;
        const auto t0 = Clock::now();
        campaign::CampaignOutcome out;
        {
            Span sp(t, "campaign.runCampaign");
            out = campaign::runCampaign(s, dir, fam.options(threads));
        }
        {
            Span sp(t, "campaign.status");
            campaign::campaignStatus(dir);
        }
        campaign::CampaignReport rep, metric;
        {
            Span sp(t, "campaign.report");
            rep = campaign::campaignReport(dir);
        }
        {
            Span sp(t, "campaign.metricReport");
            metric = campaign::campaignMetricReport(dir, "cycles_per_txn");
        }
        OpOutput o;
        o.seconds = secondsSince(t0);

        if (!out.complete || out.checkpointsWarmed != 0)
            throw std::runtime_error(itemName(item) +
                                     ": session incomplete or re-warmed");
        ++sessions;
        runsRecorded += out.runsRecorded;
        ckptRestored += out.checkpointsRestored;
        ckptWarmed += out.checkpointsWarmed;

        // Digest: targets, every recorded run, and the report texts.
        std::string text;
        for (std::size_t g = 0; g < out.targetRuns.size(); ++g)
            text += std::to_string(out.targetRuns[g]) + "/" +
                    std::to_string(out.recordedRuns[g]) + "\n";
        auto store = campaign::ResultStore::openReadOnly(dir);
        lastRuns.clear();
        for (std::size_t g = 0; g < s.numGroups(); ++g) {
            for (const campaign::RunRecord &r : store->groupRuns(g)) {
                text += std::to_string(r.group) + " " +
                        std::to_string(r.runIdx) + " " +
                        std::to_string(r.seed) + " " +
                        fmt17(r.cyclesPerTxn) + " " +
                        std::to_string(r.runtimeTicks) + " " +
                        std::to_string(r.txns) + "\n";
                for (const auto &[name, value] : r.metrics)
                    text += name + "=" + fmt17(value) + "\n";
                const auto base = fam.bases.find(
                    {r.configIdx, fam.positions.at(r.ckptIdx)});
                if (base == fam.bases.end())
                    throw std::runtime_error("run from unknown ckpt");
                o.counters += Counters::fromDump(toDump(r.metrics)) -
                              base->second.counters;
                lastRuns.push_back(r);
            }
        }
        // The report names the library directory, which differs
        // between checkouts; the digest must not.
        for (const std::string *body : {&rep.text, &metric.text}) {
            std::string b = *body;
            for (std::size_t at;
                 (at = b.find(fam.libDir)) != std::string::npos;)
                b.replace(at, fam.libDir.size(), "<ckpt-lib>");
            text += b;
        }
        o.digest = textDigest(text);
        lastHeader = store->header();
        // Stores stay until the run ends: deleting them here made
        // the file system's discards land in later sessions' fsyncs.
        return o;
    }

    /**
     * One session split into its public steps: build and publish a
     * checkpoint, fetch and restore it, measure, append the runs to a
     * store, reopen it read-only, and run the report statistics.
     */
    bool
    decompose(Metrics &m)
    {
        Tracer *t = ctx.tracer;
        const std::string pubDir = ctx.workDir + "/decompose-lib";
        const std::string storeDir = ctx.workDir + "/decompose-store";
        fs::remove_all(pubDir);
        fs::remove_all(storeDir);
        const Family &fam = families.front();
        auto lib = ckpt::CheckpointLibrary::open(fam.libDir);
        auto pub = ckpt::CheckpointLibrary::open(pubDir);

        bool ok = true;
        auto check = [&ok](bool cond, const char *what) {
            if (!cond)
                std::fprintf(stderr, "decompose: %s\n", what);
            ok = ok && cond;
        };
        double imageBytes = 0;
        // The warm-up path as set-up runs it: per configuration, one
        // warmer checkpoints at each position in turn. bases is
        // ordered by (config, position).
        std::unique_ptr<core::Simulation> warmer;
        std::uint64_t done = 0;
        for (const auto &[where, base] : fam.bases) {
            const ckpt::CheckpointKey &key = base.key;
            if (where.second == fam.positions.front()) {
                warmer = warmedSimulation(t, key.sys, key.wl,
                                          key.warmupSeed, key.position);
            } else {
                Span s(t, "core.warmup");
                warmer->runTransactions(key.position - done);
            }
            done = key.position;
            core::Checkpoint built;
            {
                Span s(t, "ckpt.checkpoint");
                built = warmer->checkpoint();
            }
            {
                Span s(t, "ckpt.publish");
                check(pub->publish(key, built), "publish failed");
            }
            // The session path.
            core::Checkpoint cp;
            {
                Span s(t, "ckpt.fetch");
                check(lib->fetch(key, cp), "fetch missed");
            }
            check(cp.bytes == built.bytes,
                  "rebuilt checkpoint differs from the library's");
            imageBytes += static_cast<double>(cp.size());
            std::unique_ptr<core::Simulation> simn;
            {
                Span s(t, "ckpt.restore");
                simn = core::Simulation::restore(key.sys, key.wl, cp);
            }
            core::RunConfig rc = fam.spec.run;
            rc.perturbSeed = key.warmupSeed + 1;
            simn->seedPerturbation(rc.perturbSeed);
            Span s(t, "core.measure");
            core::measure(*simn, rc, key.sys.numCpus());
        }

        {
            auto store =
                campaign::ResultStore::openOrCreate(storeDir, lastHeader);
            for (const campaign::RunRecord &r : lastRuns) {
                Span s(t, "campaign.append");
                store->appendRun(r);
            }
        }
        std::vector<std::vector<double>> groups;
        {
            Span s(t, "campaign.storeOpen");
            auto store = campaign::ResultStore::openReadOnly(storeDir);
            check(store->totalRuns() == lastRuns.size(),
                  "store lost appended runs");
            for (std::size_t g = 0; g < lastHeader.numGroups; ++g)
                groups.push_back(store->groupMetric(g));
        }
        // The report statistics on this session's data, repeated so
        // that one call's microseconds are resolvable.
        constexpr int kReps = 200;
        for (int i = 0; i < kReps; ++i) {
            Span s(t, "stats.analyze");
            core::analyze(groups.front());
        }
        for (int i = 0; i < kReps; ++i) {
            Span s(t, "stats.compare");
            core::compare(groups.front(), groups.back());
        }
        fs::remove_all(pubDir);
        fs::remove_all(storeDir);

        m.set("ckpt.restore_s", median(t->durations("ckpt.restore")), "s");
        m.set("ckpt.fetch_s", median(t->durations("ckpt.fetch")), "s");
        m.set("ckpt.checkpoint_s",
              median(t->durations("ckpt.checkpoint")), "s");
        m.set("ckpt.publish_s", median(t->durations("ckpt.publish")), "s");
        m.set("ckpt.image_mb",
              imageBytes / static_cast<double>(fam.bases.size()) /
                  1048576.0,
              "MiB");
        m.set("campaign.store_open_s",
              median(t->durations("campaign.storeOpen")), "s");
        m.set("campaign.append_us",
              median(t->durations("campaign.append")) * 1e6, "us");
        m.set("stats.analyze_us",
              median(t->durations("stats.analyze")) * 1e6, "us");
        m.set("stats.compare_us",
              median(t->durations("stats.compare")) * 1e6, "us");
        return ok;
    }

    std::vector<Family> families;
    const std::string sessionsDir;
    std::size_t nextSession = 0;
    std::size_t sessions = 0, runsRecorded = 0;
    std::size_t ckptRestored = 0, ckptWarmed = 0;
    campaign::StoreHeader lastHeader;
    std::vector<campaign::RunRecord> lastRuns;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeCampaign(const Context &ctx)
{
    return std::make_unique<Campaign>(ctx);
}

bool
campaignLayerProbe(const Context &ctx, Metrics &m)
{
    Campaign c(ctx);
    c.setup();
    for (std::size_t f = 0; f < kFamilies; ++f)
        c.run(c.numItems() / kFamilies * f); // one session per family
    return c.layerMetrics(m);
}

} // namespace perfbench
