/**
 * @file
 * The varsim benchmark program (perfbench/run.py builds and runs it).
 *
 *   varsim_perfbench --workload sweep|sampled|campaign --seed N
 *                    --seconds S --trace 0|1 --work-dir DIR
 *                    [--pins DIR] [--write-pins] [--trace-out FILE]
 *
 * Set-up runs three times (setup_s is the median). Then closed-loop
 * clients run operations for S seconds. With --trace 0 the last line
 * of stdout is the end-to-end result; with --trace 1 a second, traced
 * phase follows and the last line carries the per-layer metrics.
 * Either way every operation's digest is checked: against the pinned
 * digests on the default seed, and against a serial re-execution of a
 * sample of operations on every seed.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupRounds = 3;
/** Percentiles need samples beyond them: p90 wants >= 100 ops. */
constexpr std::size_t kMinOps = 100;
/** Items the oracle re-executes serially. */
constexpr std::size_t kSerialChecks = 3;
/**
 * Closed-loop clients of sweep and sampled: two of the reference
 * host's four vCPUs. With all four busy, one seed's ops/s spread
 * 0.11-0.14 (IQR/median) over repeated runs; with two, 0.086.
 */
constexpr std::size_t kClientThreads = 2;

/** Every per-layer metric, with its unit; unexercised layers read 0. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"sim.events_per_txn", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.eventq_ns", "ns"},
    {"mem.l2_misses_per_txn", "count"},
    {"mem.bus_txns_per_txn", "count"},
    {"mem.nacks_per_txn", "count"},
    {"mem.c2c_ratio", "ratio"},
    {"mem.l1_miss_ratio", "ratio"},
    {"mem.cache_probe_ns", "ns"},
    {"mem.snoop_miss_ns", "ns"},
    {"mem.dir_miss_ns", "ns"},
    {"os.dispatches_per_txn", "count"},
    {"os.preemptions_per_txn", "count"},
    {"os.lock_spins_per_txn", "count"},
    {"os.lock_contention", "ratio"},
    {"workload.opgen_ns", "ns"},
    {"cpu.detail_ns_per_txn", "ns"},
    {"cpu.fast_ns_per_txn", "ns"},
    {"cpu.ipc", "ratio"},
    {"cpu.instr_per_txn", "count"},
    {"sample.fast_txn_share", "ratio"},
    {"sample.windows", "count"},
    {"sample.speedup", "x"},
    {"ckpt.restore_s", "s"},
    {"ckpt.fetch_s", "s"},
    {"ckpt.checkpoint_s", "s"},
    {"ckpt.publish_s", "s"},
    {"ckpt.image_mb", "MiB"},
    {"ckpt.hit_ratio", "ratio"},
    {"campaign.run_s", "s"},
    {"campaign.status_s", "s"},
    {"campaign.report_s", "s"},
    {"campaign.metric_report_s", "s"},
    {"campaign.store_open_s", "s"},
    {"campaign.append_us", "us"},
    {"campaign.runs_per_session", "count"},
    {"core.host_util", "ratio"},
    {"core.construct_s", "s"},
    {"core.warmup_s", "s"},
    {"stats.analyze_us", "us"},
    {"stats.compare_us", "us"},
    {"trace.ops_per_s", "1/s"},
    {"trace.overhead_ops_per_s", "1/s"},
    {"trace.self_core_s", "s"},
    {"trace.self_sample_s", "s"},
    {"trace.self_campaign_s", "s"},
    {"trace.self_ckpt_s", "s"},
    {"trace.self_stats_s", "s"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 30;
    bool trace = false;
    std::string workDir;
    std::string pinsDir;
    bool writePins = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "varsim_perfbench: %s\nusage: varsim_perfbench "
                 "--workload sweep|sampled|campaign --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--pins DIR] [--write-pins] "
                 "[--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-pins") {
            a.writePins = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--work-dir")
                a.workDir = v;
            else if (flag == "--pins")
                a.pinsDir = v;
            else if (flag == "--trace-out")
                a.traceOut = v;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (a.workDir.empty())
        usage("--work-dir is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** Host and build identity, stamped on every emission. */
struct Stamp
{
    std::size_t nproc = 1;
    unsigned hwConcurrency = 0;
    std::string compiler = PERFBENCH_COMPILER;
    std::string buildType = PERFBENCH_BUILD_TYPE;
    std::string sanitize = PERFBENCH_SANITIZE;
    std::size_t hostThreads = 1;
    std::vector<std::string> invalid;

    Stamp(std::size_t nproc, std::size_t hostThreads)
        : nproc(nproc), hostThreads(hostThreads)
    {
        hwConcurrency = std::thread::hardware_concurrency();
        // Thread counts are fixed so that the timed phase is the same
        // on every host; on fewer cores it would oversubscribe them.
        if (hostThreads > nproc)
            invalid.push_back("host threads exceed nproc");
        const bool optimized = buildType == "Release" ||
                               buildType == "RelWithDebInfo" ||
                               buildType == "MinSizeRel";
        if (!optimized)
            invalid.push_back("build type '" + buildType +
                              "' is not optimized");
        if (!sanitize.empty())
            invalid.push_back("sanitizers on: " + sanitize);
    }

    std::string
    json(std::size_t samples) const
    {
        std::string reasons;
        for (const std::string &r : invalid)
            reasons += (reasons.empty() ? "\"" : ", \"") + r + "\"";
        char buf[768];
        std::snprintf(buf, sizeof buf,
                      "{\"nproc\": %zu, \"hardware_concurrency\": %u, "
                      "\"host_threads\": %zu, \"compiler\": \"%s\", "
                      "\"build_type\": \"%s\", \"sanitizers\": \"%s\", "
                      "\"op_samples\": %zu, \"valid\": %s, "
                      "\"invalid_because\": [%s]}",
                      nproc, hwConcurrency, hostThreads, compiler.c_str(),
                      buildType.c_str(), sanitize.c_str(), samples,
                      invalid.empty() ? "true" : "false", reasons.c_str());
        return buf;
    }
};

/** Digests seen so far, plus the pinned ones on the default seed. */
class Oracle
{
  public:
    /** Pinned (item name, digest) by item index. */
    using Pins = std::map<std::size_t, std::pair<std::string, std::string>>;

    Oracle(const Workload &w, Pins pins, bool checkPins)
        : w(w), pins(std::move(pins)), checkPins(checkPins)
    {}

    /** False if @p digest contradicts a pin or an earlier run. */
    bool
    accept(std::size_t item, const std::string &digest)
    {
        std::lock_guard<std::mutex> g(mu);
        if (checkPins) {
            auto p = pins.find(item);
            if (p == pins.end() || p->second.first != w.itemName(item) ||
                p->second.second != digest)
                return complain(item, "pinned digest", digest);
        }
        auto [it, fresh] = seen.emplace(item, digest);
        if (!fresh && it->second != digest)
            return complain(item, "earlier run's digest", digest);
        return true;
    }

    const std::map<std::size_t, std::string> &
    digests() const
    {
        return seen;
    }

  private:
    bool
    complain(std::size_t item, const char *what, const std::string &d)
    {
        std::fprintf(stderr, "oracle: %s digest %s differs from the %s\n",
                     w.itemName(item).c_str(), d.c_str(), what);
        return false;
    }

    const Workload &w;
    const Pins pins;
    const bool checkPins;
    std::mutex mu;
    std::map<std::size_t, std::string> seen;
};

Oracle::Pins
loadPins(const std::string &path)
{
    Oracle::Pins pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::size_t item = 0;
        std::string name, digest;
        if (ls >> item >> name >> digest)
            pins[item] = {name, digest};
    }
    return pins;
}

/**
 * The loop's item order: rounds that take one item of every class,
 * classes shuffled within each round and items within each class.
 * Any prefix of the order then has nearly the class mix of the
 * whole, whatever the seed.
 */
std::vector<std::size_t>
loopOrder(const Workload &w, std::uint64_t seed)
{
    SeedStream ss(seed * 0x9e37ull + 11);
    std::map<std::size_t, std::vector<std::size_t>> byClass;
    for (std::size_t i = 0; i < w.numItems(); ++i)
        byClass[w.itemClass(i)].push_back(i);
    std::vector<std::vector<std::size_t>> classes;
    std::size_t rounds = 0;
    for (auto &[cls, items] : byClass) {
        ss.shuffle(items);
        rounds = std::max(rounds, items.size());
        classes.push_back(std::move(items));
    }
    std::vector<std::size_t> order;
    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<std::size_t> pick;
        for (const auto &items : classes)
            if (r < items.size())
                pick.push_back(items[r]);
        ss.shuffle(pick);
        order.insert(order.end(), pick.begin(), pick.end());
    }
    return order;
}

struct LoopOut
{
    std::vector<double> latencies;
    std::size_t attempted = 0, failed = 0;
    double wall = 0, cpuSeconds = 0, opSeconds = 0;
    Counters counters;

    double
    opsPerSec() const
    {
        return wall > 0 ? static_cast<double>(latencies.size()) / wall
                        : 0.0;
    }
};

/**
 * The closed loop: each client starts its next operation as soon as
 * its previous one returns, cycling through @p order. Clients stop
 * starting operations once @p seconds have passed and at least
 * kMinOps have started (or at 4x @p seconds, whichever is first).
 */
LoopOut
closedLoop(Workload &w, const std::vector<std::size_t> &order,
           double seconds, Oracle &oracle)
{
    LoopOut out;
    std::mutex mu;
    std::atomic<std::size_t> next{0};
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    auto lastEnd = t0;
    auto client = [&] {
        for (;;) {
            const double elapsed = secondsSince(t0);
            const std::size_t started = next.load();
            if ((elapsed >= seconds && started >= kMinOps) ||
                elapsed >= 4 * seconds)
                return;
            const std::size_t op = next++;
            const std::size_t item = order[op % order.size()];
            Tracer::setOp(op + 1);
            const auto s0 = Clock::now();
            bool ok = true;
            OpOutput res;
            try {
                res = w.run(item);
                ok = oracle.accept(item, res.digest);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "op %s failed: %s\n",
                             w.itemName(item).c_str(), e.what());
                ok = false;
            }
            const auto s1 = Clock::now();
            const double lat =
                res.seconds >= 0
                    ? res.seconds
                    : std::chrono::duration<double>(s1 - s0).count();
            std::lock_guard<std::mutex> g(mu);
            ++out.attempted;
            lastEnd = std::max(lastEnd, s1);
            if (!ok) {
                ++out.failed;
                continue;
            }
            out.latencies.push_back(lat);
            out.opSeconds += lat;
            out.counters += res.counters;
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t c = 1; c < w.clients(); ++c)
        pool.emplace_back(client);
    client();
    for (std::thread &t : pool)
        t.join();
    Tracer::setOp(0);
    out.wall = std::chrono::duration<double>(lastEnd - t0).count();
    out.cpuSeconds = processCpuSeconds() - cpu0;
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Layer metrics read from the registry counters of the ops. */
void
counterMetrics(const LoopOut &l, Metrics &m)
{
    const Counters &c = l.counters;
    const double ops = static_cast<double>(l.latencies.size());
    m.set("sim.events_per_txn", ratio(c.events, c.txns), "count");
    m.set("sim.ns_per_event", ratio(l.opSeconds * 1e9, c.events), "ns");
    m.set("mem.l2_misses_per_txn", ratio(c.l2Misses, c.txns), "count");
    m.set("mem.bus_txns_per_txn", ratio(c.fabricTxns, c.txns), "count");
    m.set("mem.nacks_per_txn", ratio(c.nacks, c.txns), "count");
    m.set("mem.c2c_ratio", ratio(c.cacheToCache, c.l2Misses), "ratio");
    m.set("mem.l1_miss_ratio", ratio(c.l1Misses, c.l1Hits + c.l1Misses),
          "ratio");
    m.set("os.dispatches_per_txn", ratio(c.dispatches, c.txns), "count");
    m.set("os.preemptions_per_txn", ratio(c.preemptions, c.txns),
          "count");
    m.set("os.lock_spins_per_txn", ratio(c.lockSpins, c.txns), "count");
    m.set("os.lock_contention", ratio(c.contendedLocks, c.lockAcquires),
          "ratio");
    m.set("cpu.ipc", ratio(c.instructions, c.cpuTicks), "ratio");
    m.set("cpu.instr_per_txn", ratio(c.instructions, c.txns), "count");
    m.set("sample.fast_txn_share", ratio(c.fastTxns, c.txns), "ratio");
    m.set("sample.windows", ratio(c.windows, ops), "count");
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
emit(const Metrics &m, bool correct, std::size_t attempted,
     std::size_t failed)
{
    for (const auto &[name, vu] : m.values)
        std::printf("  %-28s %14.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : m.values) {
        json += first ? "" : ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + jsonNumber(vu.first) +
                ", \"unit\": \"" + vu.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::size_t nproc = 1;
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0)
        nproc = static_cast<std::size_t>(CPU_COUNT(&cpus));

    Context ctx;
    ctx.seed = args.seed;
    ctx.clientThreads = kClientThreads;
    ctx.overheadThreads = nproc;
    ctx.workDir = args.workDir + "/" + args.workload + "-" +
                  std::to_string(::getpid());
    fs::remove_all(ctx.workDir);
    fs::create_directories(ctx.workDir);

    std::unique_ptr<Workload> w;
    if (args.workload == "sweep")
        w = makeSweep(ctx);
    else if (args.workload == "sampled")
        w = makeSampled(ctx);
    else if (args.workload == "campaign")
        w = makeCampaign(ctx);
    else
        usage(("unknown workload '" + args.workload + "'").c_str());

    const Stamp stamp(nproc, w->hostThreads());
    const std::vector<std::size_t> order = loopOrder(*w, args.seed);

    const std::string pinPath =
        args.pinsDir + "/" + args.workload + ".txt";
    const bool checkPins =
        args.seed == kDefaultSeed && !args.writePins;
    Oracle oracle(*w, checkPins ? loadPins(pinPath) : Oracle::Pins{},
                  checkPins);

    bool correct = true;
    std::vector<double> setups;
    try {
        for (int r = 0; r < kSetupRounds; ++r) {
            const auto t0 = Clock::now();
            w->setup();
            setups.push_back(secondsSince(t0));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
        return 1;
    }

    LoopOut e2e = closedLoop(*w, order, args.seconds, oracle);
    const double peakMb = peakRssMb();
    std::size_t attempted = e2e.attempted, failed = e2e.failed;

    Metrics m;
    if (!args.trace) {
        m.set("ops_per_s", e2e.opsPerSec(), "1/s");
        m.set("op_p50_s", quantile(e2e.latencies, 0.5), "s");
        m.set("op_p90_s", quantile(e2e.latencies, 0.9), "s");
        m.set("sim_mips",
              ratio(e2e.counters.instructions, e2e.wall * 1e6), "MIPS");
        m.set("peak_rss_mb", peakMb, "MiB");
        try {
            correct = w->finishEndToEnd(m) && correct;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "end-to-end check failed: %s\n",
                         e.what());
            correct = false;
        }
        m.set("setup_s", median(setups), "s");
    } else {
        for (const auto &[name, unit] : kLayerMetrics)
            m.set(name, 0.0, unit);
        Tracer tracer;
        ctx.tracer = &tracer;
        const LoopOut traced =
            closedLoop(*w, order, args.seconds, oracle);
        attempted += traced.attempted;
        failed += traced.failed;
        counterMetrics(traced, m);
        m.set("core.host_util",
              ratio(e2e.cpuSeconds,
                    e2e.wall * static_cast<double>(w->hostThreads())),
              "ratio");
        try {
            correct = w->layerMetrics(m) && correct;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "layer metrics failed: %s\n", e.what());
            correct = false;
        }
        // Every workload names its constructor and warm-up spans
        // alike; campaign's come from its decomposed session.
        m.set("core.construct_s",
              median(tracer.durations("core.construct")), "s");
        m.set("core.warmup_s", median(tracer.durations("core.warmup")),
              "s");
        ctx.tracer = nullptr;
        runLayerProbes(*w, m);
        m.set("trace.ops_per_s", traced.opsPerSec(), "1/s");
        m.set("trace.overhead_ops_per_s",
              traced.opsPerSec() - e2e.opsPerSec(), "1/s");
        std::printf("layer self time (traced phase):\n");
        for (const auto &[layer, self] : tracer.selfTimeByLayer()) {
            std::printf("  %-10s %10.4f s\n", layer.c_str(), self);
            m.set("trace.self_" + layer + "_s", self, "s");
        }
        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut);
            out << "{\"stamp\": " << stamp.json(traced.latencies.size())
                << "}\n"
                << tracer.toJsonl();
        }
    }

    // Serial re-execution of a sample of operations.
    for (std::size_t k = 0; k < std::min(kSerialChecks, order.size());
         ++k) {
        const std::size_t item = order[k];
        ++attempted;
        try {
            if (!oracle.accept(item, w->rerunSerial(item)))
                ++failed;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "serial re-run of %s failed: %s\n",
                         w->itemName(item).c_str(), e.what());
            ++failed;
        }
    }

    if (args.writePins) {
        // Every item gets a digest, run serially if the loop missed it.
        std::ofstream out(pinPath);
        out << "# " << args.workload << " digests on seed "
            << args.seed << ": item name digest\n";
        for (std::size_t i = 0; i < w->numItems(); ++i) {
            auto d = oracle.digests().find(i);
            const std::string digest = d != oracle.digests().end()
                                           ? d->second
                                           : w->rerunSerial(i);
            out << i << " " << w->itemName(i) << " " << digest << "\n";
        }
    }

    fs::remove_all(ctx.workDir);
    std::printf("stamp: %s\n", stamp.json(e2e.latencies.size()).c_str());
    if (!stamp.invalid.empty())
        std::fprintf(stderr, "warning: this emission is INVALID for "
                             "performance comparison (see stamp)\n");
    emit(m, correct && failed == 0, attempted, failed);
    return 0;
}
