/**
 * @file
 * Shared pieces of the varsim benchmark: the workload interface the
 * closed loop runs, the span recorder behind the traced run,
 * the counters read out of each run's registry dump, and the digest
 * oracle that checks every operation's simulated result.
 *
 * The benchmark only calls varsim's public API. Spans are recorded
 * here, around those calls, never inside the simulator.
 */

#ifndef VARSIM_PERFBENCH_BENCH_HH
#define VARSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/simulation.hh"
#include "sim/statistics.hh"
#include "workload/workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** SplitMix64: the benchmark's only source of input randomness. */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Fisher-Yates shuffle; portable, unlike std::shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t state;
};

/**
 * Sums over registry dumps. Every field is a simulated count, so a
 * pure speed change leaves them all identical.
 */
struct Counters
{
    double txns = 0, ticks = 0, cpuTicks = 0, events = 0,
           instructions = 0, l2Misses = 0, fabricTxns = 0, nacks = 0,
           cacheToCache = 0, l1Hits = 0, l1Misses = 0, dispatches = 0,
           preemptions = 0, lockSpins = 0, lockAcquires = 0,
           contendedLocks = 0, fastTxns = 0, windows = 0;

    /** Read one run's registry dump. */
    static Counters fromDump(const varsim::sim::statistics::StatDump &d);
    Counters &operator+=(const Counters &o);
    Counters operator-(const Counters &o) const;
};

/**
 * FNV-1a digest (16 hex digits) of a run's result: cycles/txn plus
 * the registry dump. The sim.par.* entries are left out: they are
 * constant zero on the serial engine and belong to the domained
 * engine, whose removal must not change any digest.
 */
std::string runDigest(double cyclesPerTxn,
                      const varsim::sim::statistics::StatDump &d);

/** FNV-1a digest of arbitrary text, as 16 hex digits. */
std::string textDigest(const std::string &text);

/**
 * In-memory span recorder. One span per public call: name, start,
 * end, parent and the id of the operation it belongs to. Spans are
 * written out at exit; per-layer self time is a span's duration
 * minus the time its children cover.
 */
class Tracer
{
  public:
    struct SpanRec
    {
        std::string name;
        std::uint64_t op = 0;
        std::int64_t parent = -1;
        double start = 0, end = 0; ///< seconds since tracer start
    };

    Tracer() : t0(Clock::now()) {}

    /** Begin a span on this thread; returns its index. */
    std::size_t begin(const std::string &name);
    void end(std::size_t idx);

    /** Set the operation id for spans begun on this thread. */
    static void setOp(std::uint64_t op);

    /** Layer ("core", "ckpt", ...) -> summed self time, seconds. */
    std::map<std::string, double> selfTimeByLayer() const;
    /** Durations of every span named @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;
    /** All spans as JSON lines. */
    std::string toJsonl() const;

  private:
    Clock::time_point t0;
    mutable std::mutex mu;
    std::vector<SpanRec> spans;
};

/**
 * RAII span around one public call. A null tracer records nothing,
 * so the untraced run pays one branch per call.
 */
class Span
{
  public:
    Span(Tracer *t, const char *name)
        : tracer(t), idx(t ? t->begin(name) : 0)
    {}
    ~Span()
    {
        if (tracer)
            tracer->end(idx);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer;
    std::size_t idx;
};

/** What one operation produced. */
struct OpOutput
{
    std::string digest;
    Counters counters; ///< simulated work done by this operation
    /**
     * Wall time of the operation's public calls, when the workload
     * times them itself so that result read-back for the digest
     * stays outside the measurement; negative: the loop's clock
     * around run() is used.
     */
    double seconds = -1.0;
};

/**
 * The first public steps of a run, each under its span: construct
 * the Simulation, seed its perturbation, warm it up. Measuring the
 * result gives the same run as the one-call runners.
 */
std::unique_ptr<varsim::core::Simulation>
warmedSimulation(Tracer *t, const varsim::core::SystemConfig &sys,
                 const varsim::workload::WorkloadParams &wl,
                 std::uint64_t perturbSeed, std::uint64_t warmupTxns);

/** Named metric values, in insertion order. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        values;
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &v : values) {
            if (v.first == name) {
                v.second = {value, unit};
                return;
            }
        }
        values.push_back({name, {value, unit}});
    }
};

/** Shared run-wide settings. */
struct Context
{
    std::uint64_t seed = 1;
    std::size_t clientThreads = 1; ///< closed-loop clients
    /** Untimed reference and probe runs may use every core. */
    std::size_t overheadThreads = 1;
    std::string workDir;         ///< scratch space inside the checkout
    Tracer *tracer = nullptr;    ///< set only in the traced phase
};

/**
 * One benchmark workload. run() must be safe to call from several
 * client threads at once; items are deterministic functions of the
 * benchmark seed, so one item always yields one digest.
 */
class Workload
{
  public:
    explicit Workload(const Context &c) : ctx(c) {}
    virtual ~Workload() = default;

    /** Closed-loop client count. */
    virtual std::size_t clients() const = 0;
    /** Host threads busy in the timed phase (at most). */
    virtual std::size_t
    hostThreads() const
    {
        return clients();
    }
    /**
     * Items of one class (a figure cell, a workload kind) are spread
     * evenly over the loop's order, so that the partial last pass
     * of a timed phase has the same mix on every seed.
     */
    virtual std::size_t itemClass(std::size_t item) const = 0;
    /** Distinct operation inputs; the loop cycles through them. */
    virtual std::size_t numItems() const = 0;
    virtual std::string itemName(std::size_t item) const = 0;
    /** One round of untimed set-up (called several times). */
    virtual void setup() = 0;
    /** Execute one operation. */
    virtual OpOutput run(std::size_t item) = 0;
    /**
     * Re-execute @p item with nothing else running and on one host
     * thread; returns its digest.
     */
    virtual std::string
    rerunSerial(std::size_t item)
    {
        return run(item).digest;
    }
    /**
     * After the untraced timed phase: cpt_err_pct and any checks
     * that need the whole phase. Returns false if a check failed.
     */
    virtual bool finishEndToEnd(Metrics &m) = 0;
    /**
     * After the traced phase: the layer metrics only this workload
     * can produce. Returns false if a check failed.
     */
    virtual bool layerMetrics(Metrics &m) = 0;
    /** Target and workload the cpu layer probe times. */
    virtual void probeConfig(varsim::core::SystemConfig &sys,
                             varsim::workload::WorkloadParams &wl)
        const = 0;

  protected:
    const Context &ctx;
};

std::unique_ptr<Workload> makeSweep(const Context &ctx);
std::unique_ptr<Workload> makeSampled(const Context &ctx);
std::unique_ptr<Workload> makeCampaign(const Context &ctx);

/**
 * Sampled-vs-full cycles/txn error over the sampled item pool, for
 * workloads that do not time sampled runs themselves. Returns the
 * mean absolute error in percent; false on a failed run.
 */
bool samplingAccuracyProbe(const Context &ctx, double *errPct);

/**
 * The campaign, ckpt and stats layer metrics, from a short run of
 * `campaign` sessions (one per seed space) traced by ctx.tracer.
 * Returns false if a check failed.
 */
bool campaignLayerProbe(const Context &ctx, Metrics &m);

/** Layer probes timing public functions directly. */
void runLayerProbes(const Workload &w, Metrics &m);

/**
 * Run fn(0..n-1) on @p threads threads; the first exception thrown
 * is rethrown after every thread has joined.
 */
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)> &fn);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);
/** Linear-interpolated quantile q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** Process CPU seconds (user + system) so far. */
double processCpuSeconds();
/** Peak resident set size so far, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // VARSIM_PERFBENCH_BENCH_HH
