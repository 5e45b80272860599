#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>

#include "bench.hh"
#include "ckpt/key.hh"

namespace perfbench
{

namespace
{

bool
startsWith(const std::string &s, const char *p)
{
    return s.rfind(p, 0) == 0;
}

bool
endsWith(const std::string &s, const char *p)
{
    const std::string suffix(p);
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

thread_local std::uint64_t tlsOp = 0;
thread_local std::int64_t tlsOpen = -1;

} // anonymous namespace

Counters
Counters::fromDump(const varsim::sim::statistics::StatDump &d)
{
    Counters c;
    double cpus = 0;
    for (const auto &v : d) {
        const std::string &n = v.name;
        if (n == "sim.txns")
            c.txns = v.value;
        else if (n == "sim.ticks")
            c.ticks = v.value;
        else if (n == "sim.events_dispatched")
            c.events = v.value;
        else if (n == "sim.sampled.fast_txns")
            c.fastTxns = v.value;
        else if (n == "sim.sampled.windows")
            c.windows = v.value;
        else if (startsWith(n, "system.cpu") &&
                 endsWith(n, ".instructions")) {
            c.instructions += v.value;
            cpus += 1;
        } else if (startsWith(n, "system.mem.")) {
            // Fabric totals (bus or directory) sit one level below
            // system.mem; per-node entries carry ".node".
            const bool node = n.find(".node") != std::string::npos;
            if (node && (n.find(".l1d.") != std::string::npos ||
                         n.find(".l1i.") != std::string::npos)) {
                if (endsWith(n, ".hits"))
                    c.l1Hits += v.value;
                else if (endsWith(n, ".misses"))
                    c.l1Misses += v.value;
            } else if (!node) {
                if (endsWith(n, ".l2_misses"))
                    c.l2Misses += v.value;
                else if (endsWith(n, ".transactions"))
                    c.fabricTxns += v.value;
                else if (endsWith(n, ".nacks"))
                    c.nacks += v.value;
                else if (endsWith(n, ".cache_to_cache"))
                    c.cacheToCache += v.value;
            }
        } else if (n == "system.kernel.dispatches")
            c.dispatches = v.value;
        else if (n == "system.kernel.preemptions")
            c.preemptions = v.value;
        else if (n == "system.kernel.lock_spins")
            c.lockSpins = v.value;
        else if (n == "system.kernel.lock_acquires")
            c.lockAcquires = v.value;
        else if (n == "system.kernel.contended_locks")
            c.contendedLocks = v.value;
    }
    c.cpuTicks = c.ticks * cpus;
    return c;
}

#define PERFBENCH_COUNTER_FIELDS(X)                                    \
    X(txns) X(ticks) X(cpuTicks) X(events) X(instructions) X(l2Misses) \
    X(fabricTxns) X(nacks) X(cacheToCache) X(l1Hits) X(l1Misses)       \
    X(dispatches) X(preemptions) X(lockSpins) X(lockAcquires)          \
    X(contendedLocks) X(fastTxns) X(windows)

Counters &
Counters::operator+=(const Counters &o)
{
#define X(f) f += o.f;
    PERFBENCH_COUNTER_FIELDS(X)
#undef X
    return *this;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters r = *this;
#define X(f) r.f -= o.f;
    PERFBENCH_COUNTER_FIELDS(X)
#undef X
    return r;
}

std::string
textDigest(const std::string &text)
{
    const std::uint64_t h =
        varsim::ckpt::fnv1a64(varsim::ckpt::kFnvOffsetBasis, text);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
runDigest(double cyclesPerTxn,
          const varsim::sim::statistics::StatDump &d)
{
    char num[64];
    std::snprintf(num, sizeof num, "%.17g\n", cyclesPerTxn);
    std::string text = num;
    for (const auto &v : d) {
        if (startsWith(v.name, "sim.par."))
            continue;
        std::snprintf(num, sizeof num, "=%.17g\n", v.value);
        text += v.name;
        text += num;
    }
    return textDigest(text);
}

void
Tracer::setOp(std::uint64_t op)
{
    tlsOp = op;
}

std::size_t
Tracer::begin(const std::string &name)
{
    const double now = secondsSince(t0);
    std::lock_guard<std::mutex> g(mu);
    spans.push_back({name, tlsOp, tlsOpen, now, now});
    tlsOpen = static_cast<std::int64_t>(spans.size() - 1);
    return spans.size() - 1;
}

void
Tracer::end(std::size_t idx)
{
    const double now = secondsSince(t0);
    std::lock_guard<std::mutex> g(mu);
    spans[idx].end = now;
    tlsOpen = spans[idx].parent;
}

std::map<std::string, double>
Tracer::selfTimeByLayer() const
{
    std::lock_guard<std::mutex> g(mu);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    // Children of one parent run sequentially on the parent's
    // thread, so their durations never overlap.
    for (const SpanRec &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &n = spans[i].name;
        byLayer[n.substr(0, n.find('.'))] += self[i];
    }
    return byLayer;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu);
    std::vector<double> out;
    for (const SpanRec &s : spans)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

std::string
Tracer::toJsonl() const
{
    std::lock_guard<std::mutex> g(mu);
    std::string out;
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,"
                      "\"parent\":%lld,\"start_s\":%.9f,"
                      "\"end_s\":%.9f}\n",
                      i, s.name.c_str(),
                      static_cast<unsigned long long>(s.op),
                      static_cast<long long>(s.parent), s.start, s.end);
        out += buf;
    }
    return out;
}

std::unique_ptr<varsim::core::Simulation>
warmedSimulation(Tracer *t, const varsim::core::SystemConfig &sys,
                 const varsim::workload::WorkloadParams &wl,
                 std::uint64_t perturbSeed, std::uint64_t warmupTxns)
{
    std::unique_ptr<varsim::core::Simulation> simn;
    {
        Span s(t, "core.construct");
        simn = std::make_unique<varsim::core::Simulation>(sys, wl);
    }
    simn->seedPerturbation(perturbSeed);
    if (warmupTxns > 0) {
        Span s(t, "core.warmup");
        simn->runTransactions(warmupTxns);
    }
    return simn;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void
parallelFor(std::size_t n, std::size_t threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr first;
    auto worker = [&] {
        for (std::size_t i; (i = next++) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(mu);
                if (!first)
                    first = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < std::min(threads, n); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    if (first)
        std::rethrow_exception(first);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
