#include "core/experiment.hh"

#include <algorithm>
#include <functional>
#include <string>

#include "core/executor.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace core
{

namespace
{

/** Run @p i of @p exp: @p run under perturbation seed baseSeed + i. */
RunConfig
seededRun(const RunConfig &run, const ExperimentConfig &exp,
          std::size_t i)
{
    RunConfig r = run;
    r.perturbSeed = exp.baseSeed + i;
    return r;
}

/**
 * The seed loop under runMany and runManyFromCheckpoint: validate
 * @p exp, then call @p runOne with @p run under seed baseSeed + i for
 * each run i, spread over exp.hostThreads threads of the shared
 * executor. Results are ordered by run index regardless of host
 * scheduling; the first exception a run throws is rethrown here.
 */
std::vector<RunResult>
runEachSeed(const RunConfig &run, const ExperimentConfig &exp,
            const std::function<RunResult(const RunConfig &)> &runOne)
{
    exp.validate();
    std::vector<RunResult> results(exp.numRuns);
    Executor::shared().parallelFor(
        exp.numRuns, exp.hostThreads, [&](std::size_t i) {
            // Runs execute concurrently on host threads; the scope
            // gives every DPRINTF line this run emits a run identity.
            sim::trace::RunScope scope(sim::format("r%zu", i));
            results[i] = runOne(seededRun(run, exp, i));
        });
    return results;
}

} // anonymous namespace

void
ExperimentConfig::validate() const
{
    if (numRuns == 0)
        sim::fatal("ExperimentConfig::numRuns is 0: an experiment "
                   "must run at least one simulation");
    // Seeds are baseSeed + i for i in [0, numRuns); wraparound would
    // alias two runs onto one seed and silently destroy the "N
    // independent perturbed runs" premise.
    if (baseSeed > UINT64_MAX - (numRuns - 1))
        sim::fatal("experiment seed range [%llu, +%zu) wraps "
                   "around 2^64; lower baseSeed or numRuns",
                   static_cast<unsigned long long>(baseSeed),
                   numRuns);
}

std::vector<RunResult>
runMany(const SystemConfig &sys, const workload::WorkloadParams &wl,
        const RunConfig &run, const ExperimentConfig &exp)
{
    return runEachSeed(run, exp, [&](const RunConfig &r) {
        return runOnce(sys, wl, r);
    });
}

std::vector<RunResult>
runManyFromCheckpoint(const SystemConfig &sys,
                      const workload::WorkloadParams &wl,
                      const Checkpoint &cp, const RunConfig &run,
                      const ExperimentConfig &exp)
{
    return runEachSeed(run, exp, [&](const RunConfig &r) {
        return runFromCheckpoint(sys, wl, cp, r);
    });
}

std::vector<std::vector<RunResult>>
runManyBatch(const std::vector<ExperimentSpec> &specs)
{
    // Flatten every run of every experiment into one index space so
    // a sweep keeps all host threads busy across configuration
    // boundaries (no join barrier between configurations).
    std::vector<std::size_t> offsets(specs.size() + 1, 0);
    std::size_t hostThreads = 1;
    bool useHardware = false;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        specs[s].exp.validate();
        offsets[s + 1] = offsets[s] + specs[s].exp.numRuns;
        const std::size_t ht = specs[s].exp.hostThreads;
        // 0 means "hardware concurrency": let it dominate the max.
        useHardware |= ht == 0;
        hostThreads = std::max(hostThreads, ht);
    }
    if (useHardware)
        hostThreads = 0;

    std::vector<std::vector<RunResult>> results(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s)
        results[s].resize(specs[s].exp.numRuns);

    Executor::shared().parallelFor(
        offsets.back(), hostThreads, [&](std::size_t flat) {
            const std::size_t s = static_cast<std::size_t>(
                std::upper_bound(offsets.begin(), offsets.end(),
                                 flat) -
                offsets.begin() - 1);
            const std::size_t i = flat - offsets[s];
            sim::trace::RunScope scope(sim::format("e%zu.r%zu", s, i));
            const ExperimentSpec &spec = specs[s];
            results[s][i] = runOnce(spec.sys, spec.wl,
                                    seededRun(spec.run, spec.exp, i));
        });
    return results;
}

std::vector<double>
metricOf(const std::vector<RunResult> &results)
{
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const auto &r : results)
        xs.push_back(r.cyclesPerTxn);
    return xs;
}

std::vector<double>
metricOf(const std::vector<RunResult> &results,
         const std::string &name)
{
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const auto &r : results) {
        if (name == "cycles_per_txn") {
            xs.push_back(r.cyclesPerTxn);
            continue;
        }
        if (name == "runtime_ticks") {
            xs.push_back(static_cast<double>(r.runtimeTicks));
            continue;
        }
        if (name == "txns") {
            xs.push_back(static_cast<double>(r.txns));
            continue;
        }
        bool found = false;
        for (const auto &sv : r.stats) {
            if (sv.name == name) {
                xs.push_back(sv.value);
                found = true;
                break;
            }
        }
        if (!found)
            sim::fatal("metricOf: run has no metric named '%s'",
                       name.c_str());
    }
    return xs;
}

} // namespace core
} // namespace varsim
