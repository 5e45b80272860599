/**
 * @file
 * Multiple-simulation experiments (paper Section 5): N runs of the
 * same (configuration, workload) pair with distinct perturbation
 * seeds, executed concurrently on host threads — the paper's
 * "reasonable simulation time using coarse-grain parallelism,
 * provided that multiple simulation hosts are available".
 */

#ifndef VARSIM_CORE_EXPERIMENT_HH
#define VARSIM_CORE_EXPERIMENT_HH

#include <vector>

#include "core/runner.hh"

namespace varsim
{
namespace core
{

/**
 * Parameters of a multi-run experiment.
 *
 * Seed policy: run i (0-based) uses perturbation seed baseSeed + i,
 * so an experiment's seeds are the contiguous range
 * [baseSeed, baseSeed + numRuns). Callers that partition a larger
 * seed space (e.g. campaign cells) can therefore assert uniqueness
 * by spacing their base seeds at least numRuns apart. validate()
 * rejects numRuns == 0 (an experiment with no runs is always a
 * caller bug) and a range that would wrap around 2^64 (two runs
 * would silently share a seed); every runMany* entry point calls
 * it.
 */
struct ExperimentConfig
{
    /** Runs per configuration (the paper typically uses 20). */
    std::size_t numRuns = 20;

    /** Perturbation seed of run i is baseSeed + i. */
    std::uint64_t baseSeed = 1000;

    /** Host threads (0 = hardware concurrency). */
    std::size_t hostThreads = 0;

    /** fatal() unless the seed range [baseSeed, baseSeed+numRuns)
     *  is non-empty and free of 64-bit wraparound. */
    void validate() const;
};

/**
 * Run @p exp.numRuns independent simulations of (sys, wl) under
 * @p run, with per-run seeds baseSeed+i. Results are ordered by run
 * index regardless of host-thread scheduling.
 */
std::vector<RunResult> runMany(const SystemConfig &sys,
                               const workload::WorkloadParams &wl,
                               const RunConfig &run,
                               const ExperimentConfig &exp);

/**
 * As runMany, but every run restores from @p cp first — the
 * space-variability experiment design: identical initial conditions,
 * different perturbation seeds.
 */
std::vector<RunResult>
runManyFromCheckpoint(const SystemConfig &sys,
                      const workload::WorkloadParams &wl,
                      const Checkpoint &cp, const RunConfig &run,
                      const ExperimentConfig &exp);

/** One (configuration, workload, run, experiment) quadruple of a
 *  sweep — the unit of runManyBatch(). */
struct ExperimentSpec
{
    SystemConfig sys;
    workload::WorkloadParams wl;
    RunConfig run;
    ExperimentConfig exp;
};

/**
 * Run several experiments as one interleaved batch: every run of
 * every spec is flattened into a single work queue, so host threads
 * stay busy across configuration boundaries instead of draining at
 * each runMany() join. Results are grouped per spec, ordered by run
 * index — identical to calling runMany() per spec, just faster on a
 * multi-core host. The worker budget is the largest hostThreads of
 * any spec (hardware concurrency if any spec asks for it).
 */
std::vector<std::vector<RunResult>>
runManyBatch(const std::vector<ExperimentSpec> &specs);

/** Extract the cycles-per-transaction metric from results. */
std::vector<double> metricOf(const std::vector<RunResult> &results);

/**
 * Extract metric @p name from results: one of the built-in run
 * metrics ("cycles_per_txn", "runtime_ticks", "txns") or any name in
 * the runs' registry dumps (e.g. "system.mem.bus.l2_misses").
 * fatal() if a run lacks the metric.
 */
std::vector<double> metricOf(const std::vector<RunResult> &results,
                             const std::string &name);

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_EXPERIMENT_HH
