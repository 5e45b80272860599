/**
 * @file
 * Adaptive-stopping campaign vs the paper's fixed-run practice.
 *
 * Table 5 reports the number of runs needed before the ROB 32-vs-64
 * comparison becomes significant at progressively tighter levels:
 * 10% -> 6, 5% -> 9, 2.5% -> 11, 1% -> 13, 0.5% -> 16 runs — always
 * fewer than the paper's routine 20 runs per configuration. Here the
 * campaign engine closes that loop: for each significance level it
 * runs a full durable campaign whose stopping controller extends the
 * pilot only until the pairwise t-test resolves, then we check two
 * properties: the per-level run counts are monotone non-decreasing
 * as the level tightens (the Table 5 ordering), and every adaptive
 * campaign records strictly fewer total runs than a fixed 20-per-
 * configuration campaign of the same pair.
 *
 * VARSIM_QUICK does not shrink it: the full experiment takes about a
 * second, and scaled-down runs are too noisy for the t tests to
 * resolve, so every level would run to the cap and the check against
 * the fixed baseline would fail.
 */

#include <filesystem>

#include "bench/common.hh"
#include "campaign/campaign.hh"

using namespace varsim;

namespace
{

/** The Table 5 experiment: OLTP on ROB 32 vs 64 out-of-order CPUs. */
campaign::CampaignSpec
robSpec(std::size_t pilot_runs, std::size_t max_runs)
{
    campaign::CampaignSpec spec;
    for (std::uint32_t rob : {32u, 64u}) {
        core::SystemConfig sys = bench::paperSystem();
        sys.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
        sys.cpu.robEntries = rob;
        spec.configs.push_back(
            {"rob-" + std::to_string(rob), sys});
    }
    spec.wl = bench::oltpWorkload();
    spec.run.warmupTxns = 50;
    spec.run.measureTxns = 50;
    spec.baseSeed = 2000;
    spec.stop.pilotRuns = pilot_runs;
    spec.stop.maxRuns = max_runs;
    spec.stop.relativeError = 0.0; // pairwise criterion only
    return spec;
}

/** Run one campaign in a fresh store; return total recorded runs. */
std::size_t
totalRuns(campaign::CampaignSpec spec, const std::string &tag)
{
    std::string leaf = "varsim_bench_adaptive_";
    leaf += tag;
    leaf += ".camp";
    const std::string dir =
        (std::filesystem::temp_directory_path() / leaf).string();
    std::filesystem::remove_all(dir);
    const auto outcome = campaign::runCampaign(spec, dir);
    std::filesystem::remove_all(dir);
    return outcome.runsRecorded;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Campaign adaptive stopping (Table 5 closed-loop)",
        "durable campaigns that stop when the ROB 32 vs 64 t-test "
        "resolves",
        "Table 5: 6/9/11/13/16 runs at 10/5/2.5/1/0.5% "
        "significance, all below the routine 20 runs/config",
        false);

    const std::size_t pilot = 6;
    const std::size_t maxRuns = 32;
    const std::size_t fixedK = 20;

    // ---- fixed-K baseline: the paper's routine practice ----
    campaign::CampaignSpec fixed = robSpec(pilot, maxRuns);
    fixed.stop.fixedRuns = fixedK;
    const std::size_t fixedTotal = totalRuns(fixed, "fixed");
    std::printf("fixed-K baseline: %zu runs/config x %zu configs "
                "= %zu total runs\n\n",
                fixedK, fixed.configs.size(), fixedTotal);

    // ---- adaptive campaigns, one per significance level ----
    const double alphas[] = {0.10, 0.05, 0.025, 0.01, 0.005};
    const int paperRuns[] = {6, 9, 11, 13, 16};
    std::size_t totals[5] = {};
    stats::Table t({"Significance Level", "total runs (2 configs)",
                    "#Runs paper (per config)"});
    for (int i = 0; i < 5; ++i) {
        campaign::CampaignSpec spec = robSpec(pilot, maxRuns);
        spec.stop.alpha = alphas[i];
        std::string tag = "a";
        tag += std::to_string(i);
        totals[i] = totalRuns(spec, tag);
        t.addRow({stats::fmtF(100.0 * alphas[i], 1) + "%",
                  std::to_string(totals[i]),
                  std::to_string(paperRuns[i])});
    }
    std::printf("%s\n", t.render().c_str());

    // ---- acceptance checks ----
    bool monotone = true;
    for (int i = 1; i < 5; ++i)
        monotone = monotone && totals[i] >= totals[i - 1];
    bool allBelowFixed = true;
    for (std::size_t total : totals)
        allBelowFixed = allBelowFixed && total < fixedTotal;

    std::printf("monotone run counts as significance tightens: "
                "%s\n", monotone ? "yes" : "NO");
    std::printf("every adaptive campaign below the fixed-%zu "
                "baseline (%zu runs): %s\n",
                fixedK, fixedTotal, allBelowFixed ? "yes" : "NO");
    return monotone && allBelowFixed ? 0 : 1;
}
