/**
 * @file
 * Configuration and result types for intra-run statistical sampling
 * (SMARTS-style): a run alternates fast-forward (functional warming),
 * detailed warm-up, and detailed measurement intervals, and the
 * measured windows yield confidence-bounded estimates of the
 * full-detail metrics.
 *
 * Pure data: core::SamplingController (core/sampling.hh) runs the
 * design, and core::measure drives it whenever RunConfig::sample is
 * enabled. Apart from the controller so that RunConfig and RunResult
 * can embed these types without pulling it in.
 */

#ifndef VARSIM_CORE_SAMPLE_CONFIG_HH
#define VARSIM_CORE_SAMPLE_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/logging.hh"

namespace varsim
{
namespace core
{

/** How measurement windows are placed within a run. */
struct SampleConfig
{
    enum class Design : std::uint8_t
    {
        Off,        ///< full detail, controller inert
        Systematic, ///< periodic windows, fixed phase (SMARTS)
        Stratified, ///< periodic windows, per-period random offset
        MatchedPair,///< periodic windows at seed-independent offsets
    };

    Design design = Design::Off;

    /** Sampling unit (period) U, in transactions. */
    std::uint64_t periodTxns = 0;

    /** Detailed warm-up W before each measurement, in transactions. */
    std::uint64_t warmupTxns = 0;

    /** Measurement window M, in transactions. */
    std::uint64_t measureTxns = 0;

    /** Two-sided confidence level for the reported intervals. */
    double confidence = 0.95;

    /**
     * Seed for the stratified design's offset stream. Mixed with the
     * run's perturbation seed for Stratified (independent placement
     * per run) but used alone for MatchedPair (identical windows
     * across the perturbation seeds being compared).
     */
    std::uint64_t offsetSeed = 12345;

    bool enabled() const { return design != Design::Off; }

    /**
     * Parse the CLI form "design:U:W:M[:confidence]" with design one
     * of systematic|stratified|matched. Returns false (leaving @p out
     * untouched) on malformed input.
     */
    static bool
    parse(const std::string &text, SampleConfig &out)
    {
        SampleConfig c;
        std::size_t pos = 0;
        auto nextField = [&](std::string &f) {
            if (pos == std::string::npos)
                return false;
            const std::size_t colon = text.find(':', pos);
            f = text.substr(pos, colon == std::string::npos
                                     ? std::string::npos
                                     : colon - pos);
            pos = colon == std::string::npos ? std::string::npos
                                             : colon + 1;
            return !f.empty();
        };

        std::string f;
        if (!nextField(f))
            return false;
        if (f == "systematic")
            c.design = Design::Systematic;
        else if (f == "stratified")
            c.design = Design::Stratified;
        else if (f == "matched")
            c.design = Design::MatchedPair;
        else
            return false;

        auto parseU64 = [](const std::string &s, std::uint64_t &v) {
            try {
                std::size_t used = 0;
                v = std::stoull(s, &used);
                return used == s.size();
            } catch (...) {
                return false;
            }
        };
        if (!nextField(f) || !parseU64(f, c.periodTxns))
            return false;
        if (!nextField(f) || !parseU64(f, c.warmupTxns))
            return false;
        if (!nextField(f) || !parseU64(f, c.measureTxns))
            return false;
        if (pos != std::string::npos) {
            if (!nextField(f))
                return false;
            try {
                std::size_t used = 0;
                c.confidence = std::stod(f, &used);
                if (used != f.size())
                    return false;
            } catch (...) {
                return false;
            }
            if (pos != std::string::npos)
                return false; // trailing fields
        }
        if (c.periodTxns == 0 || c.measureTxns == 0 ||
            c.warmupTxns + c.measureTxns > c.periodTxns)
            return false;
        if (c.confidence <= 0.0 || c.confidence >= 1.0)
            return false;
        out = c;
        return true;
    }

    std::string
    toString() const
    {
        const char *d = design == Design::Systematic ? "systematic"
                        : design == Design::Stratified
                            ? "stratified"
                        : design == Design::MatchedPair ? "matched"
                                                        : "off";
        return sim::format("%s:%llu:%llu:%llu", d,
                           static_cast<unsigned long long>(periodTxns),
                           static_cast<unsigned long long>(warmupTxns),
                           static_cast<unsigned long long>(
                               measureTxns));
    }
};

/**
 * What a sampled run estimated, surfaced through the sim.sampled.*
 * metrics and RunResult. All intervals are two-sided at `confidence`.
 */
struct SampledStats
{
    bool enabled = false;

    std::uint64_t periods = 0;      ///< sampling units completed
    std::uint64_t windows = 0;      ///< measurement windows taken
    std::uint64_t fastTxns = 0;     ///< txns under functional warming
    std::uint64_t warmTxns = 0;     ///< txns in detailed warm-up
    std::uint64_t measuredTxns = 0; ///< txns inside measured windows

    /**
     * True when the run was too short for even one full window and
     * the controller degraded to full detail (the estimate is then
     * exact, with a degenerate interval).
     */
    bool fullDetailFallback = false;

    double confidence = 0.0;

    // Cycles per transaction (aggregate cost metric, cpu-ticks/txn).
    double cptMean = 0.0, cptLo = 0.0, cptHi = 0.0;
    // Instructions per cycle, summed over CPUs then normalized.
    double ipcMean = 0.0, ipcLo = 0.0, ipcHi = 0.0;
    // L2 miss rate: misses / (hits + misses) at the L2s.
    double l2MissMean = 0.0, l2MissLo = 0.0, l2MissHi = 0.0;
};

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_SAMPLE_CONFIG_HH
