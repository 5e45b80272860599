/**
 * @file
 * Shared scaffolding for the per-table/per-figure benchmark
 * binaries. Every binary regenerates one of the paper's results and
 * prints the measured rows next to a note on what the paper reports
 * (shape comparison, not absolute numbers — the substrate is a
 * synthetic-workload simulator, not the authors' Simics/DB2 setup).
 *
 * Environment:
 *   VARSIM_QUICK=1   scale down run counts / lengths (~4x faster)
 */

#ifndef VARSIM_BENCH_COMMON_HH
#define VARSIM_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/varsim.hh"

namespace varsim
{
namespace bench
{

/** True if VARSIM_QUICK is set to a nonzero value. */
inline bool
quick()
{
    const char *env = std::getenv("VARSIM_QUICK");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Scale a run count down in quick mode (min 5). */
inline std::size_t
scaleRuns(std::size_t full)
{
    if (!quick())
        return full;
    const std::size_t s = full / 4;
    return s < 5 ? (full < 5 ? full : 5) : s;
}

/** Scale a transaction count down in quick mode (min 10). */
inline std::uint64_t
scaleTxns(std::uint64_t full)
{
    if (!quick())
        return full;
    const std::uint64_t s = full / 4;
    return s < 10 ? (full < 10 ? full : 10) : s;
}

/**
 * Print the standard experiment banner. A binary that runs at full
 * size whatever VARSIM_QUICK says passes @p scales = false, and the
 * banner then does not claim a scaled-down run.
 */
inline void
banner(const char *id, const char *title, const char *paper_says,
       bool scales = true)
{
    std::printf("=============================================="
                "==============================\n");
    std::printf("%s: %s\n", id, title);
    std::printf("paper: %s\n", paper_says);
    if (scales && quick())
        std::printf("(VARSIM_QUICK: scaled-down run)\n");
    std::printf("----------------------------------------------"
                "------------------------------\n");
}

/** The paper's 16-processor target (Section 3.2.1). */
inline core::SystemConfig
paperSystem()
{
    return core::SystemConfig::paperDefault();
}

/** The OLTP workload with the paper's 8 users per processor. */
inline workload::WorkloadParams
oltpWorkload()
{
    return {};
}

/** Wall-clock stopwatch for "simulation cost" rows (Table 4). */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/** Simple textual min/avg/max strip for "figure" outputs. */
inline std::string
strip(double lo, double mean, double hi, double axis_lo,
      double axis_hi, std::size_t width = 56)
{
    std::string s(width, ' ');
    auto pos = [&](double v) {
        double f = (v - axis_lo) / (axis_hi - axis_lo);
        f = f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f);
        return static_cast<std::size_t>(f * (width - 1));
    };
    const std::size_t a = pos(lo), b = pos(hi), m = pos(mean);
    for (std::size_t i = a; i <= b && i < width; ++i)
        s[i] = '-';
    s[a] = '|';
    s[b] = '|';
    s[m] = 'o';
    return s;
}

} // namespace bench
} // namespace varsim

#endif // VARSIM_BENCH_COMMON_HH
