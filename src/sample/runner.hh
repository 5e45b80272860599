/**
 * @file
 * Old names of the core:: runners, which honour RunConfig::sample
 * themselves. Kept only for perfbench/src/sampled.cc, the one
 * caller; new code calls core::runOnce and core::measure.
 */

#ifndef VARSIM_SAMPLE_RUNNER_HH
#define VARSIM_SAMPLE_RUNNER_HH

#include "core/runner.hh"

namespace varsim
{
namespace sample
{

using core::measure;
using core::runOnce;

} // namespace sample
} // namespace varsim

#endif // VARSIM_SAMPLE_RUNNER_HH
