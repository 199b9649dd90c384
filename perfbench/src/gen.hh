/**
 * @file
 * Seeded random structured programs for the benchmark's `generated`
 * workload. Modelled on the differential test's ProgramGen, with the
 * loop shapes of Kavvadias & Nikolaidis's loop-structure taxonomy and
 * trip counts large enough that simulation does real work:
 *
 *  - twice per program, one counted loop nest of each depth from one
 *    to three and one while-loop kernel, each kernel with an
 *    iteration budget, so every program carries a similar amount of
 *    work;
 *  - innermost trips both below and above kMinCountedReplayIters;
 *  - data-dependent while loops: the kernel's count is loaded data,
 *    and innermost bodies may hold a bit-length scan;
 *  - diamonds and hammocks, the if-conversion candidates;
 *  - calls in loop bodies, to an inlinable helper and to a helper
 *    marked noInline, so some calls survive into buffered loops.
 *
 * The same seed always yields the same program.
 */

#ifndef LBP_PERFBENCH_GEN_HH
#define LBP_PERFBENCH_GEN_HH

#include <cstdint>

#include "ir/program.hh"

namespace perfbench
{

/** Build the program for @p seed. */
lbp::Program generateProgram(std::uint64_t seed);

} // namespace perfbench

#endif // LBP_PERFBENCH_GEN_HH
