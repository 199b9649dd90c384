/**
 * @file
 * Execution profiling: an interpreter run whose per-block entry
 * counts are written back onto the IR as BasicBlock::weight.
 * Profile-guided inlining, if-conversion, the loop decision log and
 * buffer allocation all read those weights.
 */

#ifndef LBP_PROFILE_PROFILE_HH
#define LBP_PROFILE_PROFILE_HH

#include <cstdint>
#include <vector>

#include "ir/interpreter.hh"
#include "ir/program.hh"

namespace lbp
{

/**
 * Interpret @p prog with @p args, set every live block's weight to
 * its entry count (0 for blocks never entered), and return the run
 * result.
 */
ExecResult profileProgram(Program &prog,
                          const std::vector<std::int64_t> &args = {});

} // namespace lbp

#endif // LBP_PROFILE_PROFILE_HH
