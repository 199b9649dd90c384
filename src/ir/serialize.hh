/**
 * @file
 * Textual serialization of lbp programs: a canonical, line-oriented
 * format that round-trips exactly (writeText -> parseText yields a
 * structurally identical program). Used for golden tests, for
 * shipping reproducer programs in bug reports, and for hand-writing
 * small kernels without touching the C++ builder.
 *
 * Format sketch:
 *
 *     program adpcm_enc
 *     memory 8192
 *     checksum 4096 2048
 *     data 0 07000000 08000000 ...
 *     entry main
 *
 *     func adpcm_coder params(r1, r2, r3) rets 1
 *       block bb0 entry
 *         mov r4 = 0
 *         (p2) add r5 = r4, 12
 *         pred_def.lt p2:ut p3:uf = r5, 0
 *         br.lt r4, 8 -> bb0
 *         rec_cloop 64 -> bb1 buf 0 n 33
 *         falls bb1
 *       block bb1 hyperblock
 *         ...
 *
 * Operands: rN (register), pN (predicate), sN (slot), bare integers
 * are immediates. Attributes: `spec` (speculative), `outer`
 * (from-outer-loop), `sens` (sensitivity bit).
 */

#ifndef LBP_IR_SERIALIZE_HH
#define LBP_IR_SERIALIZE_HH

#include <string>

#include "ir/program.hh"

namespace lbp
{

/**
 * Serialize @p prog to canonical text. Block labels are unique per
 * function: a block name that repeats is written with the first free
 * "_N" suffix on its second and later holders, so names that are
 * already unique are written unchanged.
 */
std::string writeText(const Program &prog);

/**
 * Parse a program from text. Throws std::runtime_error (via
 * LBP_FATAL) with a line number on malformed input, including a
 * block label repeated within a function and a repeated function
 * name.
 */
Program parseText(const std::string &text);

} // namespace lbp

#endif // LBP_IR_SERIALIZE_HH
