/**
 * @file
 * The value semantics of the lbp IR: the one definition every
 * executor (IR interpreter, reference and decoded simulator engines,
 * trace replay) and the constant folder call.
 *
 * Everything here is a pure function of operand values. Operand
 * decoding, guard and slot resolution, deferred commit, fault and
 * bounds policy, control flow and timing stay with each executor —
 * those are what the engine differential compares.
 *
 * The evaluators are forced inline: called from the executors' op
 * handlers with the opcode often a constant, they must compile to the
 * same code as the hand-written switches they replaced. Left to its
 * own budget the inliner keeps them out of line in the large
 * executor bodies, and the simulator runs ~10% slower.
 */

#ifndef LBP_IR_SEMANTICS_HH
#define LBP_IR_SEMANTICS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ir/opcode.hh"
#include "support/logging.hh"

namespace lbp
{

/** Saturate to signed 16-bit, the DSP intrinsic range. */
inline std::int64_t
sat16(std::int64_t v)
{
    return std::clamp<std::int64_t>(v, -32768, 32767);
}

/** Reinterpret a register's bits as a double (FP ops bit-cast). */
inline double
asDouble(std::int64_t v)
{
    double d;
    static_assert(sizeof(d) == sizeof(v));
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

inline std::int64_t
asBits(double d)
{
    std::int64_t v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}

/** Evaluate a comparison condition on two signed 64-bit values. */
[[gnu::always_inline]] inline bool
evalCond(CmpCond c, std::int64_t a, std::int64_t b)
{
    switch (c) {
      case CmpCond::EQ: return a == b;
      case CmpCond::NE: return a != b;
      case CmpCond::LT: return a < b;
      case CmpCond::LE: return a <= b;
      case CmpCond::GT: return a > b;
      case CmpCond::GE: return a >= b;
      case CmpCond::LTU:
        return static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b);
      case CmpCond::GEU:
        return static_cast<std::uint64_t>(a) >=
               static_cast<std::uint64_t>(b);
      case CmpCond::TRUE_: return true;
      case CmpCond::FALSE_: return false;
      default: LBP_PANIC("bad cond");
    }
}

/**
 * The binary ALU family (ADD…FDIV, including CMP under @p cond).
 * Integer arithmetic wraps in two's complement: INT64_MIN / -1 is
 * INT64_MIN and INT64_MIN % -1 is 0, so a == b * (a / b) + a % b
 * holds for every non-zero divisor. A zero divisor is a fault.
 */
[[gnu::always_inline]] inline std::int64_t
evalBinary(Opcode op, CmpCond cond, std::int64_t a, std::int64_t b)
{
    using U = std::uint64_t;
    auto wrap = [](U v) { return static_cast<std::int64_t>(v); };
    switch (op) {
      case Opcode::ADD: return wrap(U(a) + U(b));
      case Opcode::SUB: return wrap(U(a) - U(b));
      case Opcode::MUL: return wrap(U(a) * U(b));
      case Opcode::DIV:
        LBP_ASSERT(b != 0, "division by zero");
        return b == -1 ? wrap(U(0) - U(a)) : a / b;
      case Opcode::REM:
        LBP_ASSERT(b != 0, "remainder by zero");
        return b == -1 ? 0 : a % b;
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::SHL: return a << (b & 63);
      case Opcode::SHR: return wrap(U(a) >> (b & 63));
      case Opcode::SHRA: return a >> (b & 63);
      case Opcode::MIN: return std::min(a, b);
      case Opcode::MAX: return std::max(a, b);
      case Opcode::SATADD: return sat16(wrap(U(a) + U(b)));
      case Opcode::SATSUB: return sat16(wrap(U(a) - U(b)));
      case Opcode::CMP: return evalCond(cond, a, b) ? 1 : 0;
      case Opcode::FADD: return asBits(asDouble(a) + asDouble(b));
      case Opcode::FSUB: return asBits(asDouble(a) - asDouble(b));
      case Opcode::FMUL: return asBits(asDouble(a) * asDouble(b));
      case Opcode::FDIV: return asBits(asDouble(a) / asDouble(b));
      default: LBP_PANIC("evalBinary on ", opcodeName(op));
    }
}

/** MOV, ABS (wrapping: |INT64_MIN| is INT64_MIN), ITOF and FTOI. */
[[gnu::always_inline]] inline std::int64_t
evalUnary(Opcode op, std::int64_t a)
{
    switch (op) {
      case Opcode::MOV: return a;
      case Opcode::ABS:
        return a < 0 ? static_cast<std::int64_t>(
                           std::uint64_t(0) - static_cast<std::uint64_t>(a))
                     : a;
      case Opcode::ITOF: return asBits(static_cast<double>(a));
      case Opcode::FTOI: return static_cast<std::int64_t>(asDouble(a));
      default: LBP_PANIC("evalUnary on ", opcodeName(op));
    }
}

/**
 * Table 2: what a predicate define of kind @p k writes, given its
 * guard value @p g (an input to the define, not a nullification
 * condition) and its comparison result @p c. Returns 0 or 1, or -1
 * when the destination is left unchanged (and for NONE).
 */
[[gnu::always_inline]] inline int
predDefWrite(PredDefKind k, bool g, bool c)
{
    switch (k) {
      case PredDefKind::NONE: return -1;
      case PredDefKind::UT: return g && c;
      case PredDefKind::UF: return g && !c;
      case PredDefKind::OT: return g && c ? 1 : -1;
      case PredDefKind::OF: return g && !c ? 1 : -1;
      case PredDefKind::AT: return g && !c ? 0 : -1;
      case PredDefKind::AF: return g && c ? 0 : -1;
      case PredDefKind::CT: return g ? int(c) : -1;
      case PredDefKind::CF: return g ? int(!c) : -1;
      default: LBP_PANIC("bad pred def kind");
    }
}

/** Access width in bytes of a load or store (1, 2 or 4). */
[[gnu::always_inline]] inline std::size_t
memWidth(Opcode op)
{
    switch (op) {
      case Opcode::LD_B: case Opcode::ST_B: return 1;
      case Opcode::LD_H: case Opcode::ST_H: return 2;
      default: return 4;
    }
}

/** Little-endian, sign-extending load of memWidth(@p op) bytes. */
[[gnu::always_inline]] inline std::int64_t
loadValue(Opcode op, const std::uint8_t *p)
{
    switch (op) {
      case Opcode::LD_B: return static_cast<std::int8_t>(p[0]);
      case Opcode::LD_H:
        return static_cast<std::int16_t>(p[0] | p[1] << 8);
      default:
        return static_cast<std::int32_t>(
            p[0] | p[1] << 8 | p[2] << 16 |
            static_cast<std::uint32_t>(p[3]) << 24);
    }
}

/** Little-endian store of the low memWidth(@p op) bytes of @p v. */
[[gnu::always_inline]] inline void
storeValue(Opcode op, std::uint8_t *p, std::int64_t v)
{
    for (std::size_t i = 0, n = memWidth(op); i < n; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

} // namespace lbp

#endif // LBP_IR_SEMANTICS_HH
