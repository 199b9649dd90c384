/**
 * @file
 * Operand and Operation: the atomic units of the lbp IR.
 */

#ifndef LBP_IR_OPERATION_HH
#define LBP_IR_OPERATION_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "ir/opcode.hh"
#include "ir/types.hh"

namespace lbp
{

/** Operand kinds. */
enum class OperandKind : std::uint8_t
{
    NONE,
    REG,    ///< general virtual register
    IMM,    ///< signed immediate
    PRED,   ///< predicate virtual register
    SLOT,   ///< issue-slot destination (slot-based predication lowering)
};

/** A single operand: a tagged (kind, value) pair. */
struct Operand
{
    OperandKind kind = OperandKind::NONE;
    std::int64_t value = 0;

    Operand() = default;
    Operand(OperandKind k, std::int64_t v) : kind(k), value(v) {}

    static Operand reg(RegId r)
    { return {OperandKind::REG, static_cast<std::int64_t>(r)}; }

    static Operand imm(std::int64_t v) { return {OperandKind::IMM, v}; }

    static Operand pred(PredId p)
    { return {OperandKind::PRED, static_cast<std::int64_t>(p)}; }

    static Operand slot(int s) { return {OperandKind::SLOT, s}; }

    bool isReg() const { return kind == OperandKind::REG; }
    bool isImm() const { return kind == OperandKind::IMM; }
    bool isPred() const { return kind == OperandKind::PRED; }
    bool isSlot() const { return kind == OperandKind::SLOT; }
    bool isNone() const { return kind == OperandKind::NONE; }

    RegId asReg() const { return static_cast<RegId>(value); }
    PredId asPred() const { return static_cast<PredId>(value); }
    int asSlot() const { return static_cast<int>(value); }

    bool operator==(const Operand &o) const
    { return kind == o.kind && value == o.value; }
};

/**
 * An operation's source or destination operands. Up to three are
 * stored inline and only longer CALL/RET lists go to the heap, so
 * copying or destroying an op (IR copies, scheduled copies, teardown)
 * usually allocates nothing. Offers the subset of std::vector the IR
 * uses.
 */
class OperandList
{
  public:
    static constexpr std::uint32_t kInline = 3;

    OperandList() = default;
    OperandList(std::initializer_list<Operand> ops)
    { append(ops.begin(), ops.size()); }
    OperandList(const std::vector<Operand> &ops)
    { append(ops.data(), ops.size()); }
    OperandList(const OperandList &o) { append(o.data_, o.size_); }
    OperandList(OperandList &&o) noexcept { steal(o); }
    ~OperandList() { release(); }

    OperandList &operator=(const OperandList &o)
    {
        if (this != &o) {
            size_ = 0;
            append(o.data_, o.size_);
        }
        return *this;
    }
    OperandList &operator=(OperandList &&o) noexcept
    {
        if (this != &o) {
            release();
            steal(o);
        }
        return *this;
    }
    OperandList &operator=(std::initializer_list<Operand> ops)
    {
        size_ = 0;
        append(ops.begin(), ops.size());
        return *this;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Operand &operator[](size_t i) { return data_[i]; }
    const Operand &operator[](size_t i) const { return data_[i]; }
    Operand *begin() { return data_; }
    Operand *end() { return data_ + size_; }
    const Operand *begin() const { return data_; }
    const Operand *end() const { return data_ + size_; }

    /** By value: @p o may be one of this list's own operands. */
    void push_back(Operand o)
    {
        if (size_ == cap_)
            reserve(2 * size_);
        data_[size_++] = o;
    }
    void clear() { size_ = 0; }

  private:
    void reserve(size_t n)
    {
        if (n <= cap_)
            return;
        Operand *heap = new Operand[n];
        std::copy(data_, data_ + size_, heap);
        release();
        data_ = heap;
        cap_ = static_cast<std::uint32_t>(n);
    }
    void append(const Operand *ops, size_t n)
    {
        reserve(size_ + n);
        std::copy(ops, ops + n, data_ + size_);
        size_ += static_cast<std::uint32_t>(n);
    }
    void release()
    {
        if (data_ != inline_)
            delete[] data_;
    }
    /** Take @p o's operands and leave it empty and inline. */
    void steal(OperandList &o)
    {
        if (o.data_ == o.inline_) {
            std::copy(o.inline_, o.inline_ + o.size_, inline_);
            data_ = inline_;
            cap_ = kInline;
        } else {
            data_ = o.data_;
            cap_ = o.cap_;
            o.data_ = o.inline_;
            o.cap_ = kInline;
        }
        size_ = o.size_;
        o.size_ = 0;
    }

    Operand *data_ = inline_;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInline;
    Operand inline_[kInline];
};

/**
 * One IR operation.
 *
 * Layout conventions per opcode family:
 *  - ALU binary:   dsts=[reg], srcs=[a, b]
 *  - MOV/ABS/...:  dsts=[reg], srcs=[a]
 *  - SELECT:       dsts=[reg], srcs=[cond, ifTrue, ifFalse]
 *  - CMP:          dsts=[reg], srcs=[a, b], cond
 *  - LD_*:         dsts=[reg], srcs=[base, offset]
 *  - ST_*:         srcs=[base, offset, value]
 *  - PRED_DEF:     dsts=[pred|slot, (pred|slot)], srcs=[a, b], cond,
 *                  defKind0/defKind1 (Table 2 semantics)
 *  - BR:           srcs=[a, b], cond, target
 *  - JUMP:         target
 *  - BR_CLOOP:     target (count owned by the matching REC/EXEC_CLOOP)
 *  - BR_WLOOP:     srcs=[a, b], cond, target
 *  - REC_CLOOP:    srcs=[count(reg|imm)], bufAddr, numOps, target=loop head
 *  - REC_WLOOP:    bufAddr, numOps, target=loop head
 *  - EXEC_CLOOP:   srcs=[count], bufAddr, target=loop head
 *  - EXEC_WLOOP:   bufAddr, target=loop head
 *  - CALL:         callee, dsts=rets, srcs=args
 *  - RET:          srcs=return values
 *
 * Every operation carries an optional guard predicate (IMPACT model).
 * After slot-based lowering, `sensitive` marks the single
 * predicate-sensitivity bit of the paper's §4.2 encoding and the guard
 * refers to the consuming slot's standing predicate.
 */
struct Operation
{
    Opcode op = Opcode::NOP;
    CmpCond cond = CmpCond::EQ;
    PredDefKind defKind0 = PredDefKind::NONE;
    PredDefKind defKind1 = PredDefKind::NONE;

    /** Guard predicate; kNoPred (0) means unguarded. */
    PredId guard = kNoPred;

    OperandList dsts;
    OperandList srcs;

    /** Branch target block. */
    BlockId target = kNoBlock;

    /** Callee for CALL. */
    FuncId callee = kNoFunc;

    /** Buffer offset for rec/exec buffer ops; -1 = not buffered. */
    std::int32_t bufAddr = -1;

    /** Loop image size in operations for REC_* ops. */
    std::int32_t numOps = 0;

    /** Unique id within the owning function (assigned by Function). */
    OpId id = 0;

    /** Slot-predication sensitivity bit (valid after lowering). */
    bool sensitive = false;

    /** Marks code pulled in from an outer loop by collapsing. */
    bool fromOuterLoop = false;

    /** Marks control-speculated (promoted) operations. */
    bool speculative = false;

    bool isBranchOp() const { return isBranch(op); }
    bool hasGuard() const { return guard != kNoPred; }

    /** Number of general-register source operands. */
    int numRegSrcs() const;

    /** True if this op writes general register r. */
    bool writesReg(RegId r) const;

    /** True if this op reads general register r. */
    bool readsReg(RegId r) const;
};

/** Make a simple binary ALU op. */
Operation makeBinary(Opcode op, RegId dst, Operand a, Operand b);

/** Make a unary op (MOV, ABS, ITOF, ...). */
Operation makeUnary(Opcode op, RegId dst, Operand a);

/** Make a compare-to-register op. */
Operation makeCmp(RegId dst, CmpCond c, Operand a, Operand b);

/** Make a load: dst = mem[base + offset]. */
Operation makeLoad(Opcode op, RegId dst, Operand base, Operand offset);

/** Make a store: mem[base + offset] = value. */
Operation makeStore(Opcode op, Operand base, Operand offset, Operand value);

/** Make a predicate define with one or two destinations. */
Operation makePredDef(PredDefKind k0, PredId p0, PredDefKind k1, PredId p1,
                      CmpCond c, Operand a, Operand b);

/** Make a conditional branch. */
Operation makeBr(CmpCond c, Operand a, Operand b, BlockId target);

/** Make an unconditional jump. */
Operation makeJump(BlockId target);

} // namespace lbp

#endif // LBP_IR_OPERATION_HH
