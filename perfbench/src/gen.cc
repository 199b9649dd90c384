#include "gen.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ir/builder.hh"
#include "support/random.hh"
#include "workloads/input_data.hh"

namespace perfbench
{

using namespace lbp;

namespace
{

Operand R(RegId r) { return Operand::reg(r); }
Operand I(std::int64_t v) { return Operand::imm(v); }

constexpr int kMemWords = 1024;
/** Innermost-body iterations per kernel (before jitter). */
constexpr std::int64_t kKernelBudget = 192;
/** Times each program repeats its set of kernel shapes. */
constexpr int kShapeRounds = 2;

class Generator
{
  public:
    explicit Generator(std::uint64_t seed) : rng_(seed) {}

    Program generate()
    {
        Program prog;
        prog.name = "gen";
        const auto mem = prog.allocData(kMemWords * 4);
        {
            Rng init(rng_.next());
            for (int i = 0; i < kMemWords; ++i)
                prog.poke32(mem + 4 * i,
                            static_cast<std::int32_t>(
                                init.nextRange(-1000, 1000)));
        }
        prog.checksumBase = mem;
        prog.checksumSize = kMemWords * 4;

        helper_ = buildHelper(prog, "helper", false);
        opaque_ = buildHelper(prog, "opaque", true);

        const FuncId mainF = prog.newFunction("main");
        prog.entryFunc = mainF;
        IRBuilder b(prog, mainF);
        memBase_ = b.iconst(mem);
        pool_ = {b.iconst(1), b.iconst(rng_.nextRange(-20, 20))};

        // A fixed set of kernel shapes, so programs differ in their
        // details rather than in their mix of shapes.
        emitStraightOps(b, 2 + rng_.nextBelow(3));
        for (int round = 0; round < kShapeRounds; ++round) {
            for (size_t levels = 1; levels <= 3; ++levels) {
                emitNest(b, levels);
                emitStraightOps(b, 1 + rng_.nextBelow(3));
            }
            emitWhileKernel(b);
        }

        // Make the pool observable.
        const RegId addr = b.iconst(mem);
        for (size_t i = 0; i < pool_.size() && i < 8; ++i)
            b.storeW(R(addr), I(static_cast<int>(4 * i)),
                     R(pool_[pool_.size() - 1 - i]));
        b.ret({R(pool_.back())});
        return prog;
    }

  private:
    /** A small straight-line mixing function with one diamond. */
    FuncId buildHelper(Program &prog, const char *name, bool noInline)
    {
        const FuncId f = prog.newFunction(name);
        Function &fn = prog.functions[f];
        fn.noInline = noInline;
        const RegId x = fn.newReg();
        fn.params = {x};
        fn.numReturns = 1;
        IRBuilder hb(prog, f);
        const RegId t = hb.mul(R(x), I(3 + rng_.nextBelow(5)));
        const RegId u = hb.xor_(R(t), I(0x55));
        const RegId v = hb.and_(R(u), I(0xffff));
        workloads::diamond(hb, CmpCond::GT, R(v), I(0x7fff),
                           [&] { hb.subTo(v, R(v), I(0x100)); },
                           [&] { hb.addTo(v, R(v), I(7)); });
        hb.ret({R(v)});
        return f;
    }

    void push(RegId r)
    {
        pool_.push_back(r);
        if (pool_.size() > 24)
            pool_.erase(pool_.begin(), pool_.begin() + 8);
    }

    RegId pick() { return pool_[rng_.nextBelow(pool_.size())]; }

    /** Word address (byte offset) derived from @p r, in bounds. */
    RegId wordOffset(IRBuilder &b, RegId r)
    {
        const RegId idx = b.and_(R(r), I(kMemWords - 1));
        return b.shl(R(idx), I(2));
    }

    void emitStraightOps(IRBuilder &b, std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            const RegId a = pick();
            const RegId c = pick();
            switch (rng_.nextBelow(8)) {
              case 0:
                push(b.add(R(a), R(c)));
                break;
              case 1:
                push(b.sub(R(a), I(rng_.nextRange(-9, 9))));
                break;
              case 2:
                push(b.mul(R(a), R(c)));
                break;
              case 3:
                push(b.loadW(R(memBase_), R(wordOffset(b, a))));
                break;
              case 4: {
                const RegId off = wordOffset(b, a);
                const RegId val = b.and_(R(c), I(0xffffff));
                b.storeW(R(memBase_), R(off), R(val));
                break;
              }
              case 5:
                push(b.satadd(R(a), R(c)));
                break;
              case 6:
                push(b.min(R(a), R(c)));
                break;
              default:
                push(b.xor_(R(a), R(c)));
                break;
            }
        }
    }

    /** A diamond or a hammock, optionally nesting one more. */
    void emitControl(IRBuilder &b, int depth)
    {
        static const CmpCond conds[] = {CmpCond::LT, CmpCond::GE,
                                        CmpCond::EQ, CmpCond::NE,
                                        CmpCond::GT};
        const CmpCond c = conds[rng_.nextBelow(5)];
        const RegId x = pick();
        const std::int64_t k = rng_.nextRange(-8, 8);
        if (rng_.chance(0.5)) {
            workloads::diamond(
                b, c, R(x), I(k),
                [&] {
                    emitStraightOps(b, 1 + rng_.nextBelow(3));
                    if (depth > 0 && rng_.chance(0.4))
                        emitControl(b, depth - 1);
                },
                [&] { emitStraightOps(b, 1 + rng_.nextBelow(3)); });
        } else {
            workloads::ifThen(b, c, R(x), I(k), [&] {
                emitStraightOps(b, 1 + rng_.nextBelow(4));
                if (depth > 0 && rng_.chance(0.3))
                    emitControl(b, depth - 1);
            });
        }
    }

    /**
     * A data-dependent while loop: the bit length of a loaded word
     * under a random mask, so trips range from 1 to 4, 12 or 20.
     */
    void emitBitScan(IRBuilder &b)
    {
        static const std::int64_t masks[] = {0xf, 0xfff, 0xfffff};
        const RegId v = b.loadW(R(memBase_), R(wordOffset(b, pick())));
        const RegId m = b.and_(R(v), I(masks[rng_.nextBelow(3)]));
        const RegId x = b.or_(R(m), I(1));
        const RegId n = b.iconst(0);
        const BlockId head = b.makeBlock("scan");
        b.fallTo(head);
        b.at(head);
        const RegId x2 = b.shra(R(x), I(1));
        b.movTo(x, R(x2));
        b.addTo(n, R(n), I(1));
        b.br(CmpCond::GT, R(x), I(0), head);
        const BlockId after = b.makeBlock();
        b.fallTo(after);
        b.at(after);
        push(n);
    }

    void emitCalls(IRBuilder &b)
    {
        if (rng_.chance(0.15))
            push(b.call(helper_, {R(pick())}, 1)[0]);
        if (rng_.chance(0.1))
            push(b.call(opaque_, {R(pick())}, 1)[0]);
    }

    void emitInnerBody(IRBuilder &b)
    {
        emitStraightOps(b, 2 + rng_.nextBelow(5));
        if (rng_.chance(0.6))
            emitControl(b, 1);
        if (rng_.chance(0.2))
            emitBitScan(b);
        emitCalls(b);
        emitStraightOps(b, 1 + rng_.nextBelow(3));
    }

    /** A counted loop nest; trips[0] is outermost. */
    void emitLoops(IRBuilder &b, const std::vector<std::int64_t> &trips,
                   size_t level)
    {
        b.forLoop(0, trips[level], 1, [&](RegId i) {
            push(i);
            if (level + 1 == trips.size()) {
                emitInnerBody(b);
                return;
            }
            emitStraightOps(b, 1 + rng_.nextBelow(3));
            if (rng_.chance(0.3))
                emitControl(b, 0);
            emitLoops(b, trips, level + 1);
            emitStraightOps(b, 1 + rng_.nextBelow(2));
        });
    }

    /**
     * A nest of one to three levels. The innermost trip is drawn first
     * — a quarter of nests get 2 or 3, below the replay engage
     * threshold — and the outer levels share what is left of the
     * kernel budget.
     */
    void emitNest(IRBuilder &b, size_t levels)
    {
        const std::int64_t budget =
            kKernelBudget + rng_.nextRange(-kKernelBudget / 4,
                                           kKernelBudget / 4);
        std::vector<std::int64_t> trips(levels);
        if (levels == 1) {
            trips[0] = budget;
        } else {
            const std::int64_t inner =
                rng_.chance(0.25) ? rng_.nextRange(2, 3)
                                  : rng_.nextRange(4, 48);
            trips[levels - 1] = inner;
            std::int64_t rest = std::max<std::int64_t>(2, budget / inner);
            if (levels == 3) {
                const std::int64_t outer = std::max<std::int64_t>(
                    2, std::llround(std::sqrt(double(rest))));
                trips[0] = outer;
                rest = std::max<std::int64_t>(2, rest / outer);
            }
            trips[levels - 2] = rest;
        }
        emitLoops(b, trips, 0);
    }

    /**
     * A while loop whose count is loaded data: each iteration
     * subtracts 1..4 (from memory) from a counter seeded at 1.5 to 3
     * budgets' worth, so the trip count is known only at run time.
     */
    void emitWhileKernel(IRBuilder &b)
    {
        const std::int64_t start =
            kKernelBudget + rng_.nextRange(kKernelBudget / 2,
                                           2 * kKernelBudget);
        const RegId left = b.iconst(start);
        const BlockId head = b.makeBlock("wloop");
        b.fallTo(head);
        b.at(head);
        push(left);
        emitStraightOps(b, 2 + rng_.nextBelow(4));
        if (rng_.chance(0.5))
            emitControl(b, 0);
        const RegId v =
            b.loadW(R(memBase_), R(wordOffset(b, pick())));
        const RegId dec = b.and_(R(v), I(3));
        const RegId step = b.add(R(dec), I(1));
        b.subTo(left, R(left), R(step));
        b.br(CmpCond::GT, R(left), I(0), head);
        const BlockId after = b.makeBlock();
        b.fallTo(after);
        b.at(after);
    }

    Rng rng_;
    std::vector<RegId> pool_;
    RegId memBase_ = 0;
    FuncId helper_ = kNoFunc;
    FuncId opaque_ = kNoFunc;
};

} // namespace

Program
generateProgram(std::uint64_t seed)
{
    return Generator(seed).generate();
}

} // namespace perfbench
