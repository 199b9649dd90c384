#include "sim/decoded.hh"

#include <algorithm>

#include "obs/prof.hh"
#include "support/logging.hh"

namespace lbp
{

int
LoopTable::idOf(const LoopKey &key) const
{
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    LBP_ASSERT(it != keys.end() && *it == key,
               "unknown loop key (func ", key.func, ", op ",
               key.recOp, ")");
    return static_cast<int>(it - keys.begin());
}

LoopTable
buildLoopTable(const SchedProgram &code)
{
    LBP_ASSERT(code.ir != nullptr, "SchedProgram without IR link");
    const Program &prog = *code.ir;

    struct StaticLoop
    {
        LoopKey key;
        const Function *fn = nullptr;
        const Operation *op = nullptr;
        const SchedBlock *body = nullptr;
    };
    std::vector<StaticLoop> found;

    for (FuncId f = 0; f < code.functions.size(); ++f) {
        const Function &fn = prog.functions[f];
        const SchedFunction &sf = code.functions[f];
        for (const SchedBlock &sb : sf.blocks) {
            if (!sb.valid)
                continue;
            for (const SchedOp &so : sb.ops) {
                if (!isBufferOp(so.op.op))
                    continue;
                const Operation &op = so.op;
                LBP_ASSERT(op.target != kNoBlock &&
                               op.target < sf.blocks.size(),
                           "buffer op without loop head in ", fn.name);
                found.push_back({{f, op.id}, &fn, &op,
                                 &sf.blocks[op.target]});
            }
        }
    }
    std::sort(found.begin(), found.end(),
              [](const StaticLoop &a, const StaticLoop &b) {
                  return a.key < b.key;
              });

    LoopTable table;
    table.keys.reserve(found.size());
    table.proto.reserve(found.size());
    for (const StaticLoop &sl : found) {
        LBP_ASSERT(table.keys.empty() || !(table.keys.back() == sl.key),
                   "duplicate loop key");
        table.keys.push_back(sl.key);
        LoopStats ls;
        ls.key = sl.key;
        ls.name = sl.fn->name + "/" +
                  sl.fn->blocks[sl.op->target].name;
        ls.imageOps = sl.body->imageOps();
        ls.bufAddr = sl.op->bufAddr;
        table.proto.push_back(std::move(ls));
    }
    return table;
}

ExecHandler
classifyHandler(Opcode op)
{
    switch (op) {
      case Opcode::PRED_DEF: return ExecHandler::PRED_DEF;
      case Opcode::LD_B:
      case Opcode::LD_H:
      case Opcode::LD_W: return ExecHandler::LOAD;
      case Opcode::ST_B:
      case Opcode::ST_H:
      case Opcode::ST_W: return ExecHandler::STORE;
      case Opcode::MOV: return ExecHandler::MOV;
      case Opcode::ABS: return ExecHandler::ABS;
      case Opcode::ITOF: return ExecHandler::ITOF;
      case Opcode::FTOI: return ExecHandler::FTOI;
      case Opcode::SELECT: return ExecHandler::SELECT;
      case Opcode::BR:
      case Opcode::BR_WLOOP: return ExecHandler::BR;
      case Opcode::JUMP: return ExecHandler::JUMP;
      case Opcode::BR_CLOOP: return ExecHandler::BR_CLOOP;
      case Opcode::REC_CLOOP:
      case Opcode::REC_WLOOP:
      case Opcode::EXEC_CLOOP:
      case Opcode::EXEC_WLOOP: return ExecHandler::LOOP;
      case Opcode::CALL: return ExecHandler::CALL;
      case Opcode::RET: return ExecHandler::RET;
      case Opcode::NOP:
        LBP_PANIC("NOP has no executor handler");
      default: return ExecHandler::ALU;
    }
}

namespace
{

XSrc
decodeSrc(const Operand &o, std::uint32_t numRegs,
          std::uint32_t numPreds)
{
    XSrc s;
    switch (o.kind) {
      case OperandKind::REG:
        LBP_ASSERT(o.asReg() < numRegs, "reg operand out of range");
        s.kind = XSrc::REG;
        s.idx = o.asReg();
        break;
      case OperandKind::IMM:
        s.kind = XSrc::IMM;
        s.imm = o.value;
        break;
      case OperandKind::PRED:
        LBP_ASSERT(o.asPred() < numPreds, "pred operand out of range");
        s.kind = XSrc::PRED;
        s.idx = o.asPred();
        break;
      default:
        LBP_PANIC("unreadable operand kind in predecode");
    }
    return s;
}

MicroOp
decodeOp(const SchedOp &so, FuncId f, const SchedFunction &sf,
         const LoopTable &loops, DecodedFunction &df,
         DecodedProgram &dp)
{
    const Operation &op = so.op;
    MicroOp m;
    m.op = op.op;
    m.handler = classifyHandler(op.op);
    m.cond = op.cond;
    m.k0 = op.defKind0;
    m.k1 = op.defKind1;
    m.slot = static_cast<std::int8_t>(so.slot);
    m.sensitive = op.sensitive;
    m.speculative = op.speculative;
    m.guard = op.guard;
    m.target = op.target;
    m.callee = op.callee;
    m.bufAddr = op.bufAddr;
    if (m.guard != kNoPred) {
        LBP_ASSERT(m.guard < df.numPreds, "guard out of range");
    }
    if (m.sensitive) {
        LBP_ASSERT(so.slot >= 0 && so.slot < Machine::width,
                   "sensitive op without slot");
    }

    // Operand lists. CALL/RET are variable-length and spill to the
    // program-level side arrays; everything else fits inline.
    if (op.op == Opcode::CALL || op.op == Opcode::RET) {
        m.xsrcBegin = static_cast<std::uint32_t>(dp.extraSrcs.size());
        for (const Operand &s : op.srcs)
            dp.extraSrcs.push_back(decodeSrc(s, df.numRegs,
                                             df.numPreds));
        m.xsrcCount = static_cast<std::uint32_t>(op.srcs.size());
        if (op.op == Opcode::CALL) {
            m.xdstBegin =
                static_cast<std::uint32_t>(dp.extraDsts.size());
            for (const Operand &d : op.dsts) {
                LBP_ASSERT(d.isReg() && d.asReg() < df.numRegs,
                           "call return register out of range");
                dp.extraDsts.push_back(
                    static_cast<std::int32_t>(d.asReg()));
            }
            m.xdstCount = static_cast<std::uint32_t>(op.dsts.size());
        }
        return m;
    }

    LBP_ASSERT(op.srcs.size() <= 3, "operand overflow in predecode");
    for (size_t i = 0; i < op.srcs.size(); ++i)
        m.src[i] = decodeSrc(op.srcs[i], df.numRegs, df.numPreds);

    if (op.op == Opcode::PRED_DEF) {
        auto decodePredDst = [&](const Operand &d, std::uint8_t &kind,
                                 std::int32_t &idx) {
            if (d.isSlot()) {
                LBP_ASSERT(d.asSlot() >= 0 &&
                               d.asSlot() < Machine::width,
                           "slot destination out of range");
                kind = 2;
                idx = d.asSlot();
            } else {
                LBP_ASSERT(d.isPred() && d.asPred() < df.numPreds,
                           "pred destination out of range");
                kind = 1;
                idx = static_cast<std::int32_t>(d.asPred());
            }
        };
        LBP_ASSERT(!op.dsts.empty(), "PRED_DEF without destination");
        decodePredDst(op.dsts[0], m.pdKind0, m.pdIdx0);
        if (op.dsts.size() > 1)
            decodePredDst(op.dsts[1], m.pdKind1, m.pdIdx1);
        return m;
    }

    if (isBufferOp(op.op)) {
        m.counted = op.op == Opcode::REC_CLOOP ||
                    op.op == Opcode::EXEC_CLOOP;
        m.loopId = loops.idOf({f, op.id});
        LBP_ASSERT(op.target != kNoBlock &&
                       op.target < sf.blocks.size(),
                   "buffer op without loop head");
        const SchedBlock &body = sf.blocks[op.target];
        m.pipelined = body.pipelined;
        m.bodyLen = body.lengthCycles();
        m.ii = body.ii;
        m.minII = body.minII;
        m.imageOps = body.imageOps();
        return m;
    }

    if (!op.dsts.empty()) {
        LBP_ASSERT(op.dsts.size() == 1 && op.dsts[0].isReg() &&
                       op.dsts[0].asReg() < df.numRegs,
                   "bad register destination in predecode for ",
                   opcodeName(op.op));
        m.dstReg = static_cast<std::int32_t>(op.dsts[0].asReg());
    }
    return m;
}

} // namespace

DecodedProgram
decodeProgram(const SchedProgram &code, const LoopTable &loops)
{
    LBP_ASSERT(code.ir != nullptr, "SchedProgram without IR link");
    const Program &prog = *code.ir;

    DecodedProgram dp;
    dp.code = &code;
    dp.functions.resize(code.functions.size());

    for (FuncId f = 0; f < code.functions.size(); ++f) {
        const Function &fn = prog.functions[f];
        const SchedFunction &sf = code.functions[f];
        DecodedFunction &df = dp.functions[f];
        df.fn = &fn;
        df.entry = fn.entry;
        df.numRegs = fn.nextReg;
        df.numPreds = std::max<PredId>(fn.nextPred, 1);
        df.params = fn.params;
        df.numReturns = static_cast<std::uint32_t>(fn.numReturns);
        df.blocks.resize(fn.blocks.size());

        for (BlockId b = 0; b < fn.blocks.size(); ++b) {
            const BasicBlock &ibb = fn.blocks[b];
            const SchedBlock &sb = sf.blocks[b];
            DecodedBlock &db = df.blocks[b];
            db.fallthrough = ibb.fallthrough;
            db.valid = sb.valid && !ibb.dead;
            if (!db.valid)
                continue;
            db.firstBundle =
                static_cast<std::uint32_t>(df.bundles.size());
            db.bundleCount =
                static_cast<std::uint32_t>(sb.bundles.size());
            for (const Bundle &bu : sb.bundles) {
                LBP_ASSERT(bu.count <=
                               static_cast<size_t>(Machine::width),
                           "overwide bundle in predecode");
                DecodedBundle dbu;
                dbu.first = static_cast<std::uint32_t>(df.ops.size());
                dbu.sizeOps = bu.sizeOps();
                for (const SchedOp &so : sb.opsOf(bu)) {
                    if (so.op.op == Opcode::NOP)
                        continue;
                    df.ops.push_back(
                        decodeOp(so, f, sf, loops, df, dp));
                }
                dbu.count = static_cast<std::uint32_t>(df.ops.size()) -
                            dbu.first;
                df.bundles.push_back(dbu);
            }
        }
    }
    return dp;
}

DecodedImage
buildDecodedImage(const SchedProgram &code)
{
    obs::prof::ScopedRegion profRegion(obs::prof::Region::Decode);
    DecodedImage img;
    img.loops = buildLoopTable(code);
    img.program = decodeProgram(code, img.loops);
    return img;
}

void
rebindBufferAddresses(DecodedImage &img, const SchedProgram &code)
{
    // Current allocation, gathered exactly as buildLoopTable scans.
    std::vector<std::int32_t> addr(img.loops.keys.size(), -1);
    for (FuncId f = 0; f < code.functions.size(); ++f) {
        for (const SchedBlock &sb : code.functions[f].blocks) {
            if (!sb.valid)
                continue;
            for (const SchedOp &so : sb.ops) {
                if (!isBufferOp(so.op.op))
                    continue;
                addr[img.loops.idOf({f, so.op.id})] = so.op.bufAddr;
            }
        }
    }
    for (std::size_t i = 0; i < addr.size(); ++i)
        img.loops.proto[i].bufAddr = addr[i];
    for (DecodedFunction &df : img.program.functions) {
        for (MicroOp &m : df.ops) {
            if (m.loopId >= 0)
                m.bufAddr = addr[m.loopId];
        }
    }
}

} // namespace lbp
