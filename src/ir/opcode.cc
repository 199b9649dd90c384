#include "ir/opcode.hh"

#include "support/logging.hh"

namespace lbp
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::ADD: return "add";
      case Opcode::SUB: return "sub";
      case Opcode::MUL: return "mul";
      case Opcode::DIV: return "div";
      case Opcode::REM: return "rem";
      case Opcode::AND: return "and";
      case Opcode::OR: return "or";
      case Opcode::XOR: return "xor";
      case Opcode::SHL: return "shl";
      case Opcode::SHR: return "shr";
      case Opcode::SHRA: return "shra";
      case Opcode::MOV: return "mov";
      case Opcode::ABS: return "abs";
      case Opcode::MIN: return "min";
      case Opcode::MAX: return "max";
      case Opcode::SATADD: return "satadd";
      case Opcode::SATSUB: return "satsub";
      case Opcode::CMP: return "cmp";
      case Opcode::SELECT: return "select";
      case Opcode::FADD: return "fadd";
      case Opcode::FSUB: return "fsub";
      case Opcode::FMUL: return "fmul";
      case Opcode::FDIV: return "fdiv";
      case Opcode::ITOF: return "itof";
      case Opcode::FTOI: return "ftoi";
      case Opcode::LD_B: return "ld.b";
      case Opcode::LD_H: return "ld.h";
      case Opcode::LD_W: return "ld.w";
      case Opcode::ST_B: return "st.b";
      case Opcode::ST_H: return "st.h";
      case Opcode::ST_W: return "st.w";
      case Opcode::PRED_DEF: return "pred_def";
      case Opcode::BR: return "br";
      case Opcode::JUMP: return "jump";
      case Opcode::BR_CLOOP: return "br.cloop";
      case Opcode::BR_WLOOP: return "br.wloop";
      case Opcode::CALL: return "call";
      case Opcode::RET: return "ret";
      case Opcode::REC_CLOOP: return "rec_cloop";
      case Opcode::REC_WLOOP: return "rec_wloop";
      case Opcode::EXEC_CLOOP: return "exec_cloop";
      case Opcode::EXEC_WLOOP: return "exec_wloop";
      case Opcode::NOP: return "nop";
      default: LBP_PANIC("bad opcode ", static_cast<int>(op));
    }
}

const char *
condName(CmpCond c)
{
    switch (c) {
      case CmpCond::EQ: return "eq";
      case CmpCond::NE: return "ne";
      case CmpCond::LT: return "lt";
      case CmpCond::LE: return "le";
      case CmpCond::GT: return "gt";
      case CmpCond::GE: return "ge";
      case CmpCond::LTU: return "ltu";
      case CmpCond::GEU: return "geu";
      case CmpCond::TRUE_: return "true";
      case CmpCond::FALSE_: return "false";
      default: LBP_PANIC("bad cond");
    }
}

const char *
predDefKindName(PredDefKind k)
{
    switch (k) {
      case PredDefKind::NONE: return "-";
      case PredDefKind::UT: return "ut";
      case PredDefKind::UF: return "uf";
      case PredDefKind::OT: return "ot";
      case PredDefKind::OF: return "of";
      case PredDefKind::AT: return "at";
      case PredDefKind::AF: return "af";
      case PredDefKind::CT: return "ct";
      case PredDefKind::CF: return "cf";
      default: LBP_PANIC("bad pred def kind");
    }
}

bool
isControl(Opcode op)
{
    switch (op) {
      case Opcode::BR:
      case Opcode::JUMP:
      case Opcode::BR_CLOOP:
      case Opcode::BR_WLOOP:
      case Opcode::CALL:
      case Opcode::RET:
      case Opcode::REC_CLOOP:
      case Opcode::REC_WLOOP:
      case Opcode::EXEC_CLOOP:
      case Opcode::EXEC_WLOOP:
        return true;
      default:
        return false;
    }
}

bool
isBranch(Opcode op)
{
    switch (op) {
      case Opcode::BR:
      case Opcode::JUMP:
      case Opcode::BR_CLOOP:
      case Opcode::BR_WLOOP:
        return true;
      default:
        return false;
    }
}

bool
isBufferOp(Opcode op)
{
    switch (op) {
      case Opcode::REC_CLOOP:
      case Opcode::REC_WLOOP:
      case Opcode::EXEC_CLOOP:
      case Opcode::EXEC_WLOOP:
        return true;
      default:
        return false;
    }
}

bool
isLoad(Opcode op)
{
    return op == Opcode::LD_B || op == Opcode::LD_H || op == Opcode::LD_W;
}

bool
isStore(Opcode op)
{
    return op == Opcode::ST_B || op == Opcode::ST_H || op == Opcode::ST_W;
}

UnitClass
unitClassOf(Opcode op)
{
    switch (op) {
      case Opcode::MUL:
      case Opcode::DIV:
      case Opcode::REM:
        return UnitClass::IMUL;
      case Opcode::FADD:
      case Opcode::FSUB:
      case Opcode::FMUL:
      case Opcode::FDIV:
      case Opcode::ITOF:
      case Opcode::FTOI:
        return UnitClass::FPU;
      case Opcode::LD_B:
      case Opcode::LD_H:
      case Opcode::LD_W:
      case Opcode::ST_B:
      case Opcode::ST_H:
      case Opcode::ST_W:
        return UnitClass::MEM;
      case Opcode::PRED_DEF:
        return UnitClass::PRED;
      case Opcode::BR:
      case Opcode::JUMP:
      case Opcode::BR_CLOOP:
      case Opcode::BR_WLOOP:
      case Opcode::CALL:
      case Opcode::RET:
      case Opcode::REC_CLOOP:
      case Opcode::REC_WLOOP:
      case Opcode::EXEC_CLOOP:
      case Opcode::EXEC_WLOOP:
        return UnitClass::BR;
      default:
        return UnitClass::IALU;
    }
}

int
latencyOf(Opcode op)
{
    // Paper §7: arithmetic 1, multiplies 2, divides 8, loads 3, FP 2.
    switch (op) {
      case Opcode::MUL:
        return 2;
      case Opcode::DIV:
      case Opcode::REM:
      case Opcode::FDIV:
        return 8;
      case Opcode::LD_B:
      case Opcode::LD_H:
      case Opcode::LD_W:
        return 3;
      case Opcode::FADD:
      case Opcode::FSUB:
      case Opcode::FMUL:
      case Opcode::ITOF:
      case Opcode::FTOI:
        return 2;
      default:
        return 1;
    }
}

CmpCond
negateCond(CmpCond c)
{
    switch (c) {
      case CmpCond::EQ: return CmpCond::NE;
      case CmpCond::NE: return CmpCond::EQ;
      case CmpCond::LT: return CmpCond::GE;
      case CmpCond::LE: return CmpCond::GT;
      case CmpCond::GT: return CmpCond::LE;
      case CmpCond::GE: return CmpCond::LT;
      case CmpCond::LTU: return CmpCond::GEU;
      case CmpCond::GEU: return CmpCond::LTU;
      case CmpCond::TRUE_: return CmpCond::FALSE_;
      case CmpCond::FALSE_: return CmpCond::TRUE_;
      default: LBP_PANIC("bad cond");
    }
}

} // namespace lbp
