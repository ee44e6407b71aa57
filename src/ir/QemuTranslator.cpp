//===- ir/QemuTranslator.cpp - QEMU-like baseline translator ---------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// Frontend: ARM -> TCG-lite IR with memory-resident guest state and
/// eagerly materialized flags (QEMU's ARM target computes NF/ZF/CF/VF
/// globals the same way; in system mode they live in env across ops).
/// Backend: IR -> host, one-to-two host instructions per IR op plus the
/// inline softmmu expansion.
///
//===----------------------------------------------------------------------===//

#include "ir/QemuTranslator.h"

#include "dbt/Helpers.h"
#include "dbt/SoftmmuEmit.h"
#include "sys/Env.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::ir;
using arm::Cond;
using arm::Inst;
using arm::Opcode;
using arm::ShiftKind;

namespace {

/// ARM -> IR frontend for one translation block.
class Frontend {
public:
  Frontend(const dbt::GuestBlock &GB, IrBlock &B) : GB(GB), B(B) {}

  void run();

private:
  const dbt::GuestBlock &GB;
  IrBlock &B;
  unsigned NextTemp = 0;
  unsigned NextSlot = 0;
  bool Ended = false;

  Temp tmp() {
    assert(NextTemp < MaxTemps && "IR temp pressure too high");
    return static_cast<Temp>(NextTemp++);
  }

  IrInst &op(IrOp O) {
    IrInst I;
    I.Op = O;
    return B.emit(I);
  }

  Temp movI(uint32_t V) {
    Temp T = tmp();
    IrInst &I = op(IrOp::MovI);
    I.Dst = T;
    I.Imm = static_cast<int32_t>(V);
    return T;
  }
  Temp ldReg(unsigned R, uint32_t Pc) {
    if (R == arm::RegPC)
      return movI(Pc + 8);
    Temp T = tmp();
    IrInst &I = op(IrOp::LdEnv);
    I.Dst = T;
    I.Slot = sys::envSlotReg(R);
    return T;
  }
  void stReg(unsigned R, Temp V) {
    IrInst &I = op(IrOp::StEnv);
    I.A = V;
    I.Slot = sys::envSlotReg(R);
  }
  void stSlotI(uint16_t Slot, uint32_t V) {
    IrInst &I = op(IrOp::StEnvI);
    I.Slot = Slot;
    I.Imm = static_cast<int32_t>(V);
  }
  void stSlot(uint16_t Slot, Temp V) {
    IrInst &I = op(IrOp::StEnv);
    I.A = V;
    I.Slot = Slot;
  }
  Temp ldSlot(uint16_t Slot) {
    Temp T = tmp();
    IrInst &I = op(IrOp::LdEnv);
    I.Dst = T;
    I.Slot = Slot;
    return T;
  }
  Temp binOp(IrOp O, Temp A, Temp Bt) {
    Temp T = tmp();
    IrInst &I = op(O);
    I.Dst = T;
    I.A = A;
    I.B = Bt;
    return T;
  }
  Temp binOpI(IrOp O, Temp A, uint32_t Imm) {
    Temp T = tmp();
    IrInst &I = op(O);
    I.Dst = T;
    I.A = A;
    I.Imm = static_cast<int32_t>(Imm);
    return T;
  }
  Temp setCond(IrCmp Cmp, Temp A, Temp Bt = 0) {
    Temp T = tmp();
    IrInst &I = op(IrOp::SetCond);
    I.Dst = T;
    I.Cmp = Cmp;
    I.A = A;
    I.B = Bt;
    return T;
  }
  void brCond(IrCmp Cmp, Temp A, Temp Bt, int Label) {
    IrInst &I = op(IrOp::Brcond);
    I.Cmp = Cmp;
    I.A = A;
    I.B = Bt;
    I.Label = Label;
  }
  void label(int L) {
    IrInst &I = op(IrOp::Label);
    I.Imm = L;
  }
  void gotoTb(uint32_t Target) {
    assert(NextSlot < 2 && "more than two chain exits in one TB");
    IrInst &I = op(IrOp::GotoTb);
    I.Imm = static_cast<int32_t>(NextSlot++);
    I.Target = Target;
    Ended = true;
  }
  void exitLookup() {
    op(IrOp::ExitLookup);
    Ended = true;
  }
  void callEmulate(uint32_t Pc) {
    IrInst &I = op(IrOp::CallEmulate);
    I.GuestPc = Pc;
  }

  /// Emits "skip if condition false" and returns the skip label.
  int emitCondSkip(Cond C);
  /// Evaluates operand 2 into a temp; if \p CarrySlotUpdate, also emits
  /// the shifter-carry store to env CF (for flag-setting logical ops).
  Temp evalOperand2(const Inst &I, uint32_t Pc, bool UpdateCarry);

  void storeNZ(Temp Res);
  void dataProcessing(const Inst &I, uint32_t Pc);
  void multiply(const Inst &I);
  void loadStore(const Inst &I, uint32_t Pc);
  void blockTransfer(const Inst &I, uint32_t Pc);
  void branch(const Inst &I, uint32_t Pc, uint32_t NextPc);
  void instr(const Inst &I, uint32_t Pc, uint32_t NextPc);
};

} // namespace

int Frontend::emitCondSkip(Cond C) {
  const int Skip = B.newLabel();
  const auto Nf = [&] { return ldSlot(sys::envSlotNF()); };
  const auto Zf = [&] { return ldSlot(sys::envSlotZF()); };
  const auto Cf = [&] { return ldSlot(sys::envSlotCF()); };
  const auto Vf = [&] { return ldSlot(sys::envSlotVF()); };
  switch (C) {
  case Cond::EQ: brCond(IrCmp::Eq0, Zf(), 0, Skip); break;
  case Cond::NE: brCond(IrCmp::Ne0, Zf(), 0, Skip); break;
  case Cond::CS: brCond(IrCmp::Eq0, Cf(), 0, Skip); break;
  case Cond::CC: brCond(IrCmp::Ne0, Cf(), 0, Skip); break;
  case Cond::MI: brCond(IrCmp::Eq0, Nf(), 0, Skip); break;
  case Cond::PL: brCond(IrCmp::Ne0, Nf(), 0, Skip); break;
  case Cond::VS: brCond(IrCmp::Eq0, Vf(), 0, Skip); break;
  case Cond::VC: brCond(IrCmp::Ne0, Vf(), 0, Skip); break;
  case Cond::HI: {
    Temp T = binOp(IrOp::Bic, Cf(), Zf()); // C && !Z
    brCond(IrCmp::Eq0, T, 0, Skip);
    break;
  }
  case Cond::LS: {
    Temp T = binOp(IrOp::Bic, Cf(), Zf());
    brCond(IrCmp::Ne0, T, 0, Skip);
    break;
  }
  case Cond::GE: brCond(IrCmp::Ne, Nf(), Vf(), Skip); break;
  case Cond::LT: brCond(IrCmp::Eq, Nf(), Vf(), Skip); break;
  case Cond::GT: {
    Temp T = binOp(IrOp::Xor, Nf(), Vf());
    Temp T2 = binOp(IrOp::Or, T, Zf());
    brCond(IrCmp::Ne0, T2, 0, Skip);
    break;
  }
  case Cond::LE: {
    Temp T = binOp(IrOp::Xor, Nf(), Vf());
    Temp T2 = binOp(IrOp::Or, T, Zf());
    brCond(IrCmp::Eq0, T2, 0, Skip);
    break;
  }
  default:
    break;
  }
  return Skip;
}

Temp Frontend::evalOperand2(const Inst &I, uint32_t Pc, bool UpdateCarry) {
  const arm::Operand2 &O = I.Op2;
  if (O.IsImm) {
    if (UpdateCarry && O.Rot != 0)
      stSlotI(sys::envSlotCF(), O.immValue() >> 31);
    return movI(O.immValue());
  }
  Temp Rm = ldReg(O.Rm, Pc);
  if (O.RegShift) {
    // Shift amount in a register. The flag-setting variant goes through
    // the emulate helper (QEMU also punts the carry computation to a
    // helper here); callers guarantee !UpdateCarry.
    assert(!UpdateCarry && "reg-shift with S handled via helper");
    Temp Rs = ldReg(O.Rs, Pc);
    Temp Amt = binOpI(IrOp::AndI, Rs, 0xFF);
    IrOp ShiftOp = IrOp::Shl;
    switch (O.Shift) {
    case ShiftKind::LSL: ShiftOp = IrOp::Shl; break;
    case ShiftKind::LSR: ShiftOp = IrOp::Shr; break;
    case ShiftKind::ASR: ShiftOp = IrOp::Sar; break;
    case ShiftKind::ROR: ShiftOp = IrOp::Ror; break;
    }
    return binOp(ShiftOp, Rm, Amt);
  }

  unsigned Amount = O.ShiftImm;
  if (Amount == 0 && (O.Shift == ShiftKind::LSR || O.Shift == ShiftKind::ASR))
    Amount = 32;
  if (Amount == 0)
    return Rm; // LSL #0 / ROR #0: value and carry unchanged

  Temp Res;
  switch (O.Shift) {
  case ShiftKind::LSL:
    Res = binOpI(IrOp::ShlI, Rm, Amount);
    if (UpdateCarry) {
      Temp C1 = binOpI(IrOp::ShrI, Rm, 32 - Amount);
      Temp C2 = binOpI(IrOp::AndI, C1, 1);
      stSlot(sys::envSlotCF(), C2);
    }
    return Res;
  case ShiftKind::LSR:
    Res = Amount >= 32 ? movI(0) : binOpI(IrOp::ShrI, Rm, Amount);
    if (UpdateCarry) {
      Temp C1 = binOpI(IrOp::ShrI, Rm, Amount - 1);
      Temp C2 = binOpI(IrOp::AndI, C1, 1);
      stSlot(sys::envSlotCF(), C2);
    }
    return Res;
  case ShiftKind::ASR: {
    const unsigned Eff = Amount >= 32 ? 31 : Amount;
    Res = binOpI(IrOp::SarI, Rm, Eff);
    if (Amount >= 32)
      Res = binOpI(IrOp::SarI, Rm, 31);
    if (UpdateCarry) {
      Temp C1 = binOpI(IrOp::ShrI, Rm, Amount >= 32 ? 31 : Amount - 1);
      Temp C2 = binOpI(IrOp::AndI, C1, 1);
      stSlot(sys::envSlotCF(), C2);
    }
    return Res;
  }
  case ShiftKind::ROR:
    Res = binOpI(IrOp::RorI, Rm, Amount & 31);
    if (UpdateCarry) {
      Temp C1 = binOpI(IrOp::ShrI, Res, 31);
      stSlot(sys::envSlotCF(), C1);
    }
    return Res;
  }
  return Rm;
}

void Frontend::storeNZ(Temp Res) {
  Temp N = binOpI(IrOp::ShrI, Res, 31);
  stSlot(sys::envSlotNF(), N);
  Temp Z = setCond(IrCmp::Eq0, Res);
  stSlot(sys::envSlotZF(), Z);
}

void Frontend::dataProcessing(const Inst &I, uint32_t Pc) {
  const bool Logical =
      I.Op == Opcode::AND || I.Op == Opcode::EOR || I.Op == Opcode::TST ||
      I.Op == Opcode::TEQ || I.Op == Opcode::ORR || I.Op == Opcode::MOV ||
      I.Op == Opcode::BIC || I.Op == Opcode::MVN;
  const bool SetsFlags = I.SetFlags || I.isCompare();

  const bool NeedRn = I.Op != Opcode::MOV && I.Op != Opcode::MVN;
  Temp Rn = 0;
  if (NeedRn)
    Rn = ldReg(I.Rn, Pc);
  Temp Op2 = evalOperand2(I, Pc, Logical && SetsFlags);

  Temp Res = 0;
  Temp CarryOut = 0; // valid for arithmetic when SetsFlags
  bool HaveV = false;
  Temp VOut = 0;

  const auto addPair = [&](Temp A, Temp Bt, bool WithCarryIn,
                           bool SubStyle) {
    // SubStyle: A + ~B (+ carry), matching ARM's subtract-with-carry.
    // Result/flag temps are reserved first so the intermediates can be
    // reclaimed (the backend maps temps straight onto host registers).
    const Temp Out = tmp();
    if (SetsFlags) {
      CarryOut = tmp();
      VOut = tmp();
      HaveV = true;
    }
    const unsigned Mark = NextTemp;

    Temp Rhs = SubStyle ? binOp(IrOp::Not, Bt, 0) : Bt;
    Temp Sum;
    Temp PartialSum = 0; // A + Rhs before the carry-in, for the C chain
    if (!WithCarryIn) {
      Sum = SubStyle ? binOpI(IrOp::AddI, binOp(IrOp::Add, A, Rhs), 1)
                     : binOp(IrOp::Add, A, Rhs);
    } else {
      Temp Cf = ldSlot(sys::envSlotCF());
      PartialSum = binOp(IrOp::Add, A, Rhs);
      Sum = binOp(IrOp::Add, PartialSum, Cf);
    }
    IrInst &MovOut = op(IrOp::Mov);
    MovOut.Dst = Out;
    MovOut.A = Sum;

    if (SetsFlags) {
      const unsigned Mark2 = NextTemp;
      // Carry out: A + B wraps iff Sum < A; A - B has carry iff A >= B.
      Temp C;
      if (!WithCarryIn) {
        C = SubStyle ? setCond(IrCmp::GeU, A, Bt)
                     : setCond(IrCmp::LtU, Sum, A);
      } else {
        Temp C1 = setCond(IrCmp::LtU, PartialSum, A);
        Temp C2 = setCond(IrCmp::LtU, Sum, PartialSum);
        C = binOp(IrOp::Or, C1, C2);
      }
      IrInst &MovC = op(IrOp::Mov);
      MovC.Dst = CarryOut;
      MovC.A = C;
      NextTemp = Mark2;

      // Overflow: V = ((A ^ ~Rhs) & (A ^ Sum)) >> 31; ~Rhs is B for the
      // add style and recovers the operand for the sub style.
      Temp X1 = binOp(IrOp::Xor, A, Rhs);
      Temp X1n = binOp(IrOp::Not, X1, 0);
      Temp X2 = binOp(IrOp::Xor, A, Sum);
      Temp X3 = binOp(IrOp::And, X1n, X2);
      Temp V = binOpI(IrOp::ShrI, X3, 31);
      IrInst &MovV = op(IrOp::Mov);
      MovV.Dst = VOut;
      MovV.A = V;
      NextTemp = Mark2;
    }
    NextTemp = Mark;
    return Out;
  };

  switch (I.Op) {
  case Opcode::AND:
  case Opcode::TST:
    Res = binOp(IrOp::And, Rn, Op2);
    break;
  case Opcode::EOR:
  case Opcode::TEQ:
    Res = binOp(IrOp::Xor, Rn, Op2);
    break;
  case Opcode::ORR:
    Res = binOp(IrOp::Or, Rn, Op2);
    break;
  case Opcode::BIC:
    Res = binOp(IrOp::Bic, Rn, Op2);
    break;
  case Opcode::MOV:
    Res = Op2;
    break;
  case Opcode::MVN:
    Res = binOp(IrOp::Not, Op2, 0);
    break;
  case Opcode::SUB:
  case Opcode::CMP:
    Res = addPair(Rn, Op2, false, true);
    break;
  case Opcode::RSB:
    Res = addPair(Op2, Rn, false, true);
    break;
  case Opcode::ADD:
  case Opcode::CMN:
    Res = addPair(Rn, Op2, false, false);
    break;
  case Opcode::ADC:
    Res = addPair(Rn, Op2, true, false);
    break;
  case Opcode::SBC:
    Res = addPair(Rn, Op2, true, true);
    break;
  case Opcode::RSC:
    Res = addPair(Op2, Rn, true, true);
    break;
  default:
    assert(false && "not data-processing");
  }

  if (SetsFlags) {
    storeNZ(Res);
    if (!Logical) {
      stSlot(sys::envSlotCF(), CarryOut);
      if (HaveV)
        stSlot(sys::envSlotVF(), VOut);
    }
  }

  if (!I.isCompare()) {
    if (I.Rd == arm::RegPC) {
      // Plain PC write = indirect branch (flag-setting PC writes are
      // exception returns and take the system path, see instr()).
      Temp Masked = binOpI(IrOp::AndI, Res, ~1u);
      stSlot(sys::envSlotReg(15), Masked);
      exitLookup();
      return;
    }
    stReg(I.Rd, Res);
  }
}

void Frontend::multiply(const Inst &I) {
  switch (I.Op) {
  case Opcode::MUL:
  case Opcode::MLA: {
    Temp Rm = ldReg(I.Rm, 0);
    Temp Rs = ldReg(I.Rs, 0);
    Temp Res = binOp(IrOp::Mul, Rm, Rs);
    if (I.Op == Opcode::MLA) {
      Temp Ra = ldReg(I.Rn, 0);
      Res = binOp(IrOp::Add, Res, Ra);
    }
    stReg(I.Rd, Res);
    if (I.SetFlags)
      storeNZ(Res);
    break;
  }
  case Opcode::UMULL:
  case Opcode::SMULL: {
    Temp Rm = ldReg(I.Rm, 0);
    Temp Rs = ldReg(I.Rs, 0);
    Temp Hi = tmp();
    IrInst &M = op(I.Op == Opcode::UMULL ? IrOp::MulLU : IrOp::MulLS);
    M.Dst = Rm; // widening multiply overwrites lo in place
    M.A = Rm;
    M.B = Rs;
    M.B2 = Hi;
    stReg(I.Rd, Rm);
    stReg(I.Rn, Hi);
    if (I.SetFlags) {
      Temp N = binOpI(IrOp::ShrI, Hi, 31);
      stSlot(sys::envSlotNF(), N);
      Temp LoZ = setCond(IrCmp::Eq0, Rm);
      Temp HiZ = setCond(IrCmp::Eq0, Hi);
      Temp Z = binOp(IrOp::And, LoZ, HiZ);
      stSlot(sys::envSlotZF(), Z);
    }
    break;
  }
  case Opcode::CLZ: {
    Temp Rm = ldReg(I.Rm, 0);
    Temp Res = binOp(IrOp::Clz, Rm, 0);
    stReg(I.Rd, Res);
    break;
  }
  default:
    assert(false && "not a multiply");
  }
}

void Frontend::loadStore(const Inst &I, uint32_t Pc) {
  Temp Base = ldReg(I.Rn, Pc);
  Temp Off;
  if (I.RegOffset) {
    Inst Tmp = I; // reuse the operand-2 evaluator for the offset
    Off = evalOperand2(Tmp, Pc, /*UpdateCarry=*/false);
  } else {
    Off = movI(I.Imm12);
  }
  Temp Indexed = I.AddOffset ? binOp(IrOp::Add, Base, Off)
                             : binOp(IrOp::Sub, Base, Off);
  Temp Addr = I.PreIndexed ? Indexed : Base;

  unsigned Size = 4;
  if (I.Op == Opcode::LDRB || I.Op == Opcode::STRB)
    Size = 1;
  else if (I.Op == Opcode::LDRH || I.Op == Opcode::STRH)
    Size = 2;

  if (I.isLoad()) {
    Temp Val = tmp();
    IrInst &L = op(IrOp::QemuLd);
    L.Dst = Val;
    L.A = Addr;
    L.Size = static_cast<uint8_t>(Size);
    L.GuestPc = Pc;
    if (!I.PreIndexed || I.Writeback)
      stReg(I.Rn, Indexed);
    if (I.Rd == arm::RegPC) {
      Temp Masked = binOpI(IrOp::AndI, Val, ~1u);
      stSlot(sys::envSlotReg(15), Masked);
      exitLookup();
      return;
    }
    stReg(I.Rd, Val);
  } else {
    Temp Val = ldReg(I.Rd, Pc);
    IrInst &S = op(IrOp::QemuSt);
    S.A = Addr;
    S.B = Val;
    S.Size = static_cast<uint8_t>(Size);
    S.GuestPc = Pc;
    if (!I.PreIndexed || I.Writeback)
      stReg(I.Rn, Indexed);
  }
}

void Frontend::blockTransfer(const Inst &I, uint32_t Pc) {
  unsigned Count = 0;
  for (unsigned R = 0; R < 16; ++R)
    Count += (I.RegList >> R) & 1;

  Temp Base = ldReg(I.Rn, Pc);
  Temp Addr;
  switch (I.BMode) {
  case arm::BlockMode::IA: Addr = Base; break;
  case arm::BlockMode::IB: Addr = binOpI(IrOp::AddI, Base, 4); break;
  case arm::BlockMode::DA:
    Addr = binOpI(IrOp::SubI, Base, 4 * Count - 4);
    break;
  default:
    Addr = binOpI(IrOp::SubI, Base, 4 * Count);
    break;
  }
  const bool Up =
      I.BMode == arm::BlockMode::IA || I.BMode == arm::BlockMode::IB;
  Temp NewBase = Up ? binOpI(IrOp::AddI, Base, 4 * Count)
                    : binOpI(IrOp::SubI, Base, 4 * Count);

  bool LoadsPc = false;
  Temp PcVal = 0;
  for (unsigned R = 0; R < 16; ++R) {
    if (!(I.RegList & (1u << R)))
      continue;
    if (I.Op == Opcode::LDM) {
      Temp Val = tmp();
      IrInst &L = op(IrOp::QemuLd);
      L.Dst = Val;
      L.A = Addr;
      L.Size = 4;
      L.GuestPc = Pc;
      if (R == 15) {
        LoadsPc = true;
        PcVal = Val;
      } else {
        stReg(R, Val);
      }
    } else {
      Temp Val = ldReg(R, Pc);
      IrInst &S = op(IrOp::QemuSt);
      S.A = Addr;
      S.B = Val;
      S.Size = 4;
      S.GuestPc = Pc;
    }
    // Advance in place; Addr stays the same temp.
    IrInst &Adv = op(IrOp::AddI);
    Adv.Dst = Addr;
    Adv.A = Addr;
    Adv.Imm = 4;
    // Reclaim per-register value temps to stay under the temp cap for
    // long register lists.
    NextTemp = (I.Op == Opcode::LDM && LoadsPc)
                   ? NextTemp
                   : static_cast<unsigned>(Addr) + 2;
  }
  if (I.Writeback && !(I.Op == Opcode::LDM && (I.RegList & (1u << I.Rn))))
    stReg(I.Rn, NewBase);
  if (LoadsPc) {
    Temp Masked = binOpI(IrOp::AndI, PcVal, ~1u);
    stSlot(sys::envSlotReg(15), Masked);
    exitLookup();
  }
}

void Frontend::branch(const Inst &I, uint32_t Pc, uint32_t NextPc) {
  if (I.Op == Opcode::BX) {
    Temp T = ldReg(I.Rm, Pc);
    Temp Masked = binOpI(IrOp::AndI, T, ~1u);
    stSlot(sys::envSlotReg(15), Masked);
    exitLookup();
    return;
  }
  if (I.Op == Opcode::BL)
    stSlotI(sys::envSlotReg(14), Pc + 4);
  gotoTb(Pc + 8 + static_cast<uint32_t>(I.BranchOffset));
  (void)NextPc;
}

void Frontend::instr(const Inst &I, uint32_t Pc, uint32_t NextPc) {
  NextTemp = 0;

  // System-level instructions (and rarities QEMU also punts) go to the
  // emulate helper, which re-checks the condition itself.
  const bool RegShiftWithS = I.isDataProcessing() &&
                             (I.SetFlags || I.isCompare()) &&
                             !I.Op2.IsImm && I.Op2.RegShift;
  if (!I.isValid() || I.isSystemLevel() || RegShiftWithS) {
    callEmulate(Pc);
    if (!I.isValid() || I.endsBlock())
      exitLookup();
    return;
  }

  int Skip = -1;
  if (I.C != Cond::AL && I.C != Cond::NV) {
    Skip = emitCondSkip(I.C);
    NextTemp = 0; // guard temps are dead once the skip branch is emitted
  }

  if (I.isDataProcessing())
    dataProcessing(I, Pc);
  else if (I.Op == Opcode::MUL || I.Op == Opcode::MLA ||
           I.Op == Opcode::UMULL || I.Op == Opcode::SMULL ||
           I.Op == Opcode::CLZ)
    multiply(I);
  else if (I.isLoadStoreSingle())
    loadStore(I, Pc);
  else if (I.Op == Opcode::LDM || I.Op == Opcode::STM)
    blockTransfer(I, Pc);
  else if (I.Op == Opcode::B || I.Op == Opcode::BL || I.Op == Opcode::BX)
    branch(I, Pc, NextPc);
  else
    assert(I.Op == Opcode::NOP && "unhandled opcode group");

  if (Skip >= 0) {
    // A conditional block-ender falls through when the condition fails.
    Ended = false;
    label(Skip);
  }
}

void Frontend::run() {
  for (size_t Idx = 0; Idx < GB.Insts.size(); ++Idx)
    instr(GB.Insts[Idx], GB.pcOf(Idx), GB.pcOf(Idx + 1));
  if (!Ended)
    gotoTb(GB.endPc());
}

void ir::buildIr(const dbt::GuestBlock &GB, IrBlock &Out) {
  Frontend FE(GB, Out);
  FE.run();
}

//===----------------------------------------------------------------------===//
// Backend: IR -> host
//===----------------------------------------------------------------------===//

namespace {

/// Temp i lives in host register i (h0..h12); h13/h14 are backend
/// scratch, t0-t2 belong to the softmmu sequence.
constexpr uint8_t hostRegOf(Temp T) { return T; }
constexpr uint8_t BackendScratch = 15;

host::HCond hcondOf(IrCmp C) {
  switch (C) {
  case IrCmp::Eq0:
  case IrCmp::Eq:
    return host::HCond::Eq;
  case IrCmp::Ne0:
  case IrCmp::Ne:
    return host::HCond::Ne;
  case IrCmp::LtU:
    return host::HCond::Cc;
  case IrCmp::GeU:
    return host::HCond::Cs;
  }
  return host::HCond::Al;
}

} // namespace

void ir::lowerIr(const dbt::GuestBlock &GB, const IrBlock &Ir,
                 host::HostBlock &Out) {
  using namespace host;
  HostEmitter E(Out);
  Out.GuestPc = GB.StartPc;
  Out.NumGuestInstrs = static_cast<uint32_t>(GB.Insts.size());
  Out.NumIrqChecks = 1;
  for (const Inst &I : GB.Insts) {
    if (I.isMemAccess())
      ++Out.NumMemInstrs;
    if (I.isSystemLevel())
      ++Out.NumSysInstrs;
  }
  // QEMU keeps all state in env, so flags at TB entry are always in env:
  // every TB trivially "defines before use" from the host-flag viewpoint.
  Out.DefinesFlagsBeforeUse = true;

  // TB head: interrupt check (QEMU's exit_request test).
  E.setClass(CostClass::IrqCheck);
  E.marker(MarkerKind::TbProlog);
  E.ldEnv(ScratchReg0, sys::envSlotExitRequest());
  E.testRR(ScratchReg0, ScratchReg0);
  const int IrqJcc = E.jcc(HCond::Ne);
  E.setClass(CostClass::User);

  std::vector<int> LabelPos(Ir.NumLabels, -1);
  std::vector<std::pair<int, int>> Patches; // host jump idx, ir label

  const auto aluRRR = [&](HOp Op, const IrInst &I, bool Commutes = false) {
    const uint8_t D = hostRegOf(I.Dst), A = hostRegOf(I.A),
                  B = hostRegOf(I.B);
    if (D == A) {
      E.alu(Op, D, B);
    } else if (D == B && Commutes) {
      E.alu(Op, D, A);
    } else if (D == B) {
      E.movRR(BackendScratch, B);
      E.movRR(D, A);
      E.alu(Op, D, BackendScratch);
    } else {
      E.movRR(D, A);
      E.alu(Op, D, B);
    }
  };
  const auto aluRRI = [&](HOp Op, const IrInst &I) {
    const uint8_t D = hostRegOf(I.Dst), A = hostRegOf(I.A);
    if (D != A)
      E.movRR(D, A);
    E.aluI(Op, D, static_cast<uint32_t>(I.Imm));
  };
  const auto cmpFor = [&](const IrInst &I) {
    switch (I.Cmp) {
    case IrCmp::Eq0:
    case IrCmp::Ne0:
      E.testRR(hostRegOf(I.A), hostRegOf(I.A));
      break;
    default:
      E.cmpRR(hostRegOf(I.A), hostRegOf(I.B));
      break;
    }
  };

  for (const IrInst &I : Ir.Ops) {
    E.GuestPc = I.GuestPc ? I.GuestPc : E.GuestPc;
    switch (I.Op) {
    case IrOp::Nop:
      break;
    case IrOp::MovI:
      E.movRI(hostRegOf(I.Dst), static_cast<uint32_t>(I.Imm));
      break;
    case IrOp::Mov:
      E.movRR(hostRegOf(I.Dst), hostRegOf(I.A));
      break;
    case IrOp::Add: aluRRR(HOp::Add, I, true); break;
    case IrOp::AddI: aluRRI(HOp::Add, I); break;
    case IrOp::Sub: aluRRR(HOp::Sub, I); break;
    case IrOp::SubI: aluRRI(HOp::Sub, I); break;
    case IrOp::Rsb: aluRRR(HOp::Rsb, I); break;
    case IrOp::And: aluRRR(HOp::And, I, true); break;
    case IrOp::AndI: aluRRI(HOp::And, I); break;
    case IrOp::Or: aluRRR(HOp::Or, I, true); break;
    case IrOp::OrI: aluRRI(HOp::Or, I); break;
    case IrOp::Xor: aluRRR(HOp::Xor, I, true); break;
    case IrOp::Bic: aluRRR(HOp::Bic, I); break;
    case IrOp::Not:
      if (hostRegOf(I.Dst) != hostRegOf(I.A))
        E.movRR(hostRegOf(I.Dst), hostRegOf(I.A));
      E.alu(HOp::Not, hostRegOf(I.Dst), 0);
      break;
    case IrOp::Neg:
      if (hostRegOf(I.Dst) != hostRegOf(I.A))
        E.movRR(hostRegOf(I.Dst), hostRegOf(I.A));
      E.alu(HOp::Neg, hostRegOf(I.Dst), 0);
      break;
    case IrOp::Shl: aluRRR(HOp::Shl, I); break;
    case IrOp::ShlI: aluRRI(HOp::Shl, I); break;
    case IrOp::Shr: aluRRR(HOp::Shr, I); break;
    case IrOp::ShrI: aluRRI(HOp::Shr, I); break;
    case IrOp::Sar: aluRRR(HOp::Sar, I); break;
    case IrOp::SarI: aluRRI(HOp::Sar, I); break;
    case IrOp::Ror: aluRRR(HOp::Ror, I); break;
    case IrOp::RorI: aluRRI(HOp::Ror, I); break;
    case IrOp::Mul: aluRRR(HOp::Mul, I, true); break;
    case IrOp::MulLU:
    case IrOp::MulLS: {
      const uint8_t Lo = hostRegOf(I.Dst);
      if (Lo != hostRegOf(I.A))
        E.movRR(Lo, hostRegOf(I.A));
      E.mull(I.Op == IrOp::MulLS, Lo, hostRegOf(I.B), hostRegOf(I.B2));
      break;
    }
    case IrOp::Clz: {
      host::HInst H;
      H.Op = HOp::Clz;
      H.Dst = hostRegOf(I.Dst);
      H.Src = hostRegOf(I.A);
      E.emit(H);
      break;
    }
    case IrOp::SetCond:
      cmpFor(I);
      E.setCc(hostRegOf(I.Dst), hcondOf(I.Cmp));
      break;
    case IrOp::LdEnv:
      E.ldEnv(hostRegOf(I.Dst), I.Slot);
      break;
    case IrOp::StEnv:
      E.stEnv(I.Slot, hostRegOf(I.A));
      break;
    case IrOp::StEnvI:
      E.stEnvI(I.Slot, static_cast<uint32_t>(I.Imm));
      break;
    case IrOp::QemuLd:
      dbt::emitInlineAccess(E, hostRegOf(I.A), hostRegOf(I.Dst), I.Size,
                            /*IsLoad=*/true);
      break;
    case IrOp::QemuSt:
      dbt::emitInlineAccess(E, hostRegOf(I.A), hostRegOf(I.B), I.Size,
                            /*IsLoad=*/false);
      break;
    case IrOp::Brcond: {
      cmpFor(I);
      const int J = E.jcc(hcondOf(I.Cmp));
      Patches.push_back({J, I.Label});
      break;
    }
    case IrOp::Br: {
      const int J = E.jmp();
      Patches.push_back({J, I.Label});
      break;
    }
    case IrOp::Label:
      LabelPos[I.Imm] = E.label();
      break;
    case IrOp::CallEmulate: {
      const CostClass Saved = E.setClass(CostClass::Helper);
      E.callHelper(dbt::HelperEmulate);
      E.setClass(Saved);
      break;
    }
    case IrOp::GotoTb: {
      const CostClass Saved = E.setClass(CostClass::Glue);
      E.chainSlot(I.Imm, I.Target);
      E.stEnvI(sys::envSlotReg(15), I.Target);
      E.exitTbNeedTranslate(I.Imm);
      E.setClass(Saved);
      break;
    }
    case IrOp::ExitLookup: {
      const CostClass Saved = E.setClass(CostClass::Glue);
      E.exitTb(ExitReason::Lookup);
      E.setClass(Saved);
      break;
    }
    }
  }

  // Interrupt exit stub.
  E.patchHere(IrqJcc);
  E.setClass(CostClass::Glue);
  E.stEnvI(sys::envSlotReg(15), GB.StartPc);
  E.exitTb(ExitReason::Interrupt);

  for (const auto &[JumpIdx, Lbl] : Patches) {
    assert(LabelPos[Lbl] >= 0 && "branch to unplaced IR label");
    E.patchTarget(JumpIdx, LabelPos[Lbl]);
  }
}

void QemuTranslator::translate(const dbt::GuestBlock &GB,
                               host::HostBlock &Out) {
  IrBlock Ir;
  buildIr(GB, Ir);
  lowerIr(GB, Ir, Out);
}
