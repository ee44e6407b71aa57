//===- rules/SymExec.cpp - Symbolic execution for rule verification --------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "rules/SymExec.h"

#include "support/Bits.h"
#include "support/Rng.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::rules;
using arm::Inst;
using arm::Opcode;
using host::HInst;
using host::HOp;

ExprRef rules::symVar(uint32_t Id) {
  auto E = std::make_shared<SymExpr>();
  E->K = SymExpr::Kind::Var;
  E->Value = Id;
  return E;
}

ExprRef rules::symConst(uint32_t Value) {
  auto E = std::make_shared<SymExpr>();
  E->K = SymExpr::Kind::Const;
  E->Value = Value;
  return E;
}

ExprRef rules::symBin(SymExpr::Kind K, ExprRef A, ExprRef B) {
  // Light normalization: constant folding.
  if (A->K == SymExpr::Kind::Const && B->K == SymExpr::Kind::Const) {
    SymExpr Tmp;
    Tmp.K = K;
    Tmp.A = A;
    Tmp.B = B;
    std::vector<uint32_t> None;
    return symConst(evalExpr(Tmp, None));
  }
  auto E = std::make_shared<SymExpr>();
  E->K = K;
  E->A = std::move(A);
  E->B = std::move(B);
  return E;
}

ExprRef rules::symNot(ExprRef A) {
  auto E = std::make_shared<SymExpr>();
  E->K = SymExpr::Kind::Not;
  E->A = std::move(A);
  return E;
}

ExprRef rules::symSelect(ExprRef C, ExprRef A, ExprRef B) {
  auto E = std::make_shared<SymExpr>();
  E->K = SymExpr::Kind::Select;
  E->C = std::move(C);
  E->A = std::move(A);
  E->B = std::move(B);
  return E;
}

ExprRef rules::symAdc(ExprRef A, ExprRef B, ExprRef Carry) {
  auto E = std::make_shared<SymExpr>();
  E->K = SymExpr::Kind::Adc2;
  E->A = std::move(A);
  E->B = std::move(B);
  E->C = std::move(Carry);
  return E;
}

uint32_t rules::evalExpr(const SymExpr &E, const std::vector<uint32_t> &V) {
  const auto Ev = [&](const ExprRef &R) { return evalExpr(*R, V); };
  switch (E.K) {
  case SymExpr::Kind::Var:
    assert(E.Value < V.size() && "unbound symbolic variable");
    return V[E.Value];
  case SymExpr::Kind::Const:
    return E.Value;
  case SymExpr::Kind::Add: return Ev(E.A) + Ev(E.B);
  case SymExpr::Kind::Sub: return Ev(E.A) - Ev(E.B);
  case SymExpr::Kind::Adc2: return Ev(E.A) + Ev(E.B) + Ev(E.C);
  case SymExpr::Kind::And: return Ev(E.A) & Ev(E.B);
  case SymExpr::Kind::Or: return Ev(E.A) | Ev(E.B);
  case SymExpr::Kind::Xor: return Ev(E.A) ^ Ev(E.B);
  case SymExpr::Kind::Bic: return Ev(E.A) & ~Ev(E.B);
  case SymExpr::Kind::Not: return ~Ev(E.A);
  case SymExpr::Kind::Mul: return Ev(E.A) * Ev(E.B);
  case SymExpr::Kind::MulHiU:
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(Ev(E.A)) * Ev(E.B)) >> 32);
  case SymExpr::Kind::MulHiS:
    return static_cast<uint32_t>(
        (static_cast<int64_t>(static_cast<int32_t>(Ev(E.A))) *
         static_cast<int64_t>(static_cast<int32_t>(Ev(E.B)))) >>
        32);
  case SymExpr::Kind::Shl: {
    const uint32_t Amt = Ev(E.B) & 0xFF;
    return Amt >= 32 ? 0 : Ev(E.A) << Amt;
  }
  case SymExpr::Kind::Shr: {
    const uint32_t Amt = Ev(E.B) & 0xFF;
    return Amt >= 32 ? 0 : Ev(E.A) >> Amt;
  }
  case SymExpr::Kind::Sar: {
    const uint32_t Amt = Ev(E.B) & 0xFF;
    const int32_t A = static_cast<int32_t>(Ev(E.A));
    return static_cast<uint32_t>(A >> (Amt >= 32 ? 31 : Amt));
  }
  case SymExpr::Kind::Ror:
    return rotr32(Ev(E.A), Ev(E.B) & 31);
  case SymExpr::Kind::Clz:
    return countLeadingZeros32(Ev(E.A));
  case SymExpr::Kind::Eq:
    return Ev(E.A) == Ev(E.B) ? 1 : 0;
  case SymExpr::Kind::LtU:
    return Ev(E.A) < Ev(E.B) ? 1 : 0;
  case SymExpr::Kind::Select:
    return Ev(E.C) ? Ev(E.A) : Ev(E.B);
  }
  return 0;
}

SymState SymState::initial() {
  SymState S;
  for (unsigned R = 0; R < host::NumHostRegs; ++R)
    S.Regs[R] = symVar(R < 16 ? R : 0);
  S.N = symVar(SymFlagN);
  S.Z = symVar(SymFlagZ);
  S.C = symVar(SymFlagC);
  S.V = symVar(SymFlagV);
  return S;
}

namespace {

/// NZ helper from a result expression.
void setNZ(SymState &S, const ExprRef &Res) {
  S.N = symBin(SymExpr::Kind::Shr, Res, symConst(31));
  S.Z = symBin(SymExpr::Kind::Eq, Res, symConst(0));
}

/// Arithmetic flags for A + B + CarryIn (sub encodes as A + ~B + c).
void setAddFlags(SymState &S, const ExprRef &A, const ExprRef &B,
                 const ExprRef &CarryIn, const ExprRef &Res) {
  setNZ(S, Res);
  // Carry: (A + B + c) wraps — compute via 33-bit reasoning on eval:
  // carry = (Res < A) || (Res == A && c)  ==  LtU(Res,A) | (Eq(Res,A)&c)
  const ExprRef Lt = symBin(SymExpr::Kind::LtU, Res, A);
  const ExprRef EqC = symBin(SymExpr::Kind::And,
                             symBin(SymExpr::Kind::Eq, Res, A), CarryIn);
  S.C = symBin(SymExpr::Kind::Or, Lt, EqC);
  // Overflow: ((A ^ ~B) & (A ^ Res)) >> 31.
  const ExprRef T1 = symNot(symBin(SymExpr::Kind::Xor, A, B));
  const ExprRef T2 = symBin(SymExpr::Kind::Xor, A, Res);
  S.V = symBin(SymExpr::Kind::Shr, symBin(SymExpr::Kind::And, T1, T2),
               symConst(31));
}

} // namespace

bool rules::symExecGuest(const Inst &I, SymState &S) {
  if (I.C != arm::Cond::AL)
    return false; // conditional execution is the translator's job
  const auto Reg = [&](uint8_t R) -> ExprRef {
    if (R == arm::RegPC)
      return nullptr;
    return S.Regs[R];
  };

  // Operand 2 with shifter carry.
  ExprRef Op2, ShifterCarry = S.C;
  if (I.isDataProcessing()) {
    const arm::Operand2 &O = I.Op2;
    if (O.IsImm) {
      Op2 = symConst(O.immValue());
      if (O.Rot != 0)
        ShifterCarry = symConst(O.immValue() >> 31);
    } else {
      if (O.RegShift)
        return false; // reg-shifted-by-reg stays on the fallback path
      ExprRef Rm = Reg(O.Rm);
      if (!Rm)
        return false;
      unsigned Amt = O.ShiftImm;
      if (Amt == 0 && (O.Shift == arm::ShiftKind::LSR ||
                       O.Shift == arm::ShiftKind::ASR))
        Amt = 32;
      if (Amt == 0) {
        Op2 = Rm;
      } else {
        SymExpr::Kind K = SymExpr::Kind::Shl;
        unsigned CarryBit = 32 - Amt;
        switch (O.Shift) {
        case arm::ShiftKind::LSL:
          K = SymExpr::Kind::Shl;
          CarryBit = 32 - Amt;
          break;
        case arm::ShiftKind::LSR:
          K = SymExpr::Kind::Shr;
          CarryBit = Amt - 1;
          break;
        case arm::ShiftKind::ASR:
          K = SymExpr::Kind::Sar;
          CarryBit = Amt >= 32 ? 31 : Amt - 1;
          break;
        case arm::ShiftKind::ROR:
          K = SymExpr::Kind::Ror;
          CarryBit = Amt - 1;
          break;
        }
        Op2 = symBin(K, Rm, symConst(Amt));
        ShifterCarry = symBin(
            SymExpr::Kind::And,
            symBin(SymExpr::Kind::Shr, Rm, symConst(CarryBit & 31)),
            symConst(1));
        if (O.Shift == arm::ShiftKind::ROR)
          ShifterCarry = symBin(SymExpr::Kind::Shr, Op2, symConst(31));
      }
    }
  }

  const bool S_ = I.SetFlags || I.isCompare();
  if (I.isDataProcessing()) {
    ExprRef Rn = (I.Op == Opcode::MOV || I.Op == Opcode::MVN)
                     ? nullptr
                     : Reg(I.Rn);
    if ((I.Op != Opcode::MOV && I.Op != Opcode::MVN) && !Rn)
      return false;
    ExprRef Res;
    bool Logical = false;
    switch (I.Op) {
    case Opcode::AND:
    case Opcode::TST:
      Res = symBin(SymExpr::Kind::And, Rn, Op2);
      Logical = true;
      break;
    case Opcode::EOR:
    case Opcode::TEQ:
      Res = symBin(SymExpr::Kind::Xor, Rn, Op2);
      Logical = true;
      break;
    case Opcode::ORR:
      Res = symBin(SymExpr::Kind::Or, Rn, Op2);
      Logical = true;
      break;
    case Opcode::BIC:
      Res = symBin(SymExpr::Kind::Bic, Rn, Op2);
      Logical = true;
      break;
    case Opcode::MOV:
      Res = Op2;
      Logical = true;
      break;
    case Opcode::MVN:
      Res = symNot(Op2);
      Logical = true;
      break;
    case Opcode::SUB:
    case Opcode::CMP:
      Res = symAdc(Rn, symNot(Op2), symConst(1));
      if (S_)
        setAddFlags(S, Rn, symNot(Op2), symConst(1), Res);
      break;
    case Opcode::RSB:
      Res = symAdc(Op2, symNot(Rn), symConst(1));
      if (S_)
        setAddFlags(S, Op2, symNot(Rn), symConst(1), Res);
      break;
    case Opcode::ADD:
    case Opcode::CMN:
      Res = symAdc(Rn, Op2, symConst(0));
      if (S_)
        setAddFlags(S, Rn, Op2, symConst(0), Res);
      break;
    case Opcode::ADC:
      Res = symAdc(Rn, Op2, S.C);
      if (S_)
        setAddFlags(S, Rn, Op2, S.C, Res);
      break;
    case Opcode::SBC:
      Res = symAdc(Rn, symNot(Op2), S.C);
      if (S_)
        setAddFlags(S, Rn, symNot(Op2), S.C, Res);
      break;
    case Opcode::RSC:
      Res = symAdc(Op2, symNot(Rn), S.C);
      if (S_)
        setAddFlags(S, Op2, symNot(Rn), S.C, Res);
      break;
    default:
      return false;
    }
    if (S_ && Logical) {
      setNZ(S, Res);
      S.C = ShifterCarry;
    }
    if (!I.isCompare()) {
      if (I.Rd == arm::RegPC)
        return false;
      S.Regs[I.Rd] = Res;
    }
    return true;
  }

  switch (I.Op) {
  case Opcode::MUL: {
    ExprRef Res = symBin(SymExpr::Kind::Mul, Reg(I.Rm), Reg(I.Rs));
    S.Regs[I.Rd] = Res;
    if (S_)
      setNZ(S, Res);
    return true;
  }
  case Opcode::MLA: {
    ExprRef Res =
        symBin(SymExpr::Kind::Add,
               symBin(SymExpr::Kind::Mul, Reg(I.Rm), Reg(I.Rs)), Reg(I.Rn));
    S.Regs[I.Rd] = Res;
    if (S_)
      setNZ(S, Res);
    return true;
  }
  case Opcode::UMULL:
  case Opcode::SMULL: {
    if (S_)
      return false;
    const bool Signed = I.Op == Opcode::SMULL;
    ExprRef Lo = symBin(SymExpr::Kind::Mul, Reg(I.Rm), Reg(I.Rs));
    ExprRef Hi = symBin(Signed ? SymExpr::Kind::MulHiS : SymExpr::Kind::MulHiU,
                        Reg(I.Rm), Reg(I.Rs));
    S.Regs[I.Rd] = Lo;
    S.Regs[I.Rn] = Hi;
    return true;
  }
  case Opcode::CLZ: {
    auto E = std::make_shared<SymExpr>();
    E->K = SymExpr::Kind::Clz;
    E->A = Reg(I.Rm);
    S.Regs[I.Rd] = E;
    return true;
  }
  default:
    return false;
  }
}

bool rules::symExecHost(const HInst &H, SymState &S) {
  const ExprRef Src = H.UseImm ? symConst(static_cast<uint32_t>(H.Imm))
                               : S.Regs[H.Src];
  switch (H.Op) {
  case HOp::Mov:
    S.Regs[H.Dst] = Src;
    return true;
  case HOp::Add:
  case HOp::Adc:
  case HOp::Sub:
  case HOp::Sbc:
  case HOp::Rsb:
  case HOp::Cmp:
  case HOp::Cmn: {
    ExprRef A = S.Regs[H.Dst], B = Src, CarryIn = symConst(0);
    switch (H.Op) {
    case HOp::Adc: CarryIn = S.C; break;
    case HOp::Sub:
    case HOp::Cmp:
      B = symNot(B);
      CarryIn = symConst(1);
      break;
    case HOp::Sbc:
      B = symNot(B);
      CarryIn = S.C;
      break;
    case HOp::Rsb: {
      ExprRef Tmp = A;
      A = Src;
      B = symNot(Tmp);
      CarryIn = symConst(1);
      break;
    }
    default:
      break;
    }
    const ExprRef Res = symAdc(A, B, CarryIn);
    if (H.SetFlags || H.Op == HOp::Cmp || H.Op == HOp::Cmn)
      setAddFlags(S, A, B, CarryIn, Res);
    if (H.Op != HOp::Cmp && H.Op != HOp::Cmn)
      S.Regs[H.Dst] = Res;
    return true;
  }
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Bic:
  case HOp::Test: {
    SymExpr::Kind K = SymExpr::Kind::And;
    switch (H.Op) {
    case HOp::Or: K = SymExpr::Kind::Or; break;
    case HOp::Xor: K = SymExpr::Kind::Xor; break;
    case HOp::Bic: K = SymExpr::Kind::Bic; break;
    default: break;
    }
    const ExprRef Res = symBin(K, S.Regs[H.Dst], Src);
    if (H.SetFlags || H.Op == HOp::Test)
      setNZ(S, Res);
    if (H.Op != HOp::Test)
      S.Regs[H.Dst] = Res;
    return true;
  }
  case HOp::Not:
    S.Regs[H.Dst] = symNot(S.Regs[H.Dst]);
    return true;
  case HOp::Neg:
    S.Regs[H.Dst] =
        symAdc(symConst(0), symNot(S.Regs[H.Dst]), symConst(1));
    return true;
  case HOp::Shl:
  case HOp::Shr:
  case HOp::Sar:
  case HOp::Ror: {
    SymExpr::Kind K = SymExpr::Kind::Shl;
    switch (H.Op) {
    case HOp::Shr: K = SymExpr::Kind::Shr; break;
    case HOp::Sar: K = SymExpr::Kind::Sar; break;
    case HOp::Ror: K = SymExpr::Kind::Ror; break;
    default: break;
    }
    if (!H.UseImm)
      return false; // shifts by register are not in learned templates
    const uint32_t Amt = static_cast<uint32_t>(H.Imm) & 0xFF;
    const ExprRef A = S.Regs[H.Dst];
    const ExprRef Res = symBin(K, A, symConst(Amt));
    if (H.SetFlags && Amt != 0) {
      setNZ(S, Res);
      unsigned CarryBit;
      switch (H.Op) {
      case HOp::Shl: CarryBit = 32 - Amt; break;
      case HOp::Ror: CarryBit = 31; break;
      default: CarryBit = Amt - 1; break;
      }
      const ExprRef CarrySrc = H.Op == HOp::Ror ? Res : A;
      S.C = symBin(SymExpr::Kind::And,
                   symBin(SymExpr::Kind::Shr, CarrySrc,
                          symConst(CarryBit & 31)),
                   symConst(1));
    }
    S.Regs[H.Dst] = Res;
    return true;
  }
  case HOp::Mul: {
    const ExprRef Res = symBin(SymExpr::Kind::Mul, S.Regs[H.Dst], Src);
    if (H.SetFlags)
      setNZ(S, Res);
    S.Regs[H.Dst] = Res;
    return true;
  }
  case HOp::MulLU:
  case HOp::MulLS: {
    const ExprRef A = S.Regs[H.Dst];
    const ExprRef B = S.Regs[H.Src];
    S.Regs[H.Dst] = symBin(SymExpr::Kind::Mul, A, B);
    S.Regs[H.Src2] = symBin(H.Op == HOp::MulLS ? SymExpr::Kind::MulHiS
                                               : SymExpr::Kind::MulHiU,
                            A, B);
    return true;
  }
  case HOp::Clz: {
    auto E = std::make_shared<SymExpr>();
    E->K = SymExpr::Kind::Clz;
    E->A = S.Regs[H.Src];
    S.Regs[H.Dst] = E;
    return true;
  }
  case HOp::CoordRun: // no effect of its own: its run follows it
    return true;
  default:
    return false;
  }
}

bool rules::statesEquivalent(const SymState &Guest, const SymState &Host,
                             uint16_t RegMask, bool CheckFlags) {
  // Structured vectors that expose carry/overflow/sign corner cases, then
  // pseudo-random ones.
  std::vector<std::vector<uint32_t>> Vectors;
  const uint32_t Corners[] = {0,          1,          0xFFFFFFFFu,
                              0x7FFFFFFFu, 0x80000000u, 2};
  for (const uint32_t C1 : Corners) {
    std::vector<uint32_t> V(NumSymVars, C1);
    for (uint32_t F = SymFlagN; F < NumSymVars; ++F)
      V[F] = C1 & 1;
    Vectors.push_back(V);
  }
  Rng R(0x5EED);
  for (unsigned N = 0; N < 48; ++N) {
    std::vector<uint32_t> V(NumSymVars);
    for (uint32_t I = 0; I < 16; ++I)
      V[I] = R.next32();
    for (uint32_t F = SymFlagN; F < NumSymVars; ++F)
      V[F] = R.next32() & 1;
    Vectors.push_back(std::move(V));
  }

  for (const auto &V : Vectors) {
    for (unsigned Reg = 0; Reg < 16; ++Reg) {
      if (!(RegMask & (1u << Reg)))
        continue;
      if (evalExpr(*Guest.Regs[Reg], V) != evalExpr(*Host.Regs[Reg], V))
        return false;
    }
    if (CheckFlags) {
      if ((evalExpr(*Guest.N, V) & 1) != (evalExpr(*Host.N, V) & 1) ||
          (evalExpr(*Guest.Z, V) & 1) != (evalExpr(*Host.Z, V) & 1) ||
          (evalExpr(*Guest.C, V) & 1) != (evalExpr(*Host.C, V) & 1) ||
          (evalExpr(*Guest.V, V) & 1) != (evalExpr(*Host.V, V) & 1))
        return false;
    }
  }
  return true;
}
