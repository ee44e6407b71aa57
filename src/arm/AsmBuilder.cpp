//===- arm/AsmBuilder.cpp - Programmatic ARM assembler --------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "arm/AsmBuilder.h"

#include "arm/Encoder.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::arm;

Label AsmBuilder::newLabel() {
  LabelAddrs.push_back(-1);
  return Label{static_cast<unsigned>(LabelAddrs.size() - 1)};
}

void AsmBuilder::bind(Label L) {
  assert(L.isValid() && "binding an invalid label");
  assert(LabelAddrs[L.Id] == -1 && "label bound twice");
  LabelAddrs[L.Id] = here();
}

Label AsmBuilder::hereLabel() {
  Label L = newLabel();
  bind(L);
  return L;
}

uint32_t AsmBuilder::labelAddr(Label L) const {
  assert(L.isValid() && LabelAddrs[L.Id] >= 0 && "label not bound");
  return static_cast<uint32_t>(LabelAddrs[L.Id]);
}

void AsmBuilder::emit(const Inst &I) { word(encode(I)); }

void AsmBuilder::zeros(unsigned Count) {
  for (unsigned N = 0; N < Count; ++N)
    word(0);
}

void AsmBuilder::padTo(uint32_t Addr) {
  assert(Addr >= here() && isAligned(Addr, 4) && "bad pad target");
  while (here() < Addr)
    nop();
}

void AsmBuilder::mov(uint8_t Rd, Operand2 Src, Cond C, bool S) {
  Inst I;
  I.Op = Opcode::MOV;
  I.C = C;
  I.SetFlags = S;
  I.Rd = Rd;
  I.Op2 = Src;
  emit(I);
}

void AsmBuilder::movi(uint8_t Rd, uint32_t Imm, Cond C, bool S) {
  mov(Rd, Operand2::imm(Imm), C, S);
}

void AsmBuilder::mvn(uint8_t Rd, Operand2 Src, Cond C, bool S) {
  Inst I;
  I.Op = Opcode::MVN;
  I.C = C;
  I.SetFlags = S;
  I.Rd = Rd;
  I.Op2 = Src;
  emit(I);
}

void AsmBuilder::alu(Opcode Op, uint8_t Rd, uint8_t Rn, Operand2 Src, Cond C,
                     bool S) {
  Inst I;
  I.Op = Op;
  I.C = C;
  I.SetFlags = S;
  I.Rd = Rd;
  I.Rn = Rn;
  I.Op2 = Src;
  emit(I);
}

void AsmBuilder::cmp(uint8_t Rn, Operand2 Src, Cond C) {
  Inst I;
  I.Op = Opcode::CMP;
  I.C = C;
  I.SetFlags = true;
  I.Rn = Rn;
  I.Op2 = Src;
  emit(I);
}

void AsmBuilder::cmn(uint8_t Rn, Operand2 Src, Cond C) {
  Inst I;
  I.Op = Opcode::CMN;
  I.C = C;
  I.SetFlags = true;
  I.Rn = Rn;
  I.Op2 = Src;
  emit(I);
}

void AsmBuilder::tst(uint8_t Rn, Operand2 Src, Cond C) {
  Inst I;
  I.Op = Opcode::TST;
  I.C = C;
  I.SetFlags = true;
  I.Rn = Rn;
  I.Op2 = Src;
  emit(I);
}

void AsmBuilder::teq(uint8_t Rn, Operand2 Src, Cond C) {
  Inst I;
  I.Op = Opcode::TEQ;
  I.C = C;
  I.SetFlags = true;
  I.Rn = Rn;
  I.Op2 = Src;
  emit(I);
}

void AsmBuilder::movImm32(uint8_t Rd, uint32_t Value, Cond C) {
  if (isArmImmediate(Value)) {
    movi(Rd, Value, C);
    return;
  }
  if (isArmImmediate(~Value)) {
    mvn(Rd, Operand2::imm(~Value), C);
    return;
  }
  // Byte-by-byte: mov + up to three orrs.
  bool First = true;
  for (unsigned Shift = 0; Shift < 32; Shift += 8) {
    const uint32_t Byte = Value & (0xFFu << Shift);
    if (Byte == 0 && !(First && Shift == 24))
      continue;
    if (First) {
      movi(Rd, Byte, C);
      First = false;
    } else {
      alu(Opcode::ORR, Rd, Rd, Operand2::imm(Byte), C);
    }
  }
  if (First)
    movi(Rd, 0, C);
}

void AsmBuilder::shift(uint8_t Rd, uint8_t Rm, ShiftKind Kind,
                       uint8_t Amount, Cond C, bool S) {
  mov(Rd, Operand2::shiftedReg(Rm, Kind, Amount), C, S);
}

void AsmBuilder::mul(uint8_t Rd, uint8_t Rm, uint8_t Rs, Cond C, bool S) {
  Inst I;
  I.Op = Opcode::MUL;
  I.C = C;
  I.SetFlags = S;
  I.Rd = Rd;
  I.Rm = Rm;
  I.Rs = Rs;
  emit(I);
}

void AsmBuilder::mla(uint8_t Rd, uint8_t Rm, uint8_t Rs, uint8_t Ra, Cond C,
                     bool S) {
  Inst I;
  I.Op = Opcode::MLA;
  I.C = C;
  I.SetFlags = S;
  I.Rd = Rd;
  I.Rm = Rm;
  I.Rs = Rs;
  I.Rn = Ra;
  emit(I);
}

void AsmBuilder::umull(uint8_t RdLo, uint8_t RdHi, uint8_t Rm, uint8_t Rs,
                       Cond C, bool S) {
  Inst I;
  I.Op = Opcode::UMULL;
  I.C = C;
  I.SetFlags = S;
  I.Rd = RdLo;
  I.Rn = RdHi;
  I.Rm = Rm;
  I.Rs = Rs;
  emit(I);
}

void AsmBuilder::smull(uint8_t RdLo, uint8_t RdHi, uint8_t Rm, uint8_t Rs,
                       Cond C, bool S) {
  Inst I;
  I.Op = Opcode::SMULL;
  I.C = C;
  I.SetFlags = S;
  I.Rd = RdLo;
  I.Rn = RdHi;
  I.Rm = Rm;
  I.Rs = Rs;
  emit(I);
}

void AsmBuilder::clz(uint8_t Rd, uint8_t Rm, Cond C) {
  Inst I;
  I.Op = Opcode::CLZ;
  I.C = C;
  I.Rd = Rd;
  I.Rm = Rm;
  emit(I);
}

void AsmBuilder::ldrstr(Opcode Op, uint8_t Rt, uint8_t Rn, int32_t Offset,
                        Cond C, bool Writeback, bool PostIndex) {
  Inst I;
  I.Op = Op;
  I.C = C;
  I.Rd = Rt;
  I.Rn = Rn;
  I.AddOffset = Offset >= 0;
  I.Imm12 = static_cast<uint16_t>(Offset >= 0 ? Offset : -Offset);
  I.PreIndexed = !PostIndex;
  I.Writeback = Writeback && !PostIndex;
  const uint16_t Limit =
      (Op == Opcode::LDRH || Op == Opcode::STRH) ? 256 : 4096;
  assert(I.Imm12 < Limit && "load/store offset out of range");
  (void)Limit;
  emit(I);
}

void AsmBuilder::ldrstrReg(Opcode Op, uint8_t Rt, uint8_t Rn,
                           Operand2 Offset, Cond C) {
  Inst I;
  I.Op = Op;
  I.C = C;
  I.Rd = Rt;
  I.Rn = Rn;
  I.RegOffset = true;
  I.Op2 = Offset;
  emit(I);
}

void AsmBuilder::ldm(uint8_t Rn, uint16_t List, BlockMode M, bool Writeback,
                     Cond C, bool UserBank) {
  Inst I;
  I.Op = Opcode::LDM;
  I.C = C;
  I.Rn = Rn;
  I.RegList = List;
  I.BMode = M;
  I.Writeback = Writeback;
  I.UserBank = UserBank;
  emit(I);
}

void AsmBuilder::stm(uint8_t Rn, uint16_t List, BlockMode M, bool Writeback,
                     Cond C, bool UserBank) {
  Inst I;
  I.Op = Opcode::STM;
  I.C = C;
  I.Rn = Rn;
  I.RegList = List;
  I.BMode = M;
  I.Writeback = Writeback;
  I.UserBank = UserBank;
  emit(I);
}

void AsmBuilder::push(uint16_t List, Cond C) {
  stm(RegSP, List, BlockMode::DB, /*Writeback=*/true, C);
}

void AsmBuilder::pop(uint16_t List, Cond C) {
  ldm(RegSP, List, BlockMode::IA, /*Writeback=*/true, C);
}

void AsmBuilder::ldrLit(uint8_t Rt, uint32_t Value, Cond C) {
  PendingPool.push_back(PoolRef{Words.size(), Value});
  // Placeholder: ldr Rt, [pc, #0]; the offset is patched in flushPool().
  Inst I;
  I.Op = Opcode::LDR;
  I.C = C;
  I.Rd = Rt;
  I.Rn = RegPC;
  emit(I);
}

void AsmBuilder::pool() { flushPool(); }

void AsmBuilder::flushPool() {
  if (PendingPool.empty())
    return;
  for (const PoolRef &Ref : PendingPool) {
    const uint32_t SlotAddr = here();
    const uint32_t LdrAddr = Base + 4u * static_cast<uint32_t>(Ref.WordIndex);
    const int32_t Offset = static_cast<int32_t>(SlotAddr) -
                           static_cast<int32_t>(LdrAddr + 8);
    assert(Offset >= 0 && Offset < 4096 &&
           "literal pool too far; insert pool() earlier");
    Words[Ref.WordIndex] |= static_cast<uint32_t>(Offset) & 0xFFFu;
    word(Ref.Value);
  }
  PendingPool.clear();
}

void AsmBuilder::b(Label Target, Cond C) {
  BranchFixups.push_back(Fixup{Words.size(), Target.Id});
  Inst I;
  I.Op = Opcode::B;
  I.C = C;
  emit(I);
}

void AsmBuilder::bl(Label Target, Cond C) {
  BranchFixups.push_back(Fixup{Words.size(), Target.Id});
  Inst I;
  I.Op = Opcode::BL;
  I.C = C;
  emit(I);
}

void AsmBuilder::bx(uint8_t Rm, Cond C) {
  Inst I;
  I.Op = Opcode::BX;
  I.C = C;
  I.Rm = Rm;
  emit(I);
}

void AsmBuilder::mrs(uint8_t Rd, bool Spsr, Cond C) {
  Inst I;
  I.Op = Opcode::MRS;
  I.C = C;
  I.Rd = Rd;
  I.PsrIsSpsr = Spsr;
  emit(I);
}

void AsmBuilder::msr(uint8_t Rm, bool Spsr, uint8_t Mask, Cond C) {
  Inst I;
  I.Op = Opcode::MSR;
  I.C = C;
  I.Rm = Rm;
  I.PsrIsSpsr = Spsr;
  I.MsrMask = Mask;
  emit(I);
}

void AsmBuilder::svc(uint32_t Imm, Cond C) {
  Inst I;
  I.Op = Opcode::SVC;
  I.C = C;
  I.Imm24 = Imm & 0x00FFFFFFu;
  emit(I);
}

void AsmBuilder::cps(bool DisableIrq) {
  Inst I;
  I.Op = Opcode::CPS;
  I.C = Cond::NV;
  I.CpsDisable = DisableIrq;
  emit(I);
}

void AsmBuilder::mcr(Cp15Reg Reg, uint8_t Rt, Cond C) {
  Inst I;
  I.Op = Opcode::MCR;
  I.C = C;
  I.Rd = Rt;
  I.SysReg = Reg;
  emit(I);
}

void AsmBuilder::mrc(Cp15Reg Reg, uint8_t Rt, Cond C) {
  Inst I;
  I.Op = Opcode::MRC;
  I.C = C;
  I.Rd = Rt;
  I.SysReg = Reg;
  emit(I);
}

void AsmBuilder::vmrs(uint8_t Rt, Cond C) {
  Inst I;
  I.Op = Opcode::VMRS;
  I.C = C;
  I.Rd = Rt;
  emit(I);
}

void AsmBuilder::vmsr(uint8_t Rt, Cond C) {
  Inst I;
  I.Op = Opcode::VMSR;
  I.C = C;
  I.Rd = Rt;
  emit(I);
}

void AsmBuilder::wfi(Cond C) {
  Inst I;
  I.Op = Opcode::WFI;
  I.C = C;
  emit(I);
}

void AsmBuilder::nop(Cond C) {
  Inst I;
  I.Op = Opcode::NOP;
  I.C = C;
  emit(I);
}

void AsmBuilder::udf(uint32_t Imm) {
  Inst I;
  I.Op = Opcode::UDF;
  I.Imm24 = Imm;
  emit(I);
}

void AsmBuilder::eret(uint32_t Adjust) {
  Inst I;
  I.Op = Opcode::SUB;
  I.SetFlags = true;
  I.Rd = RegPC;
  I.Rn = RegLR;
  I.Op2 = Operand2::imm(Adjust);
  emit(I);
}

void AsmBuilder::movsPcLr() {
  Inst I;
  I.Op = Opcode::MOV;
  I.SetFlags = true;
  I.Rd = RegPC;
  I.Op2 = Operand2::reg(RegLR);
  emit(I);
}

std::vector<uint32_t> AsmBuilder::finish() {
  assert(!Finished && "finish() called twice");
  Finished = true;
  flushPool();
  for (const Fixup &F : BranchFixups) {
    assert(LabelAddrs[F.LabelId] >= 0 && "branch to unbound label");
    const uint32_t InstAddr = Base + 4u * static_cast<uint32_t>(F.WordIndex);
    const int32_t Offset = static_cast<int32_t>(LabelAddrs[F.LabelId]) -
                           static_cast<int32_t>(InstAddr + 8);
    Words[F.WordIndex] = (Words[F.WordIndex] & 0xFF000000u) |
                         ((static_cast<uint32_t>(Offset) >> 2) & 0x00FFFFFFu);
  }
  return std::move(Words);
}
