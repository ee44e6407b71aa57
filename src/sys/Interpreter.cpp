//===- sys/Interpreter.cpp - ARM reference interpreter --------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "sys/Interpreter.h"

#include "arm/Decoder.h"
#include "obs/Metrics.h"
#include "obs/TraceSink.h"
#include "support/Cond.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::sys;
using arm::Cond;
using arm::ExecGroup;
using arm::Inst;
using arm::Opcode;
using arm::ShiftKind;

bool Interpreter::conditionHolds(Cond C) {
  if (C == Cond::AL || C == Cond::NV)
    return true;
  materializeFlags(Env);
  return condHolds(static_cast<unsigned>(C),
                   nzcvNibble(Env.NF != 0, Env.ZF != 0, Env.CF != 0,
                              Env.VF != 0));
}

uint32_t Interpreter::readReg(unsigned R, uint32_t Pc) {
  return R == arm::RegPC ? Pc + 8 : Env.Regs[R];
}

uint32_t Interpreter::evalOperand2(const Inst &I, uint32_t Pc,
                                   bool &ShifterCarry) {
  const arm::Operand2 &O = I.Op2;
  if (O.IsImm) {
    const uint32_t Value = O.immValue();
    if (O.Rot != 0)
      ShifterCarry = (Value >> 31) & 1;
    return Value;
  }

  const uint32_t Rm = readReg(O.Rm, Pc);
  uint32_t Amount;
  if (O.RegShift) {
    Amount = Env.Regs[O.Rs] & 0xFF;
  } else {
    Amount = O.ShiftImm;
    // LSR/ASR with immediate 0 encode a 32-bit shift.
    if (Amount == 0 &&
        (O.Shift == ShiftKind::LSR || O.Shift == ShiftKind::ASR))
      Amount = 32;
  }

  if (Amount == 0)
    return Rm; // carry unchanged

  switch (O.Shift) {
  case ShiftKind::LSL:
    if (Amount < 32) {
      ShifterCarry = (Rm >> (32 - Amount)) & 1;
      return Rm << Amount;
    }
    ShifterCarry = (Amount == 32) ? (Rm & 1) : 0;
    return 0;
  case ShiftKind::LSR:
    if (Amount < 32) {
      ShifterCarry = (Rm >> (Amount - 1)) & 1;
      return Rm >> Amount;
    }
    ShifterCarry = (Amount == 32) ? (Rm >> 31) & 1 : 0;
    return 0;
  case ShiftKind::ASR:
    if (Amount < 32) {
      ShifterCarry = (Rm >> (Amount - 1)) & 1;
      return static_cast<uint32_t>(static_cast<int32_t>(Rm) >>
                                   static_cast<int32_t>(Amount));
    }
    ShifterCarry = (Rm >> 31) & 1;
    return ShifterCarry ? 0xFFFFFFFFu : 0;
  case ShiftKind::ROR: {
    const unsigned Rot = Amount & 31;
    const uint32_t Result = Rot ? rotr32(Rm, Rot) : Rm;
    ShifterCarry = (Result >> 31) & 1;
    return Result;
  }
  }
  return Rm;
}

StepKind Interpreter::dataAbort(const Fault &F, uint32_t Pc) {
  Env.Dfsr = F.Fsr;
  Env.Dfar = F.Far;
  takeException(Env, ExcKind::DataAbort, Pc);
  return StepKind::Exception;
}

StepKind Interpreter::undefined(uint32_t Pc) {
  takeException(Env, ExcKind::Undef, Pc);
  return StepKind::Exception;
}

StepKind Interpreter::branchTo(uint32_t Target) {
  Env.Regs[15] = Target & ~1u;
  return StepKind::Ok;
}

StepKind Interpreter::exceptionReturn(uint32_t Target, uint32_t Pc) {
  if (Env.Mode == ModeUsr)
    return undefined(Pc);
  const uint32_t Spsr = currentSpsr(Env);
  cpsrWrite(Env, Spsr, /*Mask=*/0x9);
  Env.Regs[15] = Target & ~1u;
  Board.refreshIrq();
  return StepKind::Ok;
}

static void addWithCarry(uint32_t A, uint32_t B, uint32_t CarryIn,
                         uint32_t &Result, bool &CarryOut, bool &Overflow) {
  const uint64_t Unsigned =
      static_cast<uint64_t>(A) + static_cast<uint64_t>(B) + CarryIn;
  const int64_t Signed = static_cast<int64_t>(static_cast<int32_t>(A)) +
                         static_cast<int64_t>(static_cast<int32_t>(B)) +
                         static_cast<int64_t>(CarryIn);
  Result = static_cast<uint32_t>(Unsigned);
  CarryOut = Unsigned != Result;
  Overflow = Signed != static_cast<int32_t>(Result);
}

StepKind Interpreter::execDataProcessing(const Inst &I, uint32_t Pc) {
  materializeFlags(Env); // ADC/SBC read C; S-forms rewrite the flags
  bool ShifterCarry = Env.CF;
  const uint32_t Op2 = evalOperand2(I, Pc, ShifterCarry);
  const uint32_t Rn = readReg(I.Rn, Pc);

  uint32_t Result = 0;
  bool CarryOut = Env.CF, Overflow = Env.VF;
  bool LogicalOp = false;
  bool WritesRd = !I.isCompare();

  switch (I.Op) {
  case Opcode::AND:
  case Opcode::TST:
    Result = Rn & Op2;
    LogicalOp = true;
    break;
  case Opcode::EOR:
  case Opcode::TEQ:
    Result = Rn ^ Op2;
    LogicalOp = true;
    break;
  case Opcode::ORR:
    Result = Rn | Op2;
    LogicalOp = true;
    break;
  case Opcode::BIC:
    Result = Rn & ~Op2;
    LogicalOp = true;
    break;
  case Opcode::MOV:
    Result = Op2;
    LogicalOp = true;
    break;
  case Opcode::MVN:
    Result = ~Op2;
    LogicalOp = true;
    break;
  case Opcode::SUB:
  case Opcode::CMP:
    addWithCarry(Rn, ~Op2, 1, Result, CarryOut, Overflow);
    break;
  case Opcode::RSB:
    addWithCarry(~Rn, Op2, 1, Result, CarryOut, Overflow);
    break;
  case Opcode::ADD:
  case Opcode::CMN:
    addWithCarry(Rn, Op2, 0, Result, CarryOut, Overflow);
    break;
  case Opcode::ADC:
    addWithCarry(Rn, Op2, Env.CF, Result, CarryOut, Overflow);
    break;
  case Opcode::SBC:
    addWithCarry(Rn, ~Op2, Env.CF, Result, CarryOut, Overflow);
    break;
  case Opcode::RSC:
    addWithCarry(~Rn, Op2, Env.CF, Result, CarryOut, Overflow);
    break;
  default:
    assert(false && "not a data-processing opcode");
  }

  // Flag-setting writes to PC are exception returns; plain writes to PC
  // are branches and never update flags.
  if (WritesRd && I.Rd == arm::RegPC) {
    if (I.SetFlags)
      return exceptionReturn(Result, Pc);
    return branchTo(Result);
  }

  if (I.SetFlags || I.isCompare()) {
    Env.NF = Result >> 31;
    Env.ZF = Result == 0;
    Env.CF = LogicalOp ? (ShifterCarry ? 1u : 0u) : (CarryOut ? 1u : 0u);
    if (!LogicalOp)
      Env.VF = Overflow ? 1u : 0u;
  }
  if (WritesRd)
    Env.Regs[I.Rd] = Result;
  Env.Regs[15] = Pc + 4;
  return StepKind::Ok;
}

StepKind Interpreter::execMultiply(const Inst &I, uint32_t Pc) {
  switch (I.Op) {
  case Opcode::MUL:
  case Opcode::MLA: {
    uint32_t Result = Env.Regs[I.Rm] * Env.Regs[I.Rs];
    if (I.Op == Opcode::MLA)
      Result += Env.Regs[I.Rn];
    Env.Regs[I.Rd] = Result;
    if (I.SetFlags) {
      materializeFlags(Env);
      Env.NF = Result >> 31;
      Env.ZF = Result == 0;
    }
    break;
  }
  case Opcode::UMULL:
  case Opcode::SMULL: {
    uint64_t Result;
    if (I.Op == Opcode::UMULL)
      Result = static_cast<uint64_t>(Env.Regs[I.Rm]) *
               static_cast<uint64_t>(Env.Regs[I.Rs]);
    else
      Result = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(Env.Regs[I.Rm])) *
          static_cast<int64_t>(static_cast<int32_t>(Env.Regs[I.Rs])));
    Env.Regs[I.Rd] = static_cast<uint32_t>(Result);       // RdLo
    Env.Regs[I.Rn] = static_cast<uint32_t>(Result >> 32); // RdHi
    if (I.SetFlags) {
      materializeFlags(Env);
      Env.NF = static_cast<uint32_t>(Result >> 63);
      Env.ZF = Result == 0;
    }
    break;
  }
  case Opcode::CLZ:
    Env.Regs[I.Rd] = countLeadingZeros32(Env.Regs[I.Rm]);
    break;
  default:
    assert(false && "not a multiply");
  }
  Env.Regs[15] = Pc + 4;
  return StepKind::Ok;
}

StepKind Interpreter::execLoadStore(const Inst &I, uint32_t Pc) {
  const uint32_t Base = readReg(I.Rn, Pc);
  uint32_t Offset;
  if (I.RegOffset) {
    bool Ignored = Env.CF;
    Offset = evalOperand2(I, Pc, Ignored);
  } else {
    Offset = I.Imm12;
  }
  const uint32_t Delta = I.AddOffset ? Offset : 0u - Offset;
  const uint32_t Addr = I.PreIndexed ? Base + Delta : Base;

  unsigned Size = 4;
  if (I.Op == Opcode::LDRB || I.Op == Opcode::STRB)
    Size = 1;
  else if (I.Op == Opcode::LDRH || I.Op == Opcode::STRH)
    Size = 2;

  Fault F;
  if (I.isLoad()) {
    uint32_t Value = 0;
    if (!Mem.readVirt(Addr, Size, Value, F))
      return dataAbort(F, Pc);
    if (!I.PreIndexed || I.Writeback)
      Env.Regs[I.Rn] = Base + Delta;
    if (I.Rd == arm::RegPC)
      return branchTo(Value);
    Env.Regs[I.Rd] = Value;
  } else {
    const uint32_t Value = readReg(I.Rd, Pc);
    if (!Mem.writeVirt(Addr, Size, Value, F))
      return dataAbort(F, Pc);
    if (!I.PreIndexed || I.Writeback)
      Env.Regs[I.Rn] = Base + Delta;
  }
  Env.Regs[15] = Pc + 4;
  return StepKind::Ok;
}

StepKind Interpreter::execBlockTransfer(const Inst &I, uint32_t Pc) {
  if (I.RegList == 0)
    return undefined(Pc);
  if (I.UserBank && Env.Mode == ModeUsr)
    return undefined(Pc);

  unsigned Count = 0;
  for (unsigned R = 0; R < 16; ++R)
    Count += (I.RegList >> R) & 1;

  const uint32_t Base = Env.Regs[I.Rn];
  uint32_t Addr;
  switch (I.BMode) {
  case arm::BlockMode::IA: Addr = Base; break;
  case arm::BlockMode::IB: Addr = Base + 4; break;
  case arm::BlockMode::DA: Addr = Base - 4 * Count + 4; break;
  case arm::BlockMode::DB: Addr = Base - 4 * Count; break;
  default: Addr = Base; break;
  }
  const uint32_t NewBase =
      (I.BMode == arm::BlockMode::IA || I.BMode == arm::BlockMode::IB)
          ? Base + 4 * Count
          : Base - 4 * Count;

  // User-bank transfers without PC access the user-mode sp/lr.
  const bool UserRegs =
      I.UserBank && !(I.Op == Opcode::LDM && (I.RegList & (1u << 15)));

  auto regSlot = [&](unsigned R) -> uint32_t & {
    if (UserRegs && Env.Mode != ModeUsr) {
      if (R == 13)
        return Env.SpUsr;
      if (R == 14)
        return Env.LrUsr;
    }
    return Env.Regs[R];
  };

  Fault F;
  if (I.Op == Opcode::LDM) {
    // Probe-read everything first so a fault aborts without commits.
    uint32_t Values[16];
    uint32_t A = Addr;
    for (unsigned R = 0; R < 16; ++R) {
      if (!(I.RegList & (1u << R)))
        continue;
      if (!Mem.readVirt(A, 4, Values[R], F))
        return dataAbort(F, Pc);
      A += 4;
    }
    for (unsigned R = 0; R < 15; ++R)
      if (I.RegList & (1u << R))
        regSlot(R) = Values[R];
    if (I.Writeback && !(I.RegList & (1u << I.Rn)))
      Env.Regs[I.Rn] = NewBase;
    if (I.RegList & (1u << 15)) {
      if (I.UserBank)
        return exceptionReturn(Values[15], Pc);
      return branchTo(Values[15]);
    }
  } else {
    uint32_t A = Addr;
    for (unsigned R = 0; R < 16; ++R) {
      if (!(I.RegList & (1u << R)))
        continue;
      const uint32_t Value = R == 15 ? Pc + 8 : regSlot(R);
      if (!Mem.writeVirt(A, 4, Value, F))
        return dataAbort(F, Pc);
      A += 4;
    }
    if (I.Writeback)
      Env.Regs[I.Rn] = NewBase;
  }
  Env.Regs[15] = Pc + 4;
  return StepKind::Ok;
}

StepKind Interpreter::execBranch(const Inst &I, uint32_t Pc) {
  if (I.Op == Opcode::BX)
    return branchTo(Env.Regs[I.Rm]);
  if (I.Op == Opcode::BL)
    Env.Regs[14] = Pc + 4;
  return branchTo(Pc + 8 + static_cast<uint32_t>(I.BranchOffset));
}

StepKind Interpreter::execSystem(const Inst &I, uint32_t Pc) {
  const bool Privileged = Env.Mode != ModeUsr;
  switch (I.Op) {
  case Opcode::MRS:
    Env.Regs[I.Rd] = I.PsrIsSpsr ? currentSpsr(Env) : cpsrRead(Env);
    break;
  case Opcode::MSR: {
    const uint32_t Value = Env.Regs[I.Rm];
    if (I.PsrIsSpsr) {
      if (!Privileged)
        return undefined(Pc);
      currentSpsr(Env) = Value;
    } else {
      // User mode can only write the flags byte.
      const uint8_t Mask =
          Privileged ? I.MsrMask : static_cast<uint8_t>(I.MsrMask & 0x8);
      cpsrWrite(Env, Value, Mask);
      Board.refreshIrq();
    }
    break;
  }
  case Opcode::SVC:
    takeException(Env, ExcKind::Svc, Pc);
    return StepKind::Exception;
  case Opcode::CPS:
    if (Privileged) {
      Env.IrqDisabled = I.CpsDisable ? 1 : 0;
      Board.refreshIrq();
    }
    break;
  case Opcode::MCR: {
    if (!Privileged)
      return undefined(Pc);
    const uint32_t Value = Env.Regs[I.Rd];
    // TTBR and CONTEXTIDR writes keep translations alive; TLB maintenance
    // invalidates exactly its architectural scope.
    switch (I.SysReg) {
    case arm::Cp15Reg::SCTLR: {
      const uint32_t Old = Env.Sctlr;
      Env.Sctlr = Value;
      if ((Old ^ Value) & SctlrMmuEnable) {
        // The translation regime changed: nothing keyed on virtual
        // addresses survives.
        Mem.flushTlb();
        raiseTbInvalidate(TbInvFull);
      }
      break;
    }
    case arm::Cp15Reg::TTBR0:
      // Like hardware, a bare table-base change invalidates nothing —
      // software must issue TLBIASID/TLBIALL if the mappings of a live
      // ASID changed.
      Env.Ttbr0 = Value;
      break;
    case arm::Cp15Reg::CONTEXTIDR:
      // Shelve other address spaces' TLB entries (inline probes are
      // ASID-blind); translations stay cached under their ASID key.
      Mem.flushTlbExceptAsid(Value & AsidMask);
      Env.Contextidr = Value;
      break;
    case arm::Cp15Reg::DACR:
      Env.Dacr = Value;
      break;
    case arm::Cp15Reg::VBAR:
      Env.Vbar = Value;
      break;
    case arm::Cp15Reg::TLBIALL:
      Mem.flushTlb();
      // Translations embed code bytes fetched through the old mapping;
      // a global TLB invalidation signals the mapping may have changed.
      raiseTbInvalidate(TbInvFull);
      break;
    case arm::Cp15Reg::TLBIMVA:
      // Operand: MVA in bits [31:12], ASID in bits [7:0] (the ASID only
      // scopes the TLB side; the TB drop is per-page across ASIDs).
      Mem.flushTlbPage(Value & ~0xFFFu);
      raiseTbInvalidate(TbInvPage, 0, Value & ~0xFFFu);
      break;
    case arm::Cp15Reg::TLBIASID:
      Mem.flushTlbAsid(Value & AsidMask);
      raiseTbInvalidate(TbInvAsid, Value & AsidMask);
      break;
    case arm::Cp15Reg::DFSR:
      Env.Dfsr = Value;
      break;
    case arm::Cp15Reg::IFSR:
      Env.Ifsr = Value;
      break;
    case arm::Cp15Reg::DFAR:
      Env.Dfar = Value;
      break;
    case arm::Cp15Reg::Unknown:
      return undefined(Pc);
    }
    break;
  }
  case Opcode::MRC: {
    if (!Privileged)
      return undefined(Pc);
    uint32_t Value = 0;
    switch (I.SysReg) {
    case arm::Cp15Reg::SCTLR: Value = Env.Sctlr; break;
    case arm::Cp15Reg::TTBR0: Value = Env.Ttbr0; break;
    case arm::Cp15Reg::DACR: Value = Env.Dacr; break;
    case arm::Cp15Reg::VBAR: Value = Env.Vbar; break;
    case arm::Cp15Reg::DFSR: Value = Env.Dfsr; break;
    case arm::Cp15Reg::IFSR: Value = Env.Ifsr; break;
    case arm::Cp15Reg::DFAR: Value = Env.Dfar; break;
    case arm::Cp15Reg::CONTEXTIDR: Value = Env.Contextidr; break;
    case arm::Cp15Reg::TLBIALL:
    case arm::Cp15Reg::TLBIMVA:
    case arm::Cp15Reg::TLBIASID:
    case arm::Cp15Reg::Unknown:
      return undefined(Pc);
    }
    Env.Regs[I.Rd] = Value;
    break;
  }
  case Opcode::VMRS:
    Env.Regs[I.Rd] = Env.Fpscr;
    break;
  case Opcode::VMSR:
    Env.Fpscr = Env.Regs[I.Rd];
    break;
  case Opcode::WFI:
    Env.Halted = 1;
    Env.Regs[15] = Pc + 4;
    return StepKind::Halt;
  case Opcode::NOP:
    break;
  case Opcode::UDF:
    return undefined(Pc);
  default:
    assert(false && "not a system instruction");
  }
  Env.Regs[15] = Pc + 4;
  return StepKind::Ok;
}

// One handler per ExecGroup value, in enum order. The Invalid entry is
// never called — executeGrouped delivers the undefined-instruction
// exception before indexing the table.
const Interpreter::ExecFn Interpreter::ExecTable[arm::NumExecGroups] = {
    &Interpreter::execDataProcessing, // ExecGroup::DataProcessing
    &Interpreter::execMultiply,       // ExecGroup::Multiply
    &Interpreter::execLoadStore,      // ExecGroup::LoadStore
    &Interpreter::execBlockTransfer,  // ExecGroup::BlockTransfer
    &Interpreter::execBranch,         // ExecGroup::Branch
    &Interpreter::execSystem,         // ExecGroup::System
    &Interpreter::execSystem,         // ExecGroup::Invalid (unreachable)
};

// The two step functions are 64-byte aligned like HostMachine::run, so
// an unrelated change elsewhere cannot shift them within 64-byte fetch
// windows and read as an interpreter speed change.
#if defined(__GNUC__)
__attribute__((aligned(64)))
#endif
StepKind Interpreter::executeGrouped(const Inst &I, ExecGroup G,
                                     uint32_t Pc) {
  Env.Regs[15] = Pc;
  ++InstrsRetired;

  if (G == ExecGroup::Invalid)
    return undefined(Pc);

  if (!conditionHolds(I.C)) {
    Env.Regs[15] = Pc + 4;
    return StepKind::Ok;
  }

  return (this->*ExecTable[static_cast<uint8_t>(G)])(I, Pc);
}

StepKind Interpreter::execute(const Inst &I, uint32_t Pc) {
  return executeGrouped(I, arm::execGroupOf(I), Pc);
}

Interpreter::DecodedInst &Interpreter::recordFor(uint32_t Pc,
                                                 uint32_t Word) {
  const uint32_t PageVa = Pc & ~(DecodePageBytes - 1);
  // XOR-fold the page number into the slot index: guest images place the
  // kernel near VA 0 and user code megabytes up, so the plain low bits of
  // the page number collide (0x0 and 0x400000 both land in slot 0) and
  // every kernel entry/exit would evict the other side's page.
  const uint32_t Pn = Pc / DecodePageBytes;
  DecodePage &P =
      DecodePages[(Pn ^ (Pn >> 4) ^ (Pn >> 8)) & (NumDecodePages - 1)];
  if (P.PageVa != PageVa || P.MmuIdx != Env.MmuIdx) {
    // (Re)key the slot for this page, evicting whatever it held; every
    // record starts invalid. The lookup key deliberately omits the ASID:
    // hits revalidate against the freshly fetched word, so records for a
    // shared mapping (the kernel image) survive context switches, and a
    // per-ASID mapping of different bytes simply misses.
    if (!P.Records)
      P.Records.reset(new DecodedInst[WordsPerPage]());
    else
      for (uint32_t R = 0; R < WordsPerPage; ++R)
        P.Records[R].Valid = false;
    P.PageVa = PageVa;
    P.MmuIdx = Env.MmuIdx;
  }
  // Track the ASID the slot was last consulted under — invalidation-scope
  // metadata for TbInvAsid, not a lookup key.
  P.Asid = currentAsid(Env);
  DecodedInst &R = P.Records[(Pc & (DecodePageBytes - 1)) / 4];
  if (R.Valid && R.RawWord == Word) {
    ++DecodeHits;
    return R;
  }
  ++DecodeMisses;
  R.I = arm::decode(Word);
  R.RawWord = Word;
  R.Group = arm::execGroupOf(R.I);
  R.DefinesFlags = R.I.definesFlags();
  R.Valid = true;
  return R;
}

void Interpreter::onTbInvalidate(uint32_t Kind, uint32_t Asid,
                                 uint32_t Page) {
  if (Kind == TbInvNone)
    return;
  for (DecodePage &P : DecodePages) {
    if (P.PageVa == DecodePage::EmptyTag)
      continue;
    const bool Drop = Kind == TbInvFull ||
                      (Kind == TbInvAsid && P.Asid == Asid) ||
                      (Kind == TbInvPage && P.PageVa == Page);
    if (Drop) {
      P.PageVa = DecodePage::EmptyTag;
      ++DecodePagesDropped;
    }
  }
}

void Interpreter::raiseTbInvalidate(uint32_t Kind, uint32_t Asid,
                                    uint32_t Page) {
  requestTbInvalidate(Env, Kind, Asid, Page);
  onTbInvalidate(Kind, Asid, Page);
}

#if defined(__GNUC__)
__attribute__((aligned(64)))
#endif
StepKind Interpreter::stepAt(uint32_t Pc, bool *DefinesFlags) {
  uint32_t Word = 0;
  Fault F;
  if (!Mem.fetchWord(Pc, Word, F)) {
    Env.Ifsr = F.Fsr;
    Env.Dfar = F.Far; // we do not model a separate IFAR
    takeException(Env, ExcKind::PrefetchAbort, Pc);
    return StepKind::Exception;
  }
  if (!FastpathOn) {
    const uint64_t T0 = DecodeNs ? obs::nowNs() : 0;
    const Inst I = arm::decode(Word);
    if (DecodeNs)
      DecodeNs->record(obs::nowNs() - T0);
    ++DecodeMisses;
    if (DefinesFlags)
      *DefinesFlags = I.definesFlags();
    return executeGrouped(I, arm::execGroupOf(I), Pc);
  }
  const uint64_t T0 = DecodeNs ? obs::nowNs() : 0;
  const DecodedInst &R = recordFor(Pc, Word);
  if (DecodeNs)
    DecodeNs->record(obs::nowNs() - T0);
  if (DefinesFlags)
    *DefinesFlags = R.DefinesFlags;
  return executeGrouped(R.I, R.Group, Pc);
}

StepKind Interpreter::step() { return stepAt(Env.Regs[15]); }

sys::SystemRunResult sys::runSystemInterpreter(Platform &Board,
                                               uint64_t MaxInstrs,
                                               bool Fastpath,
                                               obs::Histogram *DecodeNs) {
  Mmu Mem(Board.Env, Board);
  Interpreter Interp(Board.Env, Mem, Board);
  Interp.setFastpath(Fastpath);
  Interp.setDecodeNsHistogram(DecodeNs);
  SystemRunResult Result;
  while (!Board.ShutdownRequested && Interp.InstrsRetired < MaxInstrs) {
    if (Board.Env.Halted) {
      if (!Board.Env.IrqPending && Board.fastForward() == 0 &&
          !Board.Env.IrqPending) {
        Result.Deadlocked = true;
        break;
      }
      if (!Board.Env.IrqPending)
        continue;
      Board.Env.Halted = 0;
    }
    if (Board.Env.ExitRequest) {
      Board.Env.ExitRequest = 0;
      Interp.maybeTakeIrq();
    }
    Interp.step();
    Board.advance(1);
  }
  Result.Shutdown = Board.ShutdownRequested;
  Result.InstrsRetired = Interp.InstrsRetired;
  Result.DecodeHits = Interp.DecodeHits;
  Result.DecodeMisses = Interp.DecodeMisses;
  return Result;
}

bool Interpreter::maybeTakeIrq() {
  if (!Env.IrqPending)
    return false;
  Env.Halted = 0; // pending wakes a halted core even if masked
  if (Env.IrqDisabled)
    return false;
  takeException(Env, ExcKind::Irq, Env.Regs[15]);
  return true;
}
