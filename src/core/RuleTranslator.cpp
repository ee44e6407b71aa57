//===- core/RuleTranslator.cpp - Rule-based system-level translator --------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "core/RuleTranslator.h"

#include "dbt/Helpers.h"
#include "dbt/SoftmmuEmit.h"
#include "obs/Trace.h"
#include "profile/GapMiner.h"
#include "sys/Env.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::core;
using arm::Cond;
using arm::Inst;
using arm::Opcode;
using host::CostClass;
using host::HCond;
using host::HOp;
using host::HostEmitter;

const char *core::optLevelName(OptLevel L) {
  switch (L) {
  case OptLevel::Base: return "base";
  case OptLevel::Reduction: return "+reduction";
  case OptLevel::Elimination: return "+elimination";
  case OptLevel::Scheduling: return "+scheduling";
  }
  return "?";
}

namespace {

/// True for instructions whose translation involves the emulator and thus
/// clobbers the host registers/flags (the paper's context-switch points).
bool isClobberPoint(const Inst &I) {
  return I.isMemAccess() || I.isSystemLevel() || !I.isValid();
}

/// Whether the instruction needs the emulate-helper fallback. The probe
/// counts into \p Stats like every other match attempt.
bool needsHelper(const Inst &I, const rules::RuleSet &RS,
                 rules::MatchStats *Stats) {
  if (!I.isValid() || I.isSystemLevel())
    return true;
  if (I.isMemAccess() || I.isDirectBranch() || I.Op == Opcode::BX ||
      I.Op == Opcode::NOP)
    return false; // handled structurally
  rules::Binding B;
  const rules::Rule *R = nullptr;
  return RS.match(&I, 1, &R, B, Stats) == 0;
}

/// Emits one guest block with coordination state tracking.
class BlockEmitter {
public:
  BlockEmitter(const dbt::GuestBlock &GB, const rules::RuleSet &Rules,
               const OptConfig &Opt, host::HostBlock &Out,
               RuleTranslator &Stats)
      : GB(GB), Rules(Rules), Opt(Opt), Out(Out), E(Out), Stats(Stats) {}

  void run();

private:
  const dbt::GuestBlock &GB;
  const rules::RuleSet &Rules;
  const OptConfig &Opt;
  host::HostBlock &Out;
  HostEmitter E;
  RuleTranslator &Stats;

  // Scheduled program order.
  std::vector<Inst> Order;
  std::vector<uint32_t> Pcs;
  size_t IrqCheckPos = 0;

  // Coordination state.
  uint16_t Resident = 0;
  uint16_t Dirty = 0;
  // Host flags are NOT architecturally guaranteed at TB entry: a lazy-mode
  // predecessor can exit with host flags clobbered by its interrupt-check
  // test (its deferred restore never materializes when no use follows), and
  // chained jumps skip the dispatch loop's flag reload. The head interrupt
  // check used to mask a `true` here by invalidating immediately — until
  // ScheduleIrq moved the check past the first instructions and a
  // conditional op before it consumed stale flags (caught by the fuzz
  // workload). Every entry path keeps env current, so restoring lazily at
  // the first use is always sound; the inter-TB save elision stays
  // consistent because DefinesFlagsBeforeUse counts condition codes as
  // uses.
  bool FlagsValid = false; ///< host flags hold the live guest flags
  bool FlagsDirty = false; ///< env copy is stale
  bool AnyBracket = false; ///< basic mode: a save/clobber happened
  bool TbTouchesFlags = false; ///< any instruction defines or uses flags

  // Interrupt-exit stub bookkeeping.
  int IrqExitJcc = -1;
  uint32_t IrqExitPc = 0;
  uint16_t IrqExitDirty = 0;

  int NextSlot = 0;
  bool Ended = false;

  void schedule();
  bool computeDefinesFlagsBeforeUse() const;

  // --- Register residency ---------------------------------------------------

  void ensureResident(unsigned R) {
    assert(R < 15 && "PC is synthesized, never resident");
    if (Resident & (1u << R))
      return;
    const CostClass Saved = E.setClass(CostClass::Sync);
    E.ldEnv(static_cast<uint8_t>(R), sys::envSlotReg(R));
    E.setClass(Saved);
    Resident |= 1u << R;
  }
  void markWritten(unsigned R) {
    assert(R < 15);
    Resident |= 1u << R;
    Dirty |= 1u << R;
  }
  /// Reads guest register \p R (possibly PC) into a host register:
  /// returns the pinned register, or materializes PC into \p PcScratch.
  uint8_t readReg(unsigned R, uint32_t Pc, uint8_t PcScratch) {
    if (R == arm::RegPC) {
      E.movRI(PcScratch, Pc + 8);
      return PcScratch;
    }
    ensureResident(R);
    return static_cast<uint8_t>(R);
  }

  // --- Flag coordination ------------------------------------------------------

  void emitParseSave() {
    // Fig. 8 left panel: 14 host instructions.
    E.packF(host::ScratchReg0);
    static const struct {
      uint16_t Slot;
      HCond Cc;
    } Flags[] = {
        {sys::envSlotNF(), HCond::Mi},
        {sys::envSlotZF(), HCond::Eq},
        {sys::envSlotCF(), HCond::Cs},
        {sys::envSlotVF(), HCond::Vs},
    };
    for (const auto &F : Flags) {
      E.movRI(host::ScratchReg1, 0);
      E.setCc(host::ScratchReg1, F.Cc);
      E.stEnv(F.Slot, host::ScratchReg1);
    }
  }
  void emitParseRestore() {
    // Rebuild NZCV from the decomposed slots: 13 host instructions.
    E.ldEnv(host::ScratchReg0, sys::envSlotNF());
    E.aluI(HOp::Shl, host::ScratchReg0, 31);
    static const struct {
      uint16_t Slot;
      uint32_t Shift;
    } Rest[] = {
        {sys::envSlotZF(), 30},
        {sys::envSlotCF(), 29},
        {sys::envSlotVF(), 28},
    };
    for (const auto &F : Rest) {
      E.ldEnv(host::ScratchReg1, F.Slot);
      E.aluI(HOp::Shl, host::ScratchReg1, F.Shift);
      E.alu(HOp::Or, host::ScratchReg0, host::ScratchReg1);
    }
    E.unpackF(host::ScratchReg0);
  }
  void emitPackedSave() {
    // Fig. 8 right panel (+ the validity tag store; see DESIGN.md).
    E.packF(host::ScratchReg0);
    E.stEnv(sys::envSlotPackedCcr(), host::ScratchReg0);
    E.stEnvI(sys::envSlotCcrPacked(), 1);
  }
  void emitPackedRestore() {
    E.ldEnv(host::ScratchReg0, sys::envSlotPackedCcr());
    E.unpackF(host::ScratchReg0);
  }

  /// Saves host flags to env if the current mode requires it. Returns
  /// the host-code range emitted (for the elidable chain regions).
  std::pair<int, int> flagSavePoint() {
    const int Begin = E.here();
    const bool Emit = Opt.TrackFlagState ? FlagsDirty : TbTouchesFlags;
    if (Emit) {
      const CostClass Saved = E.setClass(CostClass::Sync);
      E.marker(host::MarkerKind::SyncOp);
      if (Opt.PackedCcr)
        emitPackedSave();
      else
        emitParseSave();
      E.setClass(Saved);
      FlagsDirty = false;
      AnyBracket = true;
    }
    return {Begin, E.here()};
  }

  /// Reloads guest flags into host flags if the current mode requires it
  /// at a use site. Basic mode restores pessimistically before every use
  /// that follows a sync bracket (Fig. 9) — but only while env is fresh
  /// (no flag definition since the last save), which is also the
  /// correctness condition.
  void flagRestoreForUse() {
    const bool Emit =
        Opt.TrackFlagState ? !FlagsValid : (AnyBracket && !FlagsDirty);
    if (!Emit)
      return;
    const CostClass Saved = E.setClass(CostClass::Sync);
    E.marker(host::MarkerKind::SyncOp);
    if (Opt.PackedCcr)
      emitPackedRestore();
    else
      emitParseRestore();
    E.setClass(Saved);
    FlagsValid = true;
  }

  /// Basic-mode unconditional restore after a clobber bracket.
  void flagRestoreAfterClobber() {
    if (Opt.TrackFlagState) {
      FlagsValid = false; // restore lazily at the next use
      return;
    }
    if (!TbTouchesFlags)
      return; // the III-A scan saw no flag state in this TB
    const CostClass Saved = E.setClass(CostClass::Sync);
    E.marker(host::MarkerKind::SyncOp);
    if (Opt.PackedCcr)
      emitPackedRestore();
    else
      emitParseRestore();
    E.setClass(Saved);
    // Basic mode keeps host flags architecturally valid between brackets.
  }

  void noteFlagsDefined() {
    FlagsValid = true;
    FlagsDirty = true;
  }

  // --- Structural pieces ------------------------------------------------------

  void emitIrqCheck(uint32_t Pc, bool AtTbHead) {
    // At the TB head the host flags are whatever the previous block left
    // behind — a flag-free predecessor chains in with its own interrupt
    // check's test still in them — so parse-saving them here would
    // launder garbage into an env copy that is already current (every
    // flag-defining TB saves on exit, and helper/CPSR writes keep env
    // coherent). Only a mid-TB check (ScheduleIrq) sits after live,
    // possibly-dirty flags and must save before the clobber.
    if (!AtTbHead)
      flagSavePoint();
    const CostClass Saved = E.setClass(CostClass::IrqCheck);
    E.marker(host::MarkerKind::TbProlog);
    E.ldEnv(host::ScratchReg0, sys::envSlotExitRequest());
    E.testRR(host::ScratchReg0, host::ScratchReg0);
    IrqExitJcc = E.jcc(HCond::Ne);
    E.setClass(Saved);
    IrqExitPc = Pc;
    IrqExitDirty = Dirty;
    flagRestoreAfterClobber();
  }

  void storeDirtyRegs(uint16_t Mask) {
    const CostClass Saved = E.setClass(CostClass::Sync);
    for (unsigned R = 0; R < 15; ++R)
      if (Mask & (1u << R))
        E.stEnv(sys::envSlotReg(R), static_cast<uint8_t>(R));
    E.setClass(Saved);
  }

  /// Sync-save before a softmmu access: dirty registers + flags. The
  /// slow path can fault, and the guest abort handler (plus the re-entry
  /// at the faulting PC) observes env — so register state must be
  /// architectural here, exactly the paper's "sync-save before each
  /// ld/st" (Fig. 5).
  void syncSaveForMem() {
    if (Dirty) {
      const CostClass Saved = E.setClass(CostClass::Sync);
      E.marker(host::MarkerKind::SyncOp);
      E.setClass(Saved);
      storeDirtyRegs(Dirty);
      Dirty = 0;
    }
    flagSavePoint();
  }

  /// Full sync-save before a helper call: dirty registers + PC + flags.
  void syncSaveForHelper(uint32_t Pc) {
    const CostClass Saved = E.setClass(CostClass::Sync);
    E.marker(host::MarkerKind::SyncOp);
    E.setClass(Saved);
    storeDirtyRegs(Dirty);
    Dirty = 0;
    E.setClass(CostClass::Glue);
    E.stEnvI(sys::envSlotReg(15), Pc);
    E.setClass(Saved);
    flagSavePoint();
  }

  /// Chainable exit epilogue. Emits from the current state snapshot
  /// without consuming it (conditional branches emit two).
  void emitChainExit(uint32_t Target) {
    assert(NextSlot < 2 && "more than two chain exits");
    const int Slot = NextSlot++;
    const CostClass Saved = E.setClass(CostClass::Sync);
    E.marker(host::MarkerKind::SyncOp);
    E.setClass(Saved);
    storeDirtyRegs(Dirty);
    const bool SavedDirtyFlags = FlagsDirty;
    const auto [Begin, End] = flagSavePoint();
    FlagsDirty = SavedDirtyFlags; // state forks; restore for the twin exit
    Out.Chains[Slot].FlagSaveBegin = Begin == End ? -1 : Begin;
    Out.Chains[Slot].FlagSaveEnd = End;
    E.setClass(CostClass::Glue);
    E.chainSlot(Slot, Target);
    E.stEnvI(sys::envSlotReg(15), Target);
    E.exitTbNeedTranslate(Slot);
    E.setClass(Saved);
    Ended = true;
  }

  /// Exit through the lookup path; the guest PC must already be in env.
  void emitLookupExit() {
    const CostClass Saved = E.setClass(CostClass::Sync);
    E.marker(host::MarkerKind::SyncOp);
    E.setClass(Saved);
    storeDirtyRegs(Dirty);
    flagSavePoint();
    E.setClass(CostClass::Glue);
    E.exitTb(host::ExitReason::Lookup);
    E.setClass(Saved);
    Ended = true;
  }

  // --- Instruction groups -----------------------------------------------------

  void emitRuleApp(size_t &Idx);
  void emitFallback(const Inst &I, uint32_t Pc);
  void emitMemSingle(const Inst &I, uint32_t Pc);
  void emitFallbackStorePc(const Inst &I, uint32_t Pc, int GuardJcc);
  void emitBlockTransfer(const Inst &I, uint32_t Pc);
  void emitBranch(const Inst &I, uint32_t Pc);
  void emitInstr(size_t &Idx);
};

} // namespace

void BlockEmitter::schedule() {
  Order = GB.Insts;
  Pcs.resize(Order.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Pcs[I] = GB.pcOf(I);

  bool Moved = false;
  if (Opt.ScheduleDefUse) {
    // Define-before-use scheduling (Fig. 12): move a flag-defining
    // instruction down, past independent clobber points, to sit just
    // before its first use.
    for (size_t I = 0; I + 1 < Order.size(); ++I) {
      const Inst &D = Order[I];
      if (!D.definesFlags() || D.C != Cond::AL || isClobberPoint(D) ||
          D.endsBlock() || needsHelper(D, Rules, &Stats.Matches))
        continue;
      // Find the first flag use; give up at a redefinition.
      size_t UseAt = 0;
      for (size_t J = I + 1; J < Order.size(); ++J) {
        if (Order[J].usesFlags()) {
          UseAt = J;
          break;
        }
        if (Order[J].definesFlags())
          break;
      }
      if (UseAt <= I + 1)
        continue;
      // Profitable only if a clobber point sits in between; legal only if
      // the span is independent of D.
      bool Profitable = false, Legal = true;
      const uint16_t DWrites = arm::regsWritten(D);
      const uint16_t DReads = arm::regsRead(D);
      for (size_t K = I + 1; K < UseAt && Legal; ++K) {
        const Inst &M = Order[K];
        Profitable |= isClobberPoint(M);
        if (M.definesFlags() || M.usesFlags() || M.endsBlock())
          Legal = false;
        const uint16_t KTouch = arm::regsRead(M) | arm::regsWritten(M);
        if ((DWrites & KTouch) || (DReads & arm::regsWritten(M)))
          Legal = false;
      }
      if (!Profitable || !Legal)
        continue;
      const Inst Saved = Order[I];
      const uint32_t SavedPc = Pcs[I];
      Order.erase(Order.begin() + I);
      Pcs.erase(Pcs.begin() + I);
      Order.insert(Order.begin() + (UseAt - 1), Saved);
      Pcs.insert(Pcs.begin() + (UseAt - 1), SavedPc);
      ++Stats.ScheduledDefUseMoves;
      Moved = true;
    }
  }

  // Interrupt-driven scheduling (Fig. 13): co-locate the TB-head check
  // with the first memory access. Disabled when define-before-use moved
  // an instruction: the interrupted-PC would no longer correspond to a
  // consistent sequential prefix (see DESIGN.md).
  IrqCheckPos = 0;
  if (Opt.ScheduleIrq && !Moved) {
    for (size_t I = 0; I < Order.size(); ++I) {
      if (Order[I].isMemAccess()) {
        if (I > 0) {
          IrqCheckPos = I;
          ++Stats.ScheduledIrqChecks;
        }
        break;
      }
    }
  }
}

bool BlockEmitter::computeDefinesFlagsBeforeUse() const {
  for (const Inst &I : Order) {
    if (I.usesFlags())
      return false;
    if (I.definesFlags())
      return true;
  }
  return false;
}

void BlockEmitter::emitRuleApp(size_t &Idx) {
  const Inst &I = Order[Idx];
  const uint32_t Pc = Pcs[Idx];
  rules::Binding B;
  const rules::Rule *R = nullptr;
  const size_t Consumed =
      Rules.match(&Order[Idx], Order.size() - Idx, &R, B, &Stats.Matches);
  if (Consumed == 0) {
    emitFallback(I, Pc);
    ++Idx;
    return;
  }

  // Condition guard (the paper's constrained-rule handling): the guard
  // consumes host flags, so restore them first if needed.
  int GuardJcc = -1;
  if (B.C != Cond::AL && B.C != Cond::NV) {
    flagRestoreForUse();
    GuardJcc = E.jcc(host::hcondFromArm(
        static_cast<uint8_t>(arm::invert(B.C))));
  } else if (I.usesFlags()) {
    flagRestoreForUse(); // ADC-style data use of the carry
  }

  for (size_t K = 0; K < Consumed; ++K) {
    const uint16_t Reads = arm::regsRead(Order[Idx + K]);
    for (unsigned Reg = 0; Reg < 15; ++Reg)
      if (Reads & (1u << Reg))
        ensureResident(Reg);
  }
  E.GuestPc = Pc;
  rules::emitRule(*R, B, E);
  for (size_t K = 0; K < Consumed; ++K) {
    const uint16_t Writes = arm::regsWritten(Order[Idx + K]);
    for (unsigned Reg = 0; Reg < 15; ++Reg)
      if (Writes & (1u << Reg))
        markWritten(Reg);
  }
  if (R->DefinesFlags)
    noteFlagsDefined();
  if (GuardJcc >= 0)
    E.patchHere(GuardJcc);
  Stats.RuleCoveredInstrs += Consumed;
  Idx += Consumed;
}

void BlockEmitter::emitFallback(const Inst &I, uint32_t Pc) {
  // The emulate helper re-checks the condition itself and reads/writes
  // env, so this is a full coordination bracket (Fig. 6).
  if (I.usesFlags())
    flagRestoreForUse(); // ensure host flags current before saving
  syncSaveForHelper(Pc);
  E.GuestPc = Pc;
  const CostClass Saved = E.setClass(CostClass::Helper);
  E.callHelper(dbt::HelperEmulate);
  E.setClass(Saved);
  ++Stats.FallbackInstrs;

  if (I.endsBlock()) {
    // Helper set the continuation PC (svc/eret/wfi/udf all exit).
    E.setClass(CostClass::Glue);
    E.exitTb(host::ExitReason::Lookup);
    E.setClass(Saved);
    Ended = true;
    return;
  }
  // Reload registers the helper may have written; flags now live in env.
  const uint16_t Writes = arm::regsWritten(I);
  if (Writes) {
    const CostClass S2 = E.setClass(CostClass::Sync);
    for (unsigned R = 0; R < 15; ++R)
      if (Writes & (1u << R)) {
        E.ldEnv(static_cast<uint8_t>(R), sys::envSlotReg(R));
        Resident |= 1u << R;
        Dirty &= ~(1u << R);
      }
    E.setClass(S2);
  }
  if (I.definesFlags()) {
    FlagsValid = false;
    FlagsDirty = false;
  }
  flagRestoreAfterClobber();
}

void BlockEmitter::emitMemSingle(const Inst &I, uint32_t Pc) {
  syncSaveForMem();

  int GuardJcc = -1;
  if (I.C != Cond::AL && I.C != Cond::NV) {
    flagRestoreForUse();
    GuardJcc =
        E.jcc(host::hcondFromArm(static_cast<uint8_t>(arm::invert(I.C))));
  }

  unsigned Size = 4;
  if (I.Op == Opcode::LDRB || I.Op == Opcode::STRB)
    Size = 1;
  else if (I.Op == Opcode::LDRH || I.Op == Opcode::STRH)
    Size = 2;

  E.GuestPc = Pc;

  // Offset math onto a register: Dst += / -= offset.
  const auto ApplyOffset = [&](uint8_t Dst) {
    if (I.RegOffset) {
      ensureResident(I.Op2.Rm);
      if (I.Op2.ShiftImm == 0 && I.Op2.Shift == arm::ShiftKind::LSL) {
        E.alu(I.AddOffset ? HOp::Add : HOp::Sub, Dst, I.Op2.Rm);
        return;
      }
      // Shifted register offset via t0 (free until the probe runs).
      E.movRR(host::ScratchReg0, I.Op2.Rm);
      HOp ShiftOp = HOp::Shl;
      switch (I.Op2.Shift) {
      case arm::ShiftKind::LSL: ShiftOp = HOp::Shl; break;
      case arm::ShiftKind::LSR: ShiftOp = HOp::Shr; break;
      case arm::ShiftKind::ASR: ShiftOp = HOp::Sar; break;
      case arm::ShiftKind::ROR: ShiftOp = HOp::Ror; break;
      }
      E.aluI(ShiftOp, host::ScratchReg0, I.Op2.ShiftImm);
      E.alu(I.AddOffset ? HOp::Add : HOp::Sub, Dst, host::ScratchReg0);
      return;
    }
    if (I.Imm12 != 0)
      E.aluI(I.AddOffset ? HOp::Add : HOp::Sub, Dst, I.Imm12);
  };

  // Effective access address into t2: base for post-indexed forms,
  // base +/- offset for pre-indexed ones.
  const uint8_t Addr = host::ScratchReg2;
  const uint8_t Base = readReg(I.Rn, Pc, Addr);
  if (Base != Addr)
    E.movRR(Addr, Base);
  if (I.PreIndexed)
    ApplyOffset(Addr);

  // Writeback before the transfer (interpreter commit order: a loaded
  // rd == rn wins).
  if ((!I.PreIndexed || I.Writeback) && I.Rn != arm::RegPC) {
    ensureResident(I.Rn);
    if (I.PreIndexed)
      E.movRR(I.Rn, Addr);
    else
      ApplyOffset(I.Rn);
    markWritten(I.Rn);
  }

  if (I.isLoad() && I.Rd == arm::RegPC) {
    dbt::emitInlineAccess(E, Addr, host::ScratchReg0, 4, true);
    E.setClass(CostClass::Glue);
    E.aluI(HOp::And, host::ScratchReg0, ~1u);
    E.stEnv(sys::envSlotReg(15), host::ScratchReg0);
    E.setClass(CostClass::User);
    if (GuardJcc >= 0)
      E.patchHere(GuardJcc);
    if (Opt.TrackFlagState)
      FlagsValid = false;
    emitLookupExit();
    return;
  }

  if (I.isLoad()) {
    dbt::emitInlineAccess(E, Addr, static_cast<uint8_t>(I.Rd),
                          static_cast<uint8_t>(Size), true);
    markWritten(I.Rd);
  } else {
    // Stores of PC are vanishingly rare; keep rule-mode simple by going
    // through the pinned registers only (readReg synthesizes PC into t0,
    // which the probe would clobber, so use t2-free ordering: the probe
    // preserves everything but t0/t1 and the data register is read at
    // the probe's store; synthesize PC data after the address).
    uint8_t Data;
    if (I.Rd == arm::RegPC) {
      Data = host::ScratchReg0;
      // The probe clobbers t0, so a PC store takes the helper path via
      // the fallback instead.
      emitFallbackStorePc(I, Pc, GuardJcc);
      return;
    }
    ensureResident(I.Rd);
    Data = static_cast<uint8_t>(I.Rd);
    dbt::emitInlineAccess(E, Addr, Data, static_cast<uint8_t>(Size),
                          false);
  }

  if (GuardJcc >= 0)
    E.patchHere(GuardJcc);
  flagRestoreAfterClobber();
}

void BlockEmitter::emitFallbackStorePc(const Inst &I, uint32_t Pc,
                                       int GuardJcc) {
  // str pc, [...] — close the guard and defer to the emulate helper.
  if (GuardJcc >= 0)
    E.patchHere(GuardJcc);
  flagRestoreAfterClobber();
  Inst Copy = I;
  Copy.C = Cond::AL; // the guard already ran; helper re-checks AL
  emitFallback(Copy, Pc);
}

void BlockEmitter::emitBlockTransfer(const Inst &I, uint32_t Pc) {
  syncSaveForMem();
  int GuardJcc = -1;
  if (I.C != Cond::AL && I.C != Cond::NV) {
    flagRestoreForUse();
    GuardJcc =
        E.jcc(host::hcondFromArm(static_cast<uint8_t>(arm::invert(I.C))));
  }

  unsigned Count = 0;
  for (unsigned R = 0; R < 16; ++R)
    Count += (I.RegList >> R) & 1;

  ensureResident(I.Rn);
  const uint8_t Addr = host::ScratchReg2;
  E.GuestPc = Pc;
  E.movRR(Addr, I.Rn);
  switch (I.BMode) {
  case arm::BlockMode::IA: break;
  case arm::BlockMode::IB: E.aluI(HOp::Add, Addr, 4); break;
  case arm::BlockMode::DA: E.aluI(HOp::Sub, Addr, 4 * Count - 4); break;
  case arm::BlockMode::DB: E.aluI(HOp::Sub, Addr, 4 * Count); break;
  }

  bool LoadsPc = false;
  for (unsigned R = 0; R < 16; ++R) {
    if (!(I.RegList & (1u << R)))
      continue;
    if (I.Op == Opcode::LDM) {
      if (R == 15) {
        dbt::emitInlineAccess(E, Addr, host::ScratchReg0, 4, true);
        LoadsPc = true;
      } else {
        dbt::emitInlineAccess(E, Addr, static_cast<uint8_t>(R), 4, true);
        markWritten(R);
      }
    } else {
      const uint8_t Data = readReg(R, Pc, host::ScratchReg0);
      dbt::emitInlineAccess(E, Addr, Data, 4, false);
    }
    E.aluI(HOp::Add, Addr, 4);
  }

  if (I.Writeback && !(I.Op == Opcode::LDM && (I.RegList & (1u << I.Rn)))) {
    const bool Up =
        I.BMode == arm::BlockMode::IA || I.BMode == arm::BlockMode::IB;
    ensureResident(I.Rn);
    E.aluI(Up ? HOp::Add : HOp::Sub, I.Rn, 4 * Count);
    markWritten(I.Rn);
  }

  if (LoadsPc) {
    E.setClass(CostClass::Glue);
    E.aluI(HOp::And, host::ScratchReg0, ~1u);
    E.stEnv(sys::envSlotReg(15), host::ScratchReg0);
    E.setClass(CostClass::User);
    if (GuardJcc >= 0)
      E.patchHere(GuardJcc);
    FlagsValid = Opt.TrackFlagState ? false : FlagsValid;
    emitLookupExit();
    return;
  }
  if (GuardJcc >= 0)
    E.patchHere(GuardJcc);
  flagRestoreAfterClobber();
}

void BlockEmitter::emitBranch(const Inst &I, uint32_t Pc) {
  const uint32_t Target = Pc + 8 + static_cast<uint32_t>(I.BranchOffset);
  const bool Conditional = I.C != Cond::AL && I.C != Cond::NV;

  if (!Conditional) {
    if (I.Op == Opcode::BX) {
      ensureResident(I.Rm);
      E.setClass(CostClass::Glue);
      E.movRR(host::ScratchReg0, I.Rm);
      E.aluI(HOp::And, host::ScratchReg0, ~1u);
      E.stEnv(sys::envSlotReg(15), host::ScratchReg0);
      E.setClass(CostClass::User);
      emitLookupExit();
      return;
    }
    if (I.Op == Opcode::BL) {
      E.movRI(14, Pc + 4);
      markWritten(14);
    }
    emitChainExit(Target);
    return;
  }

  flagRestoreForUse();
  const int TakenJcc =
      E.jcc(host::hcondFromArm(static_cast<uint8_t>(I.C)));
  // Fallthrough exit first (state snapshot shared by both paths).
  emitChainExit(Pc + 4);
  E.patchHere(TakenJcc);
  Ended = false;
  if (I.Op == Opcode::BX) {
    ensureResident(I.Rm); // note: load happens on the taken path only
    E.setClass(CostClass::Glue);
    E.movRR(host::ScratchReg0, I.Rm);
    E.aluI(HOp::And, host::ScratchReg0, ~1u);
    E.stEnv(sys::envSlotReg(15), host::ScratchReg0);
    E.setClass(CostClass::User);
    emitLookupExit();
    return;
  }
  if (I.Op == Opcode::BL) {
    E.movRI(14, Pc + 4);
    markWritten(14);
  }
  emitChainExit(Target);
}

void BlockEmitter::emitInstr(size_t &Idx) {
  const Inst &I = Order[Idx];
  const uint32_t Pc = Pcs[Idx];
  if (I.Op == Opcode::NOP) {
    ++Idx;
    return;
  }
  if (I.Op == Opcode::B || I.Op == Opcode::BL || I.Op == Opcode::BX) {
    emitBranch(I, Pc);
    ++Idx;
    return;
  }
  if (!I.isValid() || I.isSystemLevel() ||
      needsHelper(I, Rules, &Stats.Matches)) {
    // A valid computation instruction falling back here is a *rule miss*
    // — the raw material of the offline learning loop.
    if (I.isValid() && !I.isSystemLevel() && Stats.gapMiner())
      Stats.gapMiner()->recordMiss(&Order[Idx], Order.size() - Idx, Pc);
    emitFallback(I, Pc);
    ++Idx;
    return;
  }
  if (I.isLoadStoreSingle()) {
    emitMemSingle(I, Pc);
    ++Idx;
    return;
  }
  if (I.Op == Opcode::LDM || I.Op == Opcode::STM) {
    emitBlockTransfer(I, Pc);
    ++Idx;
    return;
  }
  emitRuleApp(Idx);
}

void BlockEmitter::run() {
  Out.GuestPc = GB.StartPc;
  Out.NumGuestInstrs = static_cast<uint32_t>(GB.Insts.size());
  Out.NumIrqChecks = 1;
  for (const Inst &I : GB.Insts) {
    if (I.isMemAccess())
      ++Out.NumMemInstrs;
    if (I.isSystemLevel())
      ++Out.NumSysInstrs;
  }

  schedule();
  Out.DefinesFlagsBeforeUse = computeDefinesFlagsBeforeUse();
  for (const Inst &I : Order)
    TbTouchesFlags = TbTouchesFlags || I.definesFlags() || I.usesFlags();

  size_t Idx = 0;
  while (Idx < Order.size() && !Ended) {
    if (Idx == IrqCheckPos)
      emitIrqCheck(Pcs[Idx], /*AtTbHead=*/Idx == 0);
    emitInstr(Idx);
  }
  if (IrqCheckPos >= Order.size() && IrqExitJcc < 0) {
    // Degenerate: scheduling pushed the check past the end (cannot
    // happen today; guard for future schedulers).
    emitIrqCheck(GB.StartPc, /*AtTbHead=*/false);
  }
  if (!Ended)
    emitChainExit(GB.endPc());

  // Interrupt exit stub: store the registers dirty at the check point,
  // record the interrupted PC and leave through the interrupt exit.
  assert(IrqExitJcc >= 0 && "TB without an interrupt check");
  E.patchHere(IrqExitJcc);
  storeDirtyRegs(IrqExitDirty);
  E.setClass(CostClass::Glue);
  E.stEnvI(sys::envSlotReg(15), IrqExitPc);
  E.exitTb(host::ExitReason::Interrupt);
}

void RuleTranslator::translate(const dbt::GuestBlock &GB,
                               host::HostBlock &Out) {
  // Sample the session matcher counters around the block so the per-block
  // outcome can be reported without threading state through the emitter.
  const uint64_t AttemptsBefore = Matches.Attempts;
  const uint64_t HitsBefore = Matches.Hits;
  BlockEmitter BE(GB, Rules, Opt, Out, *this);
  BE.run();
  const uint64_t Attempts = Matches.Attempts - AttemptsBefore;
  const uint64_t Hits = Matches.Hits - HitsBefore;
  RDBT_TRACE(Sink_, obs::EventKind::RuleMatch, GB.StartPc, Hits,
             Attempts - Hits);
  if (MatchAttemptsHist_)
    MatchAttemptsHist_->record(Attempts);
}

bool RuleTranslator::allowChainFlagElision(const host::HostBlock &,
                                           const host::HostBlock &To) const {
  return Opt.InterTb && To.DefinesFlagsBeforeUse;
}

void RuleTranslator::noteFallbackExecuted(uint32_t GuestPc) {
  if (Miner)
    Miner->noteExecution(GuestPc);
}

void RuleTranslator::setObs(obs::TraceSink *Sink, obs::Metrics *M) {
  Sink_ = Sink;
  MatchAttemptsHist_ = M ? &M->histogram(obs::metric::MatchAttempts) : nullptr;
}
