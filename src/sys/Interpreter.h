//===- sys/Interpreter.h - ARM reference interpreter ------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The architectural reference interpreter. It serves three roles:
///
///  1. the golden model the differential tests compare both translators
///     against,
///  2. the emulation core behind the DBT "helper functions" that both
///     translators call for system-level instructions (the paper's QEMU
///     helper path), and
///  3. the "native execution" stand-in for Fig. 18 (one guest instruction
///     = one native cycle).
///
/// Execution no longer re-decodes every word on every visit: a per-page
/// decoded-instruction cache (DESIGN.md §14) memoizes (raw word →
/// handler group + decoded operands) records lazily on first execution,
/// and a function-pointer dispatch table replaces the decode-then-switch
/// path for cached pages. The cache is host-side only — fetches still go
/// through the MMU (so TLB statistics and faults are unchanged) and the
/// guest-visible counters are bit-identical with the fastpath on or off;
/// only host wall time and the DecodeHits/DecodeMisses observability
/// counters move. Invalidation rides the TbInvKind pipeline (Env.h), and
/// the cache is rebuilt from scratch after snapshot capture/fork.
///
/// The fetch under it does not walk the page tables each step either:
/// Mmu::fetchWord memoizes Execute translations keyed by (page, TTBR0,
/// MmuIdx). That memo cannot ride the TbInvKind pipeline, because a guest
/// page-table store raises no request and the model has no I-TLB to hide
/// it; it is voided by write marks on the pages walks read instead
/// (sys/Mmu.h). The word itself is still read on every step, so the
/// RawWord check above sees every store.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_SYS_INTERPRETER_H
#define RDBT_SYS_INTERPRETER_H

#include "arm/Decoder.h"
#include "arm/Isa.h"
#include "sys/Env.h"
#include "sys/Mmu.h"
#include "sys/Platform.h"

#include <memory>

namespace rdbt {

namespace obs {
struct Histogram;
} // namespace obs

namespace sys {

/// Outcome of executing one instruction.
enum class StepKind : uint8_t {
  Ok,        ///< retired; Regs[15] advanced (possibly a taken branch)
  Exception, ///< an exception was delivered; Regs[15] is the vector
  Halt,      ///< WFI executed; Env.Halted is set
};

class Interpreter {
public:
  Interpreter(CpuEnv &E, Mmu &M, Platform &P)
      : Env(E), Mem(M), Board(P) {}

  /// Fetches, decodes (through the decoded-instruction cache when the
  /// fastpath is on) and executes the instruction at Regs[15].
  StepKind step();

  /// Like step(), but for an explicit \p Pc (the DBT fallback entry). On a
  /// successful fetch, \p DefinesFlags (when non-null) is set to whether
  /// the executed instruction architecturally writes NZCV — callers use it
  /// to decide whether to re-pack deferred condition codes. It stays false
  /// on a fetch fault (no instruction was decoded).
  StepKind stepAt(uint32_t Pc, bool *DefinesFlags = nullptr);

  /// Executes a pre-decoded instruction sitting at \p Pc (Regs[15] is set
  /// to \p Pc first). Used by the DBT helper path and the tests.
  StepKind execute(const arm::Inst &I, uint32_t Pc);

  /// Delivers a pending enabled IRQ if the core state allows it. Returns
  /// true if the exception was taken. Wakes a halted core.
  bool maybeTakeIrq();

  /// Enables/disables the decoded-instruction cache (on by default). With
  /// the fastpath off every step decodes the fetched word from scratch —
  /// the pre-cache behavior, kept for A/B ablation via VmConfig ",ifp=".
  void setFastpath(bool On) { FastpathOn = On; }
  bool fastpath() const { return FastpathOn; }

  /// Optional wall-clock histogram for the decode/lookup phase of each
  /// step ("decode_ns"). Null (the default) disables timing entirely so
  /// untraced runs never touch the clock.
  void setDecodeNsHistogram(obs::Histogram *H) { DecodeNs = H; }

  /// Drops decoded-instruction cache pages in the architectural scope of
  /// a TB invalidation request (TbInvFull / TbInvAsid / TbInvPage). The
  /// interpreter calls this itself when it raises a request, and the DBT
  /// engine calls it when draining one (covering requests carried in by a
  /// restored snapshot). Scopes mirror the code-cache drop: a page-scoped
  /// request drops the page across all ASIDs.
  void onTbInvalidate(uint32_t Kind, uint32_t Asid, uint32_t Page);

  uint64_t InstrsRetired = 0;

  /// Decoded-instruction cache observability. Host-side only: never part
  /// of the simulated machine state, never compared by the perf gate, and
  /// forked VMs restart them at zero (the cache is scrubbed on fork).
  uint64_t DecodeHits = 0;
  uint64_t DecodeMisses = 0;
  uint64_t DecodePagesDropped = 0; ///< cache pages dropped by invalidation

private:
  CpuEnv &Env;
  Mmu &Mem;
  Platform &Board;

  /// One pre-decoded record: the raw word it was decoded from, the
  /// decoded operands, and the handler group + flags-effect metadata the
  /// dispatch loop needs without touching the decoder again. RawWord is
  /// the staleness check: a hit re-fetches through the MMU (preserving
  /// TLB behavior) and any mismatch re-decodes, so even an invalidation
  /// gap cannot execute stale operands.
  struct DecodedInst {
    arm::Inst I;
    uint32_t RawWord = 0;
    arm::ExecGroup Group = arm::ExecGroup::Invalid;
    bool Valid = false;
    bool DefinesFlags = false;
  };

  /// A direct-mapped cache slot covering one 4 KiB guest code page.
  /// Lookup keys on (page VA, MmuIdx) only — deliberately coarser than
  /// the code cache's (PC, MmuIdx, ASID) TB keys. A TB embeds translated
  /// code and must key precisely; a decode record is revalidated against
  /// the freshly fetched word on every hit, so an ASID switch that maps
  /// the same bytes at the same VA (the shared kernel image) keeps its
  /// records, and one that maps different bytes just misses. Asid is
  /// invalidation-scope metadata (the ASID the slot was last consulted
  /// under), not part of the lookup key.
  struct DecodePage {
    static constexpr uint32_t EmptyTag = ~0u;
    uint32_t PageVa = EmptyTag; ///< page-aligned VA; EmptyTag = unused
    uint32_t MmuIdx = 0;
    uint32_t Asid = 0;
    std::unique_ptr<DecodedInst[]> Records; ///< WordsPerPage entries
  };

  static constexpr uint32_t DecodePageBytes = 4096; // MMU page granule
  static constexpr uint32_t WordsPerPage = DecodePageBytes / 4;
  static constexpr uint32_t NumDecodePages = 16; // direct-mapped slots

  bool FastpathOn = true;
  obs::Histogram *DecodeNs = nullptr;
  DecodePage DecodePages[NumDecodePages];

  /// The cache record for \p Pc holding \p Word, decoding on miss.
  DecodedInst &recordFor(uint32_t Pc, uint32_t Word);

  /// Raises a TB invalidation request in Env and synchronously drops the
  /// decode-cache pages in its scope (the interpreter is the only raiser,
  /// so self-scrubbing at the raise site keeps the cache exact even when
  /// no engine ever drains the request — the pure-interpreter run mode).
  void raiseTbInvalidate(uint32_t Kind, uint32_t Asid = 0,
                         uint32_t Page = 0);

  bool conditionHolds(arm::Cond C);
  uint32_t readReg(unsigned R, uint32_t Pc);
  /// Evaluates operand 2; \p ShifterCarry starts as the current C flag and
  /// is updated per the ARM shifter rules.
  uint32_t evalOperand2(const arm::Inst &I, uint32_t Pc,
                        bool &ShifterCarry);

  StepKind execDataProcessing(const arm::Inst &I, uint32_t Pc);
  StepKind execMultiply(const arm::Inst &I, uint32_t Pc);
  StepKind execLoadStore(const arm::Inst &I, uint32_t Pc);
  StepKind execBlockTransfer(const arm::Inst &I, uint32_t Pc);
  StepKind execBranch(const arm::Inst &I, uint32_t Pc);
  StepKind execSystem(const arm::Inst &I, uint32_t Pc);

  /// Retires \p I via the handler table indexed by \p G — the threaded
  /// dispatch shared by cache hits (group read from the record) and
  /// misses (group computed by arm::execGroupOf).
  StepKind executeGrouped(const arm::Inst &I, arm::ExecGroup G,
                          uint32_t Pc);

  using ExecFn = StepKind (Interpreter::*)(const arm::Inst &, uint32_t);
  static const ExecFn ExecTable[arm::NumExecGroups];

  StepKind dataAbort(const Fault &F, uint32_t Pc);
  StepKind undefined(uint32_t Pc);
  /// Writes \p Value to PC as a branch (bit 0 ignored; no mode change).
  StepKind branchTo(uint32_t Target);
  /// Exception return: PC := Target, CPSR := SPSR of the current mode.
  StepKind exceptionReturn(uint32_t Target, uint32_t Pc);
};

/// Result of running the interpreter as a whole-system executor.
struct SystemRunResult {
  bool Shutdown = false;   ///< guest powered off cleanly
  bool Deadlocked = false; ///< WFI with nothing to wake the core
  uint64_t InstrsRetired = 0;
  uint64_t DecodeHits = 0;   ///< decoded-instruction cache hits
  uint64_t DecodeMisses = 0; ///< decoded-instruction cache misses
};

/// Runs a platform purely under the interpreter until the guest shuts
/// down or \p MaxInstrs retire. The wall clock advances one cycle per
/// instruction, making this the "native execution" baseline of Fig. 18
/// and the golden model of the differential tests. \p Fastpath selects
/// the decoded-instruction cache (guest-invisible either way), and
/// \p DecodeNs, when non-null, receives per-step decode wall times.
SystemRunResult runSystemInterpreter(Platform &Board, uint64_t MaxInstrs,
                                     bool Fastpath = true,
                                     obs::Histogram *DecodeNs = nullptr);

} // namespace sys
} // namespace rdbt

#endif // RDBT_SYS_INTERPRETER_H
