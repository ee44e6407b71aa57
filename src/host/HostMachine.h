//===- host/HostMachine.h - Simulated host CPU ------------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes generated host code (\ref HostBlock) with exact per-category
/// instruction accounting. This is the stand-in for the real x86 the paper
/// runs on: every reported metric (host instructions per guest
/// instruction, sync instructions, wall cycles for speedups) is counted
/// here, not estimated.
///
/// The machine follows resolved chain slots directly from TB to TB (block
/// chaining), charges helper calls with the cost the helper reports, and
/// carries the wall-clock deadline of the device model so interrupts
/// arrive asynchronously while translated code runs.
///
/// It executes each block's Code as the translator emitted it. Two ops
/// there stand for several host instructions: a Probe and a CoordRun
/// header are charged in bulk unless a device deadline or the runaway
/// guard lands inside them, and then one instruction at a time, so every
/// count, and the cycle at which onWall fires, is what the instructions
/// would give one by one.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_HOST_HOSTMACHINE_H
#define RDBT_HOST_HOSTMACHINE_H

#include "host/HostInst.h"
#include "support/Cond.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace rdbt {
namespace host {

/// Guest RAM as the inline probe's hit path sees it: one host pointer per
/// 4 KiB page (implemented by the DBT engine over the platform RAM). The
/// TLB tags whole RAM pages only, so a hit never reaches MMIO or a hole
/// past the end of RAM.
class PhysPort {
public:
  enum : uint32_t { PageShift = 12, PageMask = (1u << PageShift) - 1 };

  PhysPort(const uint8_t *const *Read, uint8_t *const *Write, uint32_t N)
      : ReadPages(Read), WritePages(Write), NumPages(N) {}
  virtual ~PhysPort();

  /// Every page's bytes, read in place.
  const uint8_t *const *const ReadPages;
  /// A page's bytes while a store may write them in place; null while the
  /// page is shared or its stores are watched, and then a store goes
  /// through write().
  uint8_t *const *const WritePages;
  const uint32_t NumPages;

  /// The store slow path: privatizes the page or records the store first.
  virtual void write(uint32_t Pa, unsigned Size, uint32_t Value) = 0;
};

/// Helper-function dispatch interface (implemented by the DBT engine).
class HelperHandler {
public:
  struct Outcome {
    bool Exit = false;             ///< leave the code cache
    ExitReason Reason = ExitReason::Lookup;
    uint64_t Cost = 0;             ///< host-instruction-equivalent cost
    bool HasResult = false;
    uint32_t Result = 0;
  };

  virtual ~HelperHandler();
  virtual Outcome call(uint16_t HelperId, uint32_t A0, uint32_t A1,
                       uint32_t GuestPc) = 0;
};

/// Wall-clock event sink: called when execution crosses the next device
/// deadline; returns the new next deadline (~0ull if none).
class WallSink {
public:
  virtual ~WallSink();
  virtual uint64_t onWall(uint64_t Now) = 0;
};

/// Read-only view of translated blocks, for chain following.
class CodeSource {
public:
  virtual ~CodeSource();
  virtual const HostBlock *block(int TbId) const = 0;
};

/// Execution counters, attributed by CostClass.
struct ExecCounters {
  uint64_t Wall = 0; ///< total host cost (cycles == host instructions)
  uint64_t ByClass[NumCostClasses] = {};
  uint64_t SyncOps = 0;      ///< coordination operations (SyncOp markers)
  uint64_t GuestInstrs = 0;  ///< guest instructions retired via TB entries
  uint64_t GuestMemInstrs = 0; ///< Table I: memory-access instructions
  uint64_t GuestSysInstrs = 0; ///< Table I: system-level instructions
  uint64_t IrqChecks = 0;      ///< Table I: interrupt checks executed
  uint64_t TbEntries = 0;    ///< TB executions (entries + chain follows)
  uint64_t ChainFollows = 0;
  uint64_t HelperCalls = 0;
};

/// Result of one run() — why control returned to the engine.
struct RunResult {
  ExitReason Reason = ExitReason::Lookup;
  uint32_t NextPc = 0;   ///< NeedTranslate: the guest PC to translate
  int FromTb = -1;       ///< NeedTranslate: TB owning the chain slot
  int FromChainSlot = 0; ///< NeedTranslate: which slot to patch
};

class HostMachine {
public:
  /// \p EnvWords is the CpuEnv viewed as a word array; generated code
  /// addresses it by slot. The TLB layout constants are passed explicitly
  /// so this module stays independent of sys/.
  HostMachine(uint32_t *EnvWords, uint32_t EnvSize, PhysPort &Mem,
              HelperHandler &Helpers, WallSink &Wall, uint16_t MmuIdxSlot,
              uint32_t TlbBaseSlot, uint32_t TlbEntryWords,
              uint32_t TlbHalfEntries);

  /// Runs translated code from \p StartTb until an exit.
  RunResult run(const CodeSource &Src, int StartTb);

  uint32_t reg(unsigned R) const { return R_[R]; }
  void setReg(unsigned R, uint32_t V) { R_[R] = V; }
  /// Packed NZCV (bits 31:28) of the host flags.
  uint32_t packedFlags() const;
  void setPackedFlags(uint32_t Nzcv);

  ExecCounters Counters;
  /// Next wall deadline; execution calls WallSink::onWall when crossed.
  uint64_t NextDeadline = ~0ull;
  /// Abort knob for runaway translated code (host instructions).
  uint64_t MaxInstrsPerRun = ~0ull;
  /// When non-null, per-TB entry counts (indexed by TB id, grown on
  /// demand) for the hot-block profiler. Never touches Counters, so the
  /// simulated totals are identical with or without it.
  std::vector<uint64_t> *TbExecs = nullptr;

private:
  uint32_t R_[NumHostRegs] = {};
  bool FN = false, FZ = false, FC = false, FV = false;

  uint32_t *Env;
  uint32_t EnvSize;
  PhysPort &Mem;
  HelperHandler &Helpers;
  WallSink &Wall;
  uint16_t MmuIdxSlot;
  uint32_t TlbBaseSlot, TlbEntryWords, TlbHalfEntries;

  void charge(const HInst &H, uint64_t Cost);
  /// A coordination instruction's effect (a SyncOp marker has none).
  void applyCoordination(const HInst &H) {
    assert(H.Slot < EnvSize && "env slot out of range");
    switch (H.Op) {
    case HOp::LdEnv: R_[H.Dst] = Env[H.Slot]; break;
    case HOp::StEnv: Env[H.Slot] = R_[H.Src]; break;
    case HOp::StEnvI: Env[H.Slot] = static_cast<uint32_t>(H.Imm); break;
    case HOp::PackF: R_[H.Dst] = packedFlags(); break;
    case HOp::UnpackF: setPackedFlags(R_[H.Dst]); break;
    default: break;
    }
  }
  bool coordStepwise(const HInst *Run, unsigned N, uint64_t &Executed);
  void probeAccess(const HInst &H);
  enum class ProbeEnd { Hit, Miss, Runaway };
  ProbeEnd probeStepwise(const HInst &H, uint64_t &Executed);
  bool holds(HCond Cc) const {
    return condHolds(static_cast<unsigned>(Cc), nzcvNibble(FN, FZ, FC, FV));
  }
  uint32_t aluOperand(const HInst &H) const {
    return H.UseImm ? static_cast<uint32_t>(H.Imm) : R_[H.Src];
  }
  uint32_t tlbWord(uint32_t Index, uint32_t FieldWord) const;
};

} // namespace host
} // namespace rdbt

#endif // RDBT_HOST_HOSTMACHINE_H
