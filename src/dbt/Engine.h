//===- dbt/Engine.h - System-level DBT execution engine ---------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system-level DBT engine — the emulator-side half ("QEMU") of the
/// paper's picture. It owns the code cache, drives translation, delivers
/// interrupts and exceptions between TB executions, implements the helper
/// functions generated code calls (slow-path memory access, instruction
/// emulation), handles WFI sleep, and charges the emulator-to-code-cache
/// entry stub that the rule-based translator's CPU-state coordination
/// revolves around (Path 2 in the paper's Fig. 1).
///
/// Both translators run under this same engine, so every measured
/// difference between them comes from the code they generate.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_ENGINE_H
#define RDBT_DBT_ENGINE_H

#include "dbt/CodeCache.h"
#include "dbt/Translator.h"
#include "host/HostMachine.h"
#include "obs/Metrics.h"
#include "obs/TraceSink.h"
#include "sys/Interpreter.h"
#include "sys/Mmu.h"
#include "sys/Platform.h"

#include <memory>

namespace rdbt {
namespace dbt {

class TranslationStore;

/// Why DbtEngine::run returned.
enum class StopReason : uint8_t {
  GuestShutdown, ///< the guest wrote the shutdown register
  WallLimit,     ///< the wall-cycle budget was exhausted
  Deadlock,      ///< WFI with no pending event and no future deadline
  Runaway,       ///< per-run host instruction guard tripped
};

/// Human-readable stop-reason label ("guest shutdown", "wall limit", ...).
const char *toString(StopReason R);

/// Engine-side statistics (the host machine keeps the instruction-level
/// counters; see host::ExecCounters).
struct EngineStats {
  uint64_t Translations = 0;
  uint64_t TranslatedGuestInstrs = 0;
  uint64_t IrqsDelivered = 0;
  uint64_t GuestExceptions = 0;
  uint64_t CacheEntries = 0; ///< emulator-to-code-cache transitions
  uint64_t WfiSleeps = 0;
};

class DbtEngine final : public host::HelperHandler, public host::WallSink {
public:
  DbtEngine(sys::Platform &Board, Translator &Xlat);

  /// Runs the guest from the current env state until shutdown or until
  /// \p MaxWallCycles of emulation cost have accumulated.
  StopReason run(uint64_t MaxWallCycles);

  const host::ExecCounters &counters() const { return Machine.Counters; }

  /// Caps host instructions per code-cache stint; exceeding it makes
  /// run() return StopReason::Runaway (the guard behind untrusted or
  /// experimental translators).
  void setRunawayGuard(uint64_t MaxHostInstrsPerRun) {
    Machine.MaxInstrsPerRun = MaxHostInstrsPerRun;
  }

  /// Restores the host-machine counters captured in a vm::Snapshot, so a
  /// forked session's cumulative counters continue exactly where the
  /// captured session stopped (bitwise-identical to never having forked).
  /// Call before the first run(); the wall budget is relative, so the
  /// restored Wall does not eat into it.
  void restoreCounters(const host::ExecCounters &C) { Machine.Counters = C; }

  /// Attaches a persistent-cache store (dbt/CodeCacheIo.h). On every
  /// translation miss the engine consults it first: a stored block whose
  /// recorded guest words still match guest memory is inserted instead of
  /// translating (counted in CacheStats::LoadedTbs, *not* in
  /// Stats.Translations). Lazy by design — a boot-time full flush merely
  /// drops the seeded blocks, and the store re-seeds them on the next
  /// miss, so warm runs stay count-identical to cold ones.
  void setTranslationStore(std::shared_ptr<const TranslationStore> S) {
    Store_ = std::move(S);
  }
  const std::shared_ptr<const TranslationStore> &translationStore() const {
    return Store_;
  }

  /// When on, the engine keeps a pristine copy of every block it inserts
  /// (translated or store-seeded), keyed like the cache, newest per key.
  /// This is what the persistent-cache save serializes: unlike the live
  /// cache it still holds blocks the boot-time flush discarded, so the
  /// file covers the *whole* session and a warm boot translates nothing.
  /// A translated block is copied, a store-seeded one is the store's own
  /// pointer; neither is a live block, so retaining never raises a live
  /// block's use_count and chain-patch COW behavior is unchanged.
  void setRetainForSave(bool On) { RetainForSave_ = On; }
  const BlockMap &retainedForSave() const { return Retained_; }

  /// Wires the session's observability hooks through the whole engine
  /// stack: the trace sink reaches the code cache and the translator, the
  /// metrics registry gets the engine-side histograms registered (and
  /// their addresses cached, so the hot paths never do a name lookup).
  /// Null pointers detach — the disabled state every session starts in.
  void setObs(obs::TraceSink *Sink, obs::Metrics *M);

  /// Turns on per-TB execution counting in the host machine (the
  /// hot-block profiler's raw data; see Vm::hotBlocks). Counts index by
  /// TB id and never feed any simulated counter.
  void enableTbExecProfile() { Machine.TbExecs = &TbExecs_; }
  const std::vector<uint64_t> &tbExecCounts() const { return TbExecs_; }

  /// Enables/disables the fallback interpreter's decoded-instruction
  /// cache (VmConfig ",ifp="). Guest-invisible either way; see
  /// sys::Interpreter::setFastpath.
  void setInterpFastpath(bool On) { Interp.setFastpath(On); }

  /// The fallback interpreter, exposed for its decode-cache
  /// observability counters (RunReport::InterpDecode*).
  const sys::Interpreter &interp() const { return Interp; }

  EngineStats Stats;
  sys::Mmu &mmu() { return Mmu_; }
  CodeCache &codeCache() { return Cache; }
  sys::Platform &board() { return Board; }

  // host::HelperHandler: the generated code's helper functions.
  Outcome call(uint16_t HelperId, uint32_t A0, uint32_t A1,
               uint32_t GuestPc) override;

  // host::WallSink: device clock service.
  uint64_t onWall(uint64_t Now) override;

private:
  /// The platform RAM's page pointers, with PhysMem::write as the store
  /// slow path (a probe hit reaches RAM only).
  class RamPort final : public host::PhysPort {
  public:
    explicit RamPort(sys::PhysMem &M)
        : PhysPort(M.readPointers(), M.writePointers(), M.numPages()),
          Ram(M) {}
    void write(uint32_t Pa, unsigned Size, uint32_t Value) override {
      Ram.write(Pa, Size, Value);
    }

  private:
    sys::PhysMem &Ram;
  };

  sys::Platform &Board;
  Translator &Xlat;
  sys::Mmu Mmu_;
  sys::Interpreter Interp;
  CodeCache Cache;
  RamPort Port;
  host::HostMachine Machine;
  std::shared_ptr<const TranslationStore> Store_;
  bool RetainForSave_ = false;
  /// Observability hooks (owned by vm::Vm, null when disabled) and the
  /// engine-side histograms cached at setObs time.
  obs::TraceSink *Sink_ = nullptr;
  obs::Metrics *Metrics_ = nullptr;
  obs::Histogram *TranslateNsHist_ = nullptr;
  obs::Histogram *GuestBlockLenHist_ = nullptr;
  obs::Histogram *ChainDepthHist_ = nullptr;
  /// Per-TB entry counts when enableTbExecProfile() armed them.
  std::vector<uint64_t> TbExecs_;
  BlockMap Retained_;

  /// Translates the block at (Pc, current MmuIdx, current ASID); returns
  /// its TB id or -1 if the initial fetch faulted (a prefetch abort was
  /// delivered).
  int translateAt(uint32_t Pc);

  /// Applies the env's pending structured invalidation request (full /
  /// by-ASID / by-page) to the code cache and clears it.
  void drainInvalidationRequest();

  /// Copies env state into the pinned host registers and charges the
  /// translator's entry stub.
  void enterCodeCache();

  Outcome memHelper(unsigned Size, bool IsWrite, uint32_t Vaddr,
                    uint32_t Value, uint32_t GuestPc);
  Outcome emulateHelper(uint32_t GuestPc);
};

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_ENGINE_H
