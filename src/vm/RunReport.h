//===- vm/RunReport.h - Structured result of one Vm run ---------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything one Vm::run() measured, in one struct: the stop reason,
/// the host machine's exact execution counters, the engine-side
/// statistics, the translator's translation-time statistics, the guest
/// console output, and the derived per-guest-instruction ratios every
/// figure reproduction reports. Label/MetricKey carry the translator
/// kind's presentation metadata so JSON emission, EXPERIMENTS.md tables,
/// and test assertions all read the same struct.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_VM_RUNREPORT_H
#define RDBT_VM_RUNREPORT_H

#include "dbt/Engine.h"
#include "host/HostMachine.h"
#include "obs/Metrics.h"

#include <cstdint>
#include <string>

namespace rdbt {
namespace vm {

struct RunReport {
  /// Why the run ended. Ok is the common assertion: a clean guest
  /// power-off.
  dbt::StopReason Stop = dbt::StopReason::WallLimit;
  bool Ok = false;

  /// Non-empty when the session never ran (unknown kind/workload, corpus
  /// load failure, ...). Batch drivers surface this per matrix cell
  /// instead of aborting the whole sweep.
  std::string Error;

  /// The scenario that produced this report (VmConfig::toSpec()) plus
  /// the translator kind's table label and identifier-safe metric key.
  std::string Spec;
  std::string Label;
  std::string MetricKey;

  /// Guest console output (UART TX bytes).
  std::string Console;

  /// Observability results (src/obs/), populated only when
  /// VmConfig::trace armed the session; Enabled = false otherwise and
  /// every field stays zero. Informational by nature (host wall time
  /// feeds the histograms), so the bench JSON emits these as the
  /// obs_*-prefixed field family the perf gate waives by prefix.
  struct ObsStats {
    bool Enabled = false;
    uint64_t Events = 0;  ///< events recorded in the trace sink
    uint64_t Dropped = 0; ///< events past the sink cap (never silent)
    obs::Metrics Metrics; ///< named counters + log2 histograms
  };
  ObsStats Obs;

  /// True when this session was forked off a vm::Snapshot, plus the COW
  /// write-set it accumulated: guest RAM pages privatized by writes
  /// (PhysMem::cowPrivatePages()). Both are session provenance, not
  /// guest-visible state — excluded from bitwise identity checks.
  bool Forked = false;
  uint64_t CowPrivatePages = 0;

  /// Host-machine counters. For the native executor only Wall and
  /// GuestInstrs are meaningful (1 cycle per guest instruction).
  host::ExecCounters Counters;

  /// Engine-side statistics (all zero for the native executor).
  dbt::EngineStats Engine;

  /// Translation-cache behavior: flushes, selective invalidations,
  /// retained-vs-dropped blocks, retranslation cost, chain unlinking
  /// (all zero for the native executor).
  dbt::CacheStats Cache;

  /// Interpreter decoded-instruction cache behavior (DESIGN.md §14):
  /// cache hits and misses across the fallback path (DBT kinds) or every
  /// step (native kind). Always-on host-side observability — never part
  /// of simulated state, never perf-gated across configs (the bench JSON
  /// emits them as interp_* fields, waived by prefix in A/B gates), and
  /// not adopted across warm forks: a forked session restarts them at
  /// zero because its decode cache starts scrubbed.
  uint64_t InterpDecodeHits = 0;
  uint64_t InterpDecodeMisses = 0;

  /// Rule-translator translation statistics (zero for other kinds).
  uint64_t RuleCoveredInstrs = 0;
  uint64_t FallbackInstrs = 0;
  /// Rule-set pattern matcher statistics (zero for non-rule kinds).
  /// Counted per session by the session's translator
  /// (core::RuleTranslator::Matches), so they stay exact even when
  /// VmConfig::rules() shares one immutable RuleSet across concurrent
  /// sessions.
  uint64_t RuleMatchAttempts = 0;
  uint64_t RuleMatchHits = 0;

  /// Translation-gap profile (profile/GapMiner.h): populated only when
  /// VmConfig::gapMiner() attached a miner to a rule-translator session.
  struct ProfileStats {
    uint64_t GapSeqs = 0; ///< distinct normalized gap sequences
    uint64_t GapTranslations = 0; ///< translation-time miss observations
    uint64_t GapExecs = 0; ///< dynamic executions of mined fallbacks
  };
  ProfileStats Profile;

  /// Snapshot of the guest CPU when the run stopped: general registers
  /// (r0-r15) and the packed NZCV word, taken after flag
  /// materialization. Captured on every run regardless of kind, so
  /// differential drivers (tools/rdbt_fuzz, FuzzDifferentialTest) can
  /// diff final architectural state across translator kinds straight
  /// from BatchRunner reports without re-opening the Vm.
  struct FinalArchState {
    uint32_t Regs[16] = {};
    uint32_t Nzcv = 0;
    bool ShutdownRequested = false;
  };
  FinalArchState Final;

  // --- Shorthands for the quantities the figures report -------------------

  uint64_t wall() const { return Counters.Wall; }
  uint64_t guestInstrs() const { return Counters.GuestInstrs; }
  uint64_t memInstrs() const { return Counters.GuestMemInstrs; }
  uint64_t sysInstrs() const { return Counters.GuestSysInstrs; }
  uint64_t irqChecks() const { return Counters.IrqChecks; }
  uint64_t syncOps() const { return Counters.SyncOps; }
  uint64_t syncInstrs() const {
    return Counters.ByClass[static_cast<unsigned>(host::CostClass::Sync)];
  }

  /// Average host cost per guest instruction (Fig. 15).
  double hostPerGuest() const {
    return Counters.GuestInstrs
               ? static_cast<double>(Counters.Wall) / Counters.GuestInstrs
               : 0;
  }
  /// Coordination host-instructions per guest instruction (Fig. 17).
  double syncPerGuest() const {
    return Counters.GuestInstrs
               ? static_cast<double>(syncInstrs()) / Counters.GuestInstrs
               : 0;
  }

  const char *stopName() const { return dbt::toString(Stop); }
};

} // namespace vm
} // namespace rdbt

#endif // RDBT_VM_RUNREPORT_H
