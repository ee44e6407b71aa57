//===- vm/Vm.h - One DBT session behind one object --------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session facade over the whole stack: a Vm owns the board, the
/// guest software, the rule set, the translator, and the DBT engine, and
/// exposes run() returning a structured RunReport. What used to be the
/// six-step boilerplate in every bench/example/test main() —
///
///   sys::Platform Board(...);
///   guestsw::setupGuest(Board, Name, Scale);
///   rules::RuleSet RS = rules::buildReferenceRuleSet();
///   core::RuleTranslator Xlat(RS, core::OptConfig::forLevel(...));
///   dbt::DbtEngine Engine(Board, Xlat);
///   Engine.run(Budget);            // + manual counter scraping
///
/// — is now
///
///   vm::Vm V(vm::VmConfig::fromSpec("rule:scheduling/cpu-prime@2"));
///   vm::RunReport R = V.run();
///
/// The translator kind "native" runs the reference interpreter instead
/// of a DBT engine (the Fig. 18 baseline), so the whole scenario matrix
/// (workload x translator x opt-level) is addressable through one API.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_VM_VM_H
#define RDBT_VM_VM_H

#include "dbt/CodeCacheIo.h"
#include "dbt/Engine.h"
#include "obs/Metrics.h"
#include "obs/TraceSink.h"
#include "rules/RuleSet.h"
#include "sys/Platform.h"
#include "vm/RunReport.h"
#include "vm/Snapshot.h"
#include "vm/TranslatorRegistry.h"
#include "vm/VmConfig.h"

#include <memory>
#include <string>
#include <vector>

namespace rdbt {
namespace vm {

class Vm {
public:
  /// Builds the full stack for \p Cfg. Construction never throws; an
  /// unknown kind/workload leaves the Vm invalid with error() set, and
  /// run() then reports Ok = false.
  explicit Vm(VmConfig Cfg);
  ~Vm();

  Vm(const Vm &) = delete;
  Vm &operator=(const Vm &) = delete;

  bool valid() const { return Error_.empty(); }
  const std::string &error() const { return Error_; }
  const VmConfig &config() const { return Cfg; }

  /// Runs the guest until shutdown or until the config's wall budget is
  /// exhausted. May be called again to continue a WallLimit-stopped run
  /// with a fresh budget; counters accumulate.
  RunReport run();

  /// Same, with an explicit budget for this call (the budget is always
  /// relative: a resumed run gets \p WallBudget *more* cycles).
  RunReport run(uint64_t WallBudget);

  // --- Snapshot / fork (vm/Snapshot.h) ------------------------------------

  /// Runs in \p SliceCycles increments until the guest is in user mode
  /// at the end of a slice — the host-visible "boot finished, workload
  /// starting" mark — or the guest stops, or the config's wall budget
  /// runs out. The mode is checked only at slice ends, so the mark is
  /// rounded up to one, and a guest that is never in user mode there
  /// runs to its end: under rule:scheduling at the default slice,
  /// ctxswitch, untar and fileio run the whole program (ROADMAP item
  /// 11). Because run() is resume-transparent, the slicing leaves every
  /// counter and all guest state exactly as an unsliced run would. The
  /// canonical capture point for serving: boot once, capture, fork per
  /// session.
  RunReport runToBootMark(uint64_t SliceCycles = 20000);

  /// Freezes the whole session into a self-contained Snapshot: RAM
  /// pages, CPU env, device state, executor progress, warmed code cache
  /// (blocks shared read-only), and the rule corpus. The session may
  /// keep running afterwards — everything shared is copy-on-write on
  /// both sides. Invalid sessions yield an empty snapshot.
  Snapshot capture();

  /// Builds a forked session straight from \p S's own configuration
  /// (equivalent to Vm(S.config() with .snapshot(&S))). The fork shares
  /// the snapshot's RAM, code cache, and rules by refcount, so \p S may
  /// be destroyed once this returns.
  static std::unique_ptr<Vm> forkFrom(const Snapshot &S);

  /// True when this session adopted a snapshot at construction.
  bool forked() const { return Forked_; }

  /// The resolved persistent-cache file path ("" when persistence is
  /// off) and its key — tooling hooks (rdbt_scenarios prints them with
  /// --verbose-cache; tests forge stale files from the key).
  const std::string &cacheFilePath() const { return CachePath_; }
  const dbt::CacheKey &cacheKey() const { return CacheKey_; }

  // --- Hot-block profiler (src/obs/) --------------------------------------

  /// One entry of the hot-block profile: a live TB ranked by execution
  /// count, with both disassemblies and rule-coverage attribution.
  struct HotBlock {
    int TbId = -1;
    uint32_t GuestPc = 0;
    uint64_t Execs = 0; ///< times the host machine entered this TB
    /// This TB's share of all retired guest instructions
    /// (Execs * NumGuestInstrs / Counters.GuestInstrs).
    double ExecShare = 0;
    uint32_t NumGuestInstrs = 0;
    /// Rule-coverage attribution: guest instructions translated inline vs
    /// left to the emulate helper (counted from the host code, so it is
    /// exact for this block as translated).
    uint32_t CoveredInstrs = 0;
    uint32_t EmulatedInstrs = 0;
    /// Live host instructions of the block (an elided flag save is not
    /// live), the ops HostMachine::run dispatches for them (a CoordRun
    /// header and its run are one) and how many of those ops are runs of
    /// two or more.
    uint32_t HostInstrs = 0;
    uint32_t ExecOps = 0;
    uint32_t CoordRuns = 0;
    std::string GuestDisasm; ///< one line per guest instruction
    std::string HostDisasm;  ///< host::disassembleBlock() rendering
  };

  /// The top-\p N live TBs by execution count. Requires
  /// VmConfig::profileHotBlocks (and an engine kind); empty otherwise.
  /// Blocks invalidated since their last execution no longer have code to
  /// attribute and are skipped.
  std::vector<HotBlock> hotBlocks(size_t N);

  /// The session's trace sink (null unless VmConfig::trace armed it).
  obs::TraceSink *traceSink() { return Sink_.get(); }

  // --- Escape hatches for tests and tooling -------------------------------

  sys::Platform &board() { return *Board_; }
  /// nullptr for the native executor.
  dbt::DbtEngine *engine() { return Engine_.get(); }
  dbt::Translator *translator() { return Xlat_.get(); }
  /// The resolved registry entry (nullptr when invalid).
  const TranslatorRegistry::KindInfo *kind() const { return Kind_; }

private:
  VmConfig Cfg;
  std::string Error_;
  const TranslatorRegistry::KindInfo *Kind_ = nullptr;
  std::unique_ptr<sys::Platform> Board_;
  uint64_t NativeInstrs_ = 0; ///< native executor: instrs across run() calls
  /// Native executor: decoded-instruction cache hits/misses accumulated
  /// across run() calls (the engine path reads the engine's interpreter
  /// instead). Host-side observability only — never snapshot-carried; a
  /// fork restarts at zero because its decode cache starts scrubbed.
  uint64_t NativeDecodeHits_ = 0;
  uint64_t NativeDecodeMisses_ = 0;
  /// The process-wide rules::referenceRuleSet() when no external set is
  /// given, the corpus loaded from the "rule:file=<path>" parameter, or —
  /// for forked sessions — the snapshot's corpus shared by refcount. Immutable after construction:
  /// matching is const and per-session counters live in the translator
  /// (core::RuleTranslator::Matches), so a set shared across sessions —
  /// via VmConfig::rules() or across COW forks, including concurrent
  /// BatchRunner workers — needs no reset between runs.
  std::shared_ptr<const rules::RuleSet> OwnedRules_;
  std::unique_ptr<dbt::Translator> Xlat_;
  std::unique_ptr<dbt::DbtEngine> Engine_;
  bool Forked_ = false;
  /// Observability (src/obs/), created only when Cfg.trace() is set. The
  /// sink is per-session and never crosses a snapshot: capture() does not
  /// carry it, and a fork creates its own from its own config, so every
  /// timeline belongs to exactly one session. Written out in ~Vm.
  std::unique_ptr<obs::TraceSink> Sink_;
  std::unique_ptr<obs::Metrics> Metrics_;

  // Persistent translation cache (dbt/CodeCacheIo.h). A session with a
  // cache dir loads its keyed file at init (each seeded block counted in
  // CacheStats::LoadedTbs) and saves its translations at destruction.
  // Warm forks inherit the snapshot's store and do neither — the
  // captured session already paid the load, and a fork writing the file
  // would race its siblings.
  dbt::CacheKey CacheKey_;
  std::string CachePath_;
  bool AdoptedWarm_ = false; ///< adopted a warm snapshot at construction

  void init();
  void initPersistentCache();
};

} // namespace vm
} // namespace rdbt

#endif // RDBT_VM_VM_H
