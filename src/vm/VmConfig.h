//===- vm/VmConfig.h - Declarative VM session configuration -----*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative description of one DBT session: which guest workload
/// at which scale, how much RAM, which translator kind (a
/// TranslatorRegistry name), optional optimization-switch overrides, and
/// the run budgets. A VmConfig is a value — build it with the chainable
/// setters, parse it from a spec string, stamp out as many Vm instances
/// from it as needed.
///
/// Spec strings name a whole scenario in one identifier, which is what
/// lets benches and CLIs select (workload x translator x opt-level)
/// matrix points by name:
///
///   <kind>[/<workload>[@<scale>]]
///
///   "rule:scheduling/cpu-prime@2"   full-opt rules, cpu-prime, scale 2
///   "qemu/mcf"                      baseline translator, scale 1
///   "native/hmmer@4"                reference interpreter
///   "rule:file=learned.rules/mcf"   deploy a learned rule file
///
/// Parameterized kinds ("rule:file=<path>") may carry '/' in the path;
/// the workload is then taken after the *last* '/' when it names a known
/// workload, so append /<workload> or use a slash-free path in specs.
/// "@<scale>" always attaches to the workload segment — a bare kind
/// (parameterized or not) never carries a scale, so in
/// "rule:file=a.rules@2" the "@2" is part of the file name, exactly as
/// "qemu@2" is an unknown kind rather than qemu at scale 2.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_VM_VMCONFIG_H
#define RDBT_VM_VMCONFIG_H

#include "core/RuleTranslator.h"
#include "rules/RuleSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rdbt {
namespace profile {
class GapMiner;
}
namespace vm {

class Snapshot;

class VmConfig {
public:
  /// Defaults: full-opt rule translator, scale 1, minimum kernel RAM,
  /// the 400 G-cycle wall budget the benches always used, no runaway
  /// guard, reference rule set.
  VmConfig() = default;

  // --- Chainable setters --------------------------------------------------

  VmConfig &workload(std::string Name) {
    Workload_ = std::move(Name);
    return *this;
  }
  VmConfig &scale(uint32_t S) {
    Scale_ = S;
    return *this;
  }
  VmConfig &ramBytes(uint32_t Bytes) {
    RamBytes_ = Bytes;
    return *this;
  }
  /// A TranslatorRegistry kind name or alias ("qemu", "rule", ...).
  VmConfig &translator(std::string Kind) {
    Translator_ = std::move(Kind);
    return *this;
  }
  /// Shorthand for the rule translator at a cumulative opt level.
  VmConfig &optLevel(core::OptLevel L);
  /// Overrides the kind's preset optimization switches (ablations).
  VmConfig &opts(const core::OptConfig &C) {
    Opts_ = C;
    HasOpts_ = true;
    return *this;
  }
  /// Emulation-cost budget for run(); the stop reason is WallLimit when
  /// it is exhausted. For the native executor the budget is in guest
  /// instructions (1 cycle/instruction).
  VmConfig &wallBudget(uint64_t Cycles) {
    WallBudget_ = Cycles;
    return *this;
  }
  /// Caps host instructions per code-cache stint (StopReason::Runaway).
  VmConfig &runawayGuard(uint64_t MaxHostInstrsPerRun) {
    RunawayGuard_ = MaxHostInstrsPerRun;
    return *this;
  }
  /// Uses \p Rules (caller-owned, must outlive the Vm) instead of the
  /// built-in reference rule set — e.g. a freshly learned set.
  VmConfig &rules(const rules::RuleSet *Rules) {
    Rules_ = Rules;
    return *this;
  }
  /// Attaches a translation-gap miner (caller-owned, must outlive the
  /// Vm) to rule-translator sessions: rule misses and their dynamic
  /// weight accumulate in \p Miner and surface as RunReport::Profile.
  VmConfig &gapMiner(profile::GapMiner *Miner) {
    Miner_ = Miner;
    return *this;
  }
  /// Bypasses the guest kernel: load \p Words at physical \p Base, reset
  /// the env and start executing there (the differential-fuzz setup).
  VmConfig &flatImage(std::vector<uint32_t> Words, uint32_t Base);
  /// Enables the persistent translation cache (dbt/CodeCacheIo.h): at
  /// boot, Vm looks for a cache file in \p Dir keyed by (guest image
  /// checksum, translator + opt config, format version) and seeds
  /// translations from it; at destruction it saves the session's
  /// translations back. Empty (the default) disables persistence. The
  /// directory must already exist, or the Vm is invalid. Spec strings
  /// carry it as ",cache=<dir>".
  VmConfig &persistentCache(std::string Dir) {
    PersistentCacheDir_ = std::move(Dir);
    return *this;
  }
  /// When false, a persistent-cache session loads at boot but never
  /// writes the file back at destruction. Sessions compared against a
  /// fixed on-disk state use this (a fresh twin checked against a fork
  /// must observe the same file the fork's master booted from).
  VmConfig &persistentCacheSaveOnExit(bool Save) {
    PersistentCacheSave_ = Save;
    return *this;
  }
  /// Forks the session off \p S (vm/Snapshot.h) instead of building the
  /// board from scratch: guest RAM is shared copy-on-write, device/env
  /// state is restored, and — for warm snapshots of the same translator
  /// kind — the warmed code cache and counters are adopted. The pointer
  /// is read only during Vm construction; the built Vm holds the
  /// snapshot's immutable images by refcount, so the Snapshot itself
  /// need not outlive the Vm.
  VmConfig &snapshot(const Snapshot *S) {
    Snapshot_ = S;
    return *this;
  }
  /// Arms the observability subsystem (src/obs/): the session records a
  /// typed event timeline plus the obs metrics registry, and writes the
  /// timeline as Chrome trace-event JSON to \p Path at Vm destruction;
  /// its directory must already exist, or the Vm is invalid.
  /// Empty (the default) disables it entirely — no sink exists and every
  /// instrumentation point is a null check. Spec strings carry it as
  /// ",trace=<path>". Tracing never touches simulated state: counters,
  /// console bytes, and perf-gate numbers are bitwise identical either
  /// way.
  VmConfig &trace(std::string Path) {
    TracePath_ = std::move(Path);
    return *this;
  }
  /// Enables per-TB execution counting for Vm::hotBlocks(). Off by
  /// default; like tracing, it never feeds any simulated counter.
  VmConfig &profileHotBlocks(bool On) {
    ProfileHotBlocks_ = On;
    return *this;
  }
  /// Enables the interpreter fastpath — the per-page decoded-instruction
  /// cache with threaded dispatch (DESIGN.md §14). On by default; off
  /// runs the decode-every-step reference path the fastpath is tested
  /// against. Guest-visible state and every simulated counter are
  /// bit-identical either way; only host wall time and the
  /// RunReport::InterpDecode* observability counters differ. Spec strings carry it as ",ifp=on|off".
  VmConfig &interpFastpath(bool On) {
    InterpFastpath_ = On;
    return *this;
  }

  // --- Accessors ----------------------------------------------------------

  const std::string &workload() const { return Workload_; }
  uint32_t scale() const { return Scale_; }
  uint32_t ramBytes() const { return RamBytes_; }
  const std::string &translator() const { return Translator_; }
  bool hasOpts() const { return HasOpts_; }
  const core::OptConfig &opts() const { return Opts_; }
  uint64_t wallBudget() const { return WallBudget_; }
  uint64_t runawayGuard() const { return RunawayGuard_; }
  const rules::RuleSet *rules() const { return Rules_; }
  profile::GapMiner *gapMiner() const { return Miner_; }
  bool isFlatImage() const { return UseFlatImage_; }
  const std::vector<uint32_t> &flatImage() const { return FlatImage_; }
  uint32_t flatImageBase() const { return FlatImageBase_; }
  const Snapshot *snapshot() const { return Snapshot_; }
  const std::string &persistentCache() const { return PersistentCacheDir_; }
  bool persistentCacheSaveOnExit() const { return PersistentCacheSave_; }
  const std::string &trace() const { return TracePath_; }
  bool profileHotBlocks() const { return ProfileHotBlocks_; }
  bool interpFastpath() const { return InterpFastpath_; }

  // --- Spec strings -------------------------------------------------------

  /// Parses "<kind>[/<workload>[@<scale>]][,cache=<dir>][,trace=<path>]
  /// [,ifp=on|off]". The kind must be registered and the workload known;
  /// on failure the returned config is unusable (Vm construction reports
  /// the error) and *Error, when given, says why.
  static VmConfig fromSpec(const std::string &Spec,
                           std::string *Error = nullptr);

  /// The canonical spec string for this config ("kind/workload@scale",
  /// scale omitted when 1). fromSpec(toSpec()) round-trips.
  std::string toSpec() const;

private:
  std::string Workload_;
  uint32_t Scale_ = 1;
  uint32_t RamBytes_ = 0; ///< 0 = KernelLayout::MinRam
  std::string Translator_ = "rule:scheduling";
  core::OptConfig Opts_;
  bool HasOpts_ = false;
  uint64_t WallBudget_ = 400ull * 1000 * 1000 * 1000;
  uint64_t RunawayGuard_ = ~0ull;
  const rules::RuleSet *Rules_ = nullptr;
  profile::GapMiner *Miner_ = nullptr;
  std::vector<uint32_t> FlatImage_;
  uint32_t FlatImageBase_ = 0;
  bool UseFlatImage_ = false;
  const Snapshot *Snapshot_ = nullptr;
  std::string PersistentCacheDir_;
  bool PersistentCacheSave_ = true;
  std::string TracePath_;
  bool ProfileHotBlocks_ = false;
  bool InterpFastpath_ = true;
};

} // namespace vm
} // namespace rdbt

#endif // RDBT_VM_VMCONFIG_H
