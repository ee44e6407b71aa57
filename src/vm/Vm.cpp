//===- vm/Vm.cpp - One DBT session behind one object ------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "arm/Decoder.h"
#include "arm/Disasm.h"
#include "core/RuleTranslator.h"
#include "dbt/Helpers.h"
#include "guestsw/MiniKernel.h"
#include "guestsw/Workloads.h"
#include "host/HostDisasm.h"
#include "obs/Trace.h"
#include "profile/GapMiner.h"
#include "rules/RuleIo.h"
#include "sys/Interpreter.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace rdbt;
using namespace rdbt::vm;

namespace {

bool isDirectory(const std::string &Path) {
  struct stat St {};
  return ::stat(Path.c_str(), &St) == 0 && (St.st_mode & S_IFMT) == S_IFDIR;
}

/// crc32c over the RAM size and the (index, bytes) of every non-zero
/// page, each page read in place. Zero pages contribute nothing, so a
/// 4 MiB board holding a few KiB of code hashes only those KiB. The
/// size and the page indices still determine the whole image, so this
/// separates images exactly as a crc32c over every byte would. A
/// privatized page can be all zeros again, so only the shared zero page
/// is skipped by pointer.
uint32_t imageCrc(const sys::PhysMem &Ram) {
  const uint32_t Size = Ram.size();
  uint32_t Crc = dbt::crc32cWord(Size, 0);
  for (uint32_t Pa = 0; Pa < Size; Pa += sys::PhysMem::PageBytes) {
    const uint32_t Pn = Pa >> sys::PhysMem::PageShift;
    const uint32_t Len =
        std::min<uint32_t>(sys::PhysMem::PageBytes, Size - Pa);
    const uint8_t *P = Ram.page(Pn);
    if (P == sys::PhysMem::zeroPage())
      continue;
    // All zero iff the first byte is and every byte equals its successor.
    if (P[0] == 0 && std::memcmp(P, P + 1, Len - 1) == 0)
      continue;
    Crc = dbt::crc32cWord(Pn, Crc);
    Crc = dbt::crc32c(P, Len, Crc);
  }
  return Crc;
}

} // namespace

Vm::Vm(VmConfig C) : Cfg(std::move(C)) { init(); }

void Vm::init() {
  Kind_ = TranslatorRegistry::global().find(Cfg.translator());
  // Both output paths are written only when the session ends, so a
  // missing directory is caught here rather than losing the file silently.
  const std::string &CacheDir = Cfg.persistentCache();
  const size_t TraceSlash = Cfg.trace().rfind('/');
  const std::string TraceDir = TraceSlash == std::string::npos
                                   ? std::string()
                                   : Cfg.trace().substr(0, TraceSlash);
  if (!Kind_)
    Error_ = "unknown translator kind '" + Cfg.translator() + "'";
  else if (!CacheDir.empty() && !isDirectory(CacheDir))
    Error_ = "cache directory '" + CacheDir + "' does not exist";
  else if (!TraceDir.empty() && !isDirectory(TraceDir))
    Error_ = "trace directory '" + TraceDir + "' does not exist";
  if (!Error_.empty()) {
    Board_ = std::make_unique<sys::Platform>(guestsw::KernelLayout::MinRam);
    return;
  }

  // Arm observability before anything that records: the sink and the
  // metrics registry exist iff a trace path was configured, and every
  // instrumented module below gets plain pointers (null = disabled).
  if (!Cfg.trace().empty()) {
    Sink_ = std::make_unique<obs::TraceSink>();
    Metrics_ = std::make_unique<obs::Metrics>();
  }

  const Snapshot *Snap = Cfg.snapshot();
  if (Snap) {
    Error_ = Snap->forkError(Cfg);
    if (!Error_.empty()) {
      Board_ = std::make_unique<sys::Platform>(guestsw::KernelLayout::MinRam);
      return;
    }
    Forked_ = true;
    // Fork fast path: RAM and disk adopt the snapshot's page tables (no
    // page allocated, no byte copied, no guest install), then the captured
    // device and CPU state are applied verbatim. Env last — it carries
    // IrqPending/ExitRequest, which nothing below may recompute
    // (Platform::restoreState never touches Env).
    Board_ = std::make_unique<sys::Platform>(*Snap->ramImage(), Snap->Board_);
    Board_->Env = Snap->Env_;
    RDBT_TRACE(Sink_.get(), obs::EventKind::SnapshotFork,
               Snap->Cache_ ? Snap->Cache_->LiveBlocks : 0);
  } else {
    const uint32_t Ram = Cfg.ramBytes()
                             ? Cfg.ramBytes()
                             : guestsw::requiredWorkloadRam(Cfg.workload());
    // A workload board adopts the seeded disk in setupGuest, so it starts
    // with a zero-sector disk (no blank table), as a fork does.
    const bool Seeded = !Cfg.isFlatImage() && !Cfg.workload().empty();
    Board_ = std::make_unique<sys::Platform>(
        Ram, Seeded ? 0u : uint32_t{sys::DiskDevice::DefaultSectors});

    if (Cfg.isFlatImage()) {
      Board_->Ram.loadWords(Cfg.flatImageBase(), Cfg.flatImage());
      sys::resetEnv(Board_->Env);
      Board_->Env.Regs[15] = Cfg.flatImageBase();
    } else if (Cfg.workload().empty()) {
      Error_ = "no workload configured";
      return;
    } else if (!guestsw::setupGuest(*Board_, Cfg.workload(), Cfg.scale())) {
      Error_ = "unknown workload '" + Cfg.workload() + "'";
      Board_ = std::make_unique<sys::Platform>(guestsw::KernelLayout::MinRam);
      return;
    }
  }

  if (!Kind_->UsesEngine) {
    // Interpreter-executed: no translator, no engine. A warm native
    // snapshot resumes its instruction accumulator.
    if (Snap)
      NativeInstrs_ = Snap->NativeInstrs_;
    return;
  }

  TranslatorRegistry::Context Ctx;
  const core::OptConfig Opts = Cfg.hasOpts() ? Cfg.opts() : core::OptConfig();
  if (Cfg.hasOpts())
    Ctx.Opts = &Opts;
  if (Kind_->NeedsRules) {
    if (!Cfg.rules()) {
      const std::string Param = TranslatorRegistry::paramOf(Cfg.translator());
      if (Snap && Snap->Rules_ &&
          Param == TranslatorRegistry::paramOf(Snap->translator())) {
        // Same corpus provenance (both reference, or the same rule
        // file): share the snapshot's immutable set instead of
        // rebuilding or re-reading it per fork.
        OwnedRules_ = Snap->Rules_;
      } else if (Kind_->TakesParam) {
        // "rule:file=<path>": deploy a persisted corpus.
        if (Param.empty()) {
          Error_ = "translator kind '" + Kind_->Name +
                   "' needs a parameter: " + Kind_->Name + "=<rule-file>";
          return;
        }
        auto Loaded = std::make_shared<rules::RuleSet>();
        std::string IoErr;
        if (!rules::readRuleFile(Param, *Loaded, &IoErr)) {
          Error_ = "cannot load rule file: " + IoErr;
          return;
        }
        OwnedRules_ = std::move(Loaded);
      } else {
        OwnedRules_ = rules::referenceRuleSet();
      }
    }
    Ctx.Rules = Cfg.rules() ? Cfg.rules() : OwnedRules_.get();
  }
  Xlat_ = TranslatorRegistry::global().create(Kind_->Name, Ctx);
  if (!Xlat_) {
    Error_ = "translator factory for '" + Kind_->Name + "' failed";
    return;
  }
  if (Cfg.gapMiner())
    if (auto *Rule = dynamic_cast<core::RuleTranslator *>(Xlat_.get()))
      Rule->setGapMiner(Cfg.gapMiner());
  Engine_ = std::make_unique<dbt::DbtEngine>(*Board_, *Xlat_);
  Engine_->setRunawayGuard(Cfg.runawayGuard());
  Engine_->setInterpFastpath(Cfg.interpFastpath());
  if (Sink_)
    Engine_->setObs(Sink_.get(), Metrics_.get());
  if (Cfg.profileHotBlocks())
    Engine_->enableTbExecProfile();

  AdoptedWarm_ = Snap && Snap->HasRun_;
  if (AdoptedWarm_) {
    // Adopt the warm snapshot's executor progress: the warmed code cache
    // (blocks shared read-only; chain patches privatize per block), the
    // exact host counters, engine/MMU statistics, and the rule
    // translator's session counters — so this fork's cumulative report
    // is bitwise what an unforked session's would be.
    if (Snap->Cache_)
      Engine_->codeCache().adopt(*Snap->Cache_);
    Engine_->restoreCounters(Snap->Counters_);
    Engine_->Stats = Snap->Engine_;
    Engine_->mmu().Hits = Snap->MmuHits_;
    Engine_->mmu().Misses = Snap->MmuMisses_;
    if (auto *Rule = dynamic_cast<core::RuleTranslator *>(Xlat_.get())) {
      Rule->RuleCoveredInstrs = Snap->RuleCoveredInstrs_;
      Rule->FallbackInstrs = Snap->FallbackInstrs_;
      Rule->ScheduledDefUseMoves = Snap->ScheduledDefUseMoves_;
      Rule->ScheduledIrqChecks = Snap->ScheduledIrqChecks_;
      Rule->Matches = Snap->Matches_;
    }
    // Inherit the captured session's persistent-cache store as-is (the
    // adopted CacheStats already include its CacheFileHits/LoadedTbs, so
    // re-loading here would double-count). Warm forks also never save —
    // see ~Vm — because N forks racing to rewrite one file adds nothing
    // the captured session's own save does not.
    Engine_->setTranslationStore(Snap->Store_);
  } else if (!Cfg.persistentCache().empty()) {
    initPersistentCache();
  }
}

void Vm::initPersistentCache() {
  // Key the cache file by everything a stored translation depends on:
  // the guest image bytes, and every configuration input that changes
  // what the translator emits (DESIGN.md §12).
  dbt::CacheKey K;
  K.ImageCrc = imageCrc(Board_->Ram);

  // Translator identity: canonical kind name, explicit opt overrides
  // (the kind name itself pins the preset), and — for rule kinds — the
  // CRC of the canonical corpus text, so "rule:file=" deployments key by
  // content, not by path. The set caches that CRC, so a shared corpus is
  // serialized once per process, not once per session.
  uint32_t C = dbt::crc32c(Kind_->Name.data(), Kind_->Name.size());
  C = dbt::crc32cWord(Cfg.hasOpts() ? 1u : 0u, C);
  if (Cfg.hasOpts()) {
    const core::OptConfig &O = Cfg.opts();
    C = dbt::crc32cWord(static_cast<uint32_t>(O.PackedCcr) |
                            (static_cast<uint32_t>(O.TrackFlagState) << 1) |
                            (static_cast<uint32_t>(O.InterTb) << 2) |
                            (static_cast<uint32_t>(O.ScheduleDefUse) << 3) |
                            (static_cast<uint32_t>(O.ScheduleIrq) << 4),
                        C);
  }
  if (Kind_->NeedsRules) {
    const rules::RuleSet *RS = Cfg.rules() ? Cfg.rules() : OwnedRules_.get();
    C = dbt::crc32cWord(RS->contentCrc(), C);
  }
  // Layout/geometry fingerprint: a rebuild that moves env slots or the
  // host ISA must never reuse old code.
  C = dbt::crc32cWord(sys::envWordCount(), C);
  C = dbt::crc32cWord(sys::envSlotMmuIdx(), C);
  C = dbt::crc32cWord(sys::envSlotTlbBase(), C);
  C = dbt::crc32cWord(sys::tlbEntryWords(), C);
  C = dbt::crc32cWord(sys::TlbSize, C);
  C = dbt::crc32cWord(host::NumHostRegs, C);
  C = dbt::crc32cWord(static_cast<uint32_t>(host::HOp::ExitTb), C);
  C = dbt::crc32cWord(host::NumCostClasses, C);
  K.ConfigCrc = C;
  K.Valid = true;

  CacheKey_ = K;
  CachePath_ = K.pathIn(Cfg.persistentCache());

  dbt::BlockMap Blocks;
  switch (dbt::CodeCacheIo::load(CachePath_, K, Blocks)) {
  case dbt::CacheLoad::Hit:
    ++Engine_->codeCache().Stats.CacheFileHits;
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileLoad, /*outcome=*/0);
    Engine_->setTranslationStore(
        std::make_shared<const dbt::TranslationStore>(std::move(Blocks)));
    break;
  case dbt::CacheLoad::Rejected:
    // Corrupt, truncated, or stale-keyed file: a clean cold start.
    ++Engine_->codeCache().Stats.CacheFileMisses;
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileLoad, /*outcome=*/1);
    break;
  case dbt::CacheLoad::Absent:
    // No file is simply a first run — counted nowhere, so a cold run
    // with a cache dir reports exactly like a run without one.
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileLoad, /*outcome=*/2);
    break;
  }

  // Arm the engine's retain-for-save set: the exit save serializes every
  // block the session ever inserted, not just the ones still live, so
  // blocks the boot-time flush discarded still reach the file and the
  // next boot translates nothing at all.
  if (Cfg.persistentCacheSaveOnExit())
    Engine_->setRetainForSave(true);
}

Vm::~Vm() {
  // Auto-save policy: persist this session's translations if persistence
  // is on, this session translated anything beyond what the store seeded
  // (a pure-warm run would rewrite identical content), and it is not a
  // warm fork (the captured session owns the file).
  if (CacheKey_.Valid && Engine_ && !AdoptedWarm_ &&
      Cfg.persistentCacheSaveOnExit() && Engine_->Stats.Translations > 0) {
    // Save the retained set: every block inserted this session, whether
    // still live or flushed since.
    const dbt::BlockMap &Blocks = Engine_->retainedForSave();
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileSave, Blocks.size());
    std::string Err;
    if (!dbt::CodeCacheIo::save(CachePath_, Blocks, CacheKey_, &Err))
      std::fprintf(stderr, "vm: cache file not saved: %s\n", Err.c_str());
  }
  // The timeline outlives the session only as its JSON file; written
  // last, so it covers the cache-file save above.
  if (Sink_)
    Sink_->write(Cfg.trace(), Cfg.toSpec());
}

RunReport Vm::run() { return run(Cfg.wallBudget()); }

RunReport Vm::run(uint64_t WallBudget) {
  RunReport R;
  R.Spec = Cfg.toSpec();
  if (Kind_) {
    R.Label = Kind_->Label;
    R.MetricKey = Kind_->MetricKey;
  }
  R.Forked = Forked_;
  if (!valid()) {
    R.Error = Error_;
    return R;
  }

  if (!Kind_->UsesEngine) {
    const sys::SystemRunResult Res = sys::runSystemInterpreter(
        *Board_, WallBudget, Cfg.interpFastpath(),
        Metrics_ ? &Metrics_->histogram(obs::metric::DecodeNs) : nullptr);
    R.Stop = Res.Shutdown ? dbt::StopReason::GuestShutdown
             : Res.Deadlocked ? dbt::StopReason::Deadlock
                              : dbt::StopReason::WallLimit;
    // Native execution: one cycle per guest instruction. Accumulate
    // across resumed runs to match the engine path's counter semantics.
    // (The decode cache itself is per-call — each run() slice rebuilds it
    // — but the hit/miss totals accumulate like the instruction count.)
    NativeInstrs_ += Res.InstrsRetired;
    NativeDecodeHits_ += Res.DecodeHits;
    NativeDecodeMisses_ += Res.DecodeMisses;
    R.Counters.Wall = NativeInstrs_;
    R.Counters.GuestInstrs = NativeInstrs_;
    R.InterpDecodeHits = NativeDecodeHits_;
    R.InterpDecodeMisses = NativeDecodeMisses_;
  } else {
    R.Stop = Engine_->run(WallBudget);
    R.Counters = Engine_->counters();
    R.InterpDecodeHits = Engine_->interp().DecodeHits;
    R.InterpDecodeMisses = Engine_->interp().DecodeMisses;
    R.Engine = Engine_->Stats;
    R.Cache = Engine_->codeCache().Stats;
    R.Cache.LiveTbs = Engine_->codeCache().size();
    if (const auto *Rule = dynamic_cast<core::RuleTranslator *>(Xlat_.get())) {
      R.RuleCoveredInstrs = Rule->RuleCoveredInstrs;
      R.FallbackInstrs = Rule->FallbackInstrs;
      // Matcher counters come from the session's own translator, so a
      // RuleSet shared across sessions (even concurrently) reports exact
      // per-session counts; resumed runs stay cumulative for free.
      R.RuleMatchAttempts = Rule->Matches.Attempts;
      R.RuleMatchHits = Rule->Matches.Hits;
      if (const profile::GapMiner *Miner = Rule->gapMiner()) {
        R.Profile.GapSeqs = Miner->distinctGaps();
        R.Profile.GapTranslations = Miner->missObservations();
        R.Profile.GapExecs = Miner->gapExecutions();
      }
    }
  }
  R.Ok = R.Stop == dbt::StopReason::GuestShutdown;
  R.Console = Board_->uart().output();
  if (Sink_) {
    R.Obs.Enabled = true;
    R.Obs.Events = Sink_->size();
    R.Obs.Dropped = Sink_->dropped();
    R.Obs.Metrics = *Metrics_;
  }
  R.CowPrivatePages = Board_->Ram.cowPrivatePages();
  sys::materializeFlags(Board_->Env);
  for (int I = 0; I < 16; ++I)
    R.Final.Regs[I] = Board_->Env.Regs[I];
  R.Final.Nzcv = sys::packFlags(Board_->Env);
  R.Final.ShutdownRequested = Board_->ShutdownRequested;
  return R;
}

RunReport Vm::runToBootMark(uint64_t SliceCycles) {
  if (!SliceCycles)
    SliceCycles = 20000;
  uint64_t Spent = 0;
  RunReport R;
  do {
    R = run(SliceCycles);
    Spent += SliceCycles;
  } while (valid() && R.Stop == dbt::StopReason::WallLimit &&
           Board_->Env.Mode != sys::ModeUsr && Spent < Cfg.wallBudget());
  return R;
}

Snapshot Vm::capture() {
  Snapshot S;
  if (!valid())
    return S;
  RDBT_TRACE(Sink_.get(), obs::EventKind::SnapshotCapture,
             Engine_ ? Engine_->codeCache().size() : 0);
  S.Cfg_ = Cfg;
  // Scrub per-session attachments: a fork stamped from S.config() must
  // not inherit another session's gap miner, external rule pointer, or
  // snapshot chain (the corpus travels in S.Rules_ instead). The trace
  // path is scrubbed too — a sink belongs to exactly one session, so a
  // fork must opt into its own timeline at its own path.
  S.Cfg_.snapshot(nullptr).gapMiner(nullptr).rules(nullptr).trace("");

  S.Env_ = Board_->Env;
  Board_->captureState(S.Board_);
  S.Ram_ = Board_->Ram.capture();

  if (Kind_->UsesEngine) {
    S.HasRun_ = Engine_->counters().Wall != 0;
    S.Counters_ = Engine_->counters();
    S.Engine_ = Engine_->Stats;
    S.MmuHits_ = Engine_->mmu().Hits;
    S.MmuMisses_ = Engine_->mmu().Misses;
    S.Cache_ = Engine_->codeCache().capture();
    S.Store_ = Engine_->translationStore();
    if (const auto *Rule =
            dynamic_cast<const core::RuleTranslator *>(Xlat_.get())) {
      S.RuleCoveredInstrs_ = Rule->RuleCoveredInstrs;
      S.FallbackInstrs_ = Rule->FallbackInstrs;
      S.ScheduledDefUseMoves_ = Rule->ScheduledDefUseMoves;
      S.ScheduledIrqChecks_ = Rule->ScheduledIrqChecks;
      S.Matches_ = Rule->Matches;
    }
  } else {
    S.HasRun_ = NativeInstrs_ != 0;
    S.NativeInstrs_ = NativeInstrs_;
  }

  if (Kind_->NeedsRules) {
    if (Cfg.rules())
      // External caller-owned set: copy it so the snapshot stays
      // self-contained (sets are small relative to RAM images).
      S.Rules_ = std::make_shared<const rules::RuleSet>(*Cfg.rules());
    else
      S.Rules_ = OwnedRules_;
  }
  return S;
}

std::unique_ptr<Vm> Vm::forkFrom(const Snapshot &S) {
  VmConfig C = S.config();
  C.snapshot(&S);
  return std::make_unique<Vm>(std::move(C));
}

std::vector<Vm::HotBlock> Vm::hotBlocks(size_t N) {
  std::vector<HotBlock> Out;
  if (!valid() || !Engine_ || N == 0)
    return Out;
  const std::vector<uint64_t> &Execs = Engine_->tbExecCounts();
  dbt::CodeCache &Cache = Engine_->codeCache();
  const uint64_t TotalGuest = Engine_->counters().GuestInstrs;

  for (size_t Id = 0; Id < Execs.size(); ++Id) {
    if (!Execs[Id])
      continue;
    // Blocks invalidated since they last ran have no code left to
    // attribute; skip them rather than report half a profile line.
    const host::HostBlock *B = Cache.block(static_cast<int>(Id));
    if (!B)
      continue;
    HotBlock H;
    H.TbId = static_cast<int>(Id);
    H.GuestPc = B->GuestPc;
    H.Execs = Execs[Id];
    H.NumGuestInstrs = B->NumGuestInstrs;
    if (TotalGuest)
      H.ExecShare = static_cast<double>(H.Execs) * H.NumGuestInstrs /
                    static_cast<double>(TotalGuest);
    // Rule-coverage attribution straight from the host code: every
    // emulate-helper call is one guest instruction the translator left
    // to the interpreter; the rest were translated inline.
    uint32_t Emulated = 0;
    for (const host::HInst &HI : B->Code)
      if (HI.Op == host::HOp::CallHelper && HI.Helper == dbt::HelperEmulate)
        ++Emulated;
    H.EmulatedInstrs = std::min(Emulated, H.NumGuestInstrs);
    H.CoveredInstrs = H.NumGuestInstrs - H.EmulatedInstrs;
    for (const host::HInst &HI : B->Code)
      H.HostInstrs += !HI.Dead;
    for (size_t I = 0; I < B->Exec.size(); ++I, ++H.ExecOps)
      if (B->Exec[I].Op == host::HOp::CoordRun) {
        ++H.CoordRuns;
        I += B->Exec[I].Slot;
      }
    std::ostringstream GD;
    for (size_t I = 0; I < B->GuestWords.size(); ++I) {
      const uint32_t Pc = B->GuestPc + static_cast<uint32_t>(I) * 4;
      GD << "  " << std::hex << Pc << std::dec << ": "
         << arm::disassemble(arm::decode(B->GuestWords[I]), Pc) << "\n";
    }
    H.GuestDisasm = GD.str();
    H.HostDisasm = host::disassembleBlock(*B);
    Out.push_back(std::move(H));
  }

  std::sort(Out.begin(), Out.end(), [](const HotBlock &A, const HotBlock &B) {
    return A.Execs != B.Execs ? A.Execs > B.Execs : A.TbId < B.TbId;
  });
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}
