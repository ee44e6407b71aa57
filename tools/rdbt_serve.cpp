//===- tools/rdbt_serve.cpp - Snapshot-forking session server ---------------===//
//
// Part of RuleDBT. The session-serving harness over vm::Snapshot
// (DESIGN.md §11): for each spec it boots ONE master image to the boot
// mark, warms it with --warm-items work items so the request path's
// translations are in the code cache, captures a snapshot — guest RAM,
// device state, the warmed code cache, the loaded rule corpus — and
// then drains N work items as copy-on-write forks of that snapshot
// through vm/BatchRunner. This is the serving pattern the snapshot
// subsystem exists for: pay image construction, boot, corpus loading,
// and hot-path translation once, then stamp out request sessions that
// share all of it read-only.
//
//   rdbt_serve [--spec S]... [--sessions N] [--jobs J] [--corpus F]
//              [--item-cycles W] [--warm-items K] [--min-speedup X]
//              [--cache-dir D] [--trace-dir D] [--no-fresh] [--json]
//
// --trace-dir D arms the observability sink (src/obs/) on every forked
// session, writing one Chrome trace-event timeline per fork to
// D/serve-spec<i>-fork<j>.trace.json. The sink never crosses the
// snapshot, so each fork's timeline is its own; the bitwise
// fork-vs-fresh verification is unaffected (tracing reads only host
// wall time, never simulated state). --json additionally reports the
// full fork-vs-fresh session-latency distributions as log2 histograms.
//
// --cache-dir D composes the persistent translation cache
// (dbt/CodeCacheIo.h) with snapshot forking: the master boots against
// the cache file in D (near-zero translations on a warm serve — the
// master cache line and master_* JSON fields show it) and saves on
// exit; forks inherit the master's in-memory store; fresh-boot twins
// load the same file but never save, so the file stays fixed for the
// whole drain and the bitwise fork-vs-fresh verification still holds.
//
// A work item is a fixed wall-budget slice of guest execution
// (--item-cycles, default 150000) against the booted image — the
// serving analogue of one request. Each forked session constructs from
// the snapshot and runs exactly one item; its fresh-boot twin pays the
// whole path a snapshotless server would — Vm construction (corpus
// load, image build), boot to the mark, replay of the warm run, then
// the same item. The twin replays the master's exact run-slice sequence
// (wall budgets are enforced at TB boundaries, so the stop point of a
// budgeted run depends on its start), which lands both at the identical
// guest cycle: every forked session's final architectural state,
// execution counters, and console are verified bitwise against its
// twin, and the speedup is only reported if forking is observationally
// free.
// --item-cycles 0 switches to whole-workload sessions (boot-to-shutdown
// both sides).
//
// For every spec it reports sessions/sec and p50/p99 session latency
// (construction + execution) for both drains plus the resulting
// speedup. --min-speedup X turns the measured speedup into an exit-code
// gate (CI's serve-smoke step). --json writes BENCH_serve.json
// (RDBT_BENCH_JSON directory convention).
//
// Defaults: one spec "rule:scheduling/libquantum" (plus
// "rule:file=<corpus>/libquantum" when a corpus resolves), 64 sessions,
// all cores, one warm item.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "vm/BatchRunner.h"
#include "vm/Snapshot.h"
#include "vm/Vm.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace rdbt;

namespace {

/// Latency distribution of one drain: per-session Time.totalNs().
struct Drain {
  uint64_t WallNs = 0;    ///< whole-batch wall time
  uint64_t P50Ns = 0;
  uint64_t P99Ns = 0;
  double SessionsPerSec = 0;
  /// Full session-latency distribution (log2-bucketed, obs/Metrics.h) —
  /// the p50/p99 pair above collapses the fork-vs-fresh story to two
  /// points; the histogram shows the whole shape in BENCH_serve.json.
  obs::Histogram LatencyHist;
};

Drain summarize(const std::vector<vm::RunReport> &Reports, uint64_t WallNs) {
  Drain D;
  D.WallNs = WallNs;
  std::vector<uint64_t> Lat;
  Lat.reserve(Reports.size());
  for (const vm::RunReport &R : Reports) {
    Lat.push_back(R.Time.totalNs());
    D.LatencyHist.record(R.Time.totalNs());
  }
  std::sort(Lat.begin(), Lat.end());
  if (!Lat.empty()) {
    D.P50Ns = Lat[Lat.size() / 2];
    D.P99Ns = Lat[std::min(Lat.size() - 1, (Lat.size() * 99) / 100)];
  }
  if (WallNs)
    D.SessionsPerSec = static_cast<double>(Reports.size()) * 1e9 /
                       static_cast<double>(WallNs);
  return D;
}

/// Bitwise forked-vs-fresh comparison: exact counters, final
/// architectural state, console, engine stats, and the cache counters —
/// minus the two fork-provenance diagnostics (AdoptedTbs counts blocks
/// inherited from the snapshot, CowBlockCopies the chain patches that
/// privatized one; both are 0 in a fresh run by construction).
bool identicalToFresh(const vm::RunReport &F, const vm::RunReport &R,
                      std::string *Why) {
  const auto Fail = [&](const char *What) {
    if (Why)
      *Why = What;
    return false;
  };
  if (std::memcmp(&F.Counters, &R.Counters, sizeof(F.Counters)) != 0)
    return Fail("exec counters");
  // Field-wise (not memcmp): FinalArchState has tail padding.
  for (int I = 0; I < 16; ++I)
    if (F.Final.Regs[I] != R.Final.Regs[I])
      return Fail("final registers");
  if (F.Final.Nzcv != R.Final.Nzcv ||
      F.Final.ShutdownRequested != R.Final.ShutdownRequested)
    return Fail("final architectural state");
  if (F.Console != R.Console)
    return Fail("console output");
  if (std::memcmp(&F.Engine, &R.Engine, sizeof(F.Engine)) != 0)
    return Fail("engine stats");
  dbt::CacheStats A = F.Cache, B = R.Cache;
  A.AdoptedTbs = B.AdoptedTbs = 0;
  A.CowBlockCopies = B.CowBlockCopies = 0;
  if (std::memcmp(&A, &B, sizeof(A)) != 0)
    return Fail("cache stats");
  if (F.RuleCoveredInstrs != R.RuleCoveredInstrs ||
      F.FallbackInstrs != R.FallbackInstrs ||
      F.RuleMatchAttempts != R.RuleMatchAttempts ||
      F.RuleMatchHits != R.RuleMatchHits)
    return Fail("rule-translator counters");
  if (F.Ok != R.Ok || F.Stop != R.Stop)
    return Fail("stop reason");
  return true;
}

struct SpecServe {
  std::string Spec;
  uint64_t MasterPrepNs = 0;   ///< master construct + boot + warm time
  uint64_t AdoptedTbs = 0;     ///< warm TBs every fork inherits
  double NewTranslationsPerSession = 0; ///< post-capture code, paid per fork
  // Master-boot persistent-cache provenance (--cache-dir): on a warm
  // serve the master seeds its code cache from the saved file instead of
  // translating, which is exactly the drop MasterPrepNs shows.
  uint64_t MasterTranslations = 0;
  uint64_t MasterCacheFileHits = 0;
  uint64_t MasterCacheFileMisses = 0;
  uint64_t MasterLoadedTbs = 0;
  Drain Forked, Fresh;
  double Speedup = 0;
  bool Verified = false;
  bench::RunStats Session; ///< one forked session's counters + timing
};

/// The fresh-boot control drain: each session pays everything a
/// snapshotless server would pay per item — full Vm construction, boot
/// to the mark, replay of the warm run, then the item itself
/// (ItemCycles 0 = whole-workload session). The replay repeats the
/// master's exact run-slice sequence because budgeted runs stop at the
/// first TB boundary past their deadline: only identical slicing lands
/// the twin on the fork's exact guest cycle for the bitwise check.
/// BatchRunner cannot express the boot-then-budgeted-run sequence, so
/// this uses the same worker-pool shape (atomic index, Jobs threads)
/// for a like-for-like wall-time comparison.
/// With --cache-dir the twins run load-only (persistentCacheSaveOnExit
/// off): a twin that saved at destruction would rewrite the cache file
/// mid-drain, and later twins would boot from a file the master never
/// observed — diverging the bitwise fork-vs-fresh comparison.
std::vector<vm::RunReport> freshDrain(const vm::VmConfig &Cfg,
                                      unsigned Sessions, unsigned Jobs,
                                      uint64_t WarmCycles,
                                      uint64_t ItemCycles) {
  std::vector<vm::RunReport> Out(Sessions);
  std::atomic<unsigned> Next{0};
  const auto Work = [&]() {
    for (unsigned I; (I = Next.fetch_add(1)) < Sessions;) {
      vm::Vm V(Cfg);
      if (ItemCycles) {
        V.runToBootMark();
        if (WarmCycles)
          V.run(WarmCycles);
        Out[I] = V.run(ItemCycles);
      } else {
        Out[I] = V.run();
      }
    }
  };
  if (Jobs <= 1) {
    Work();
    return Out;
  }
  std::vector<std::thread> Pool;
  for (unsigned J = 0; J < Jobs; ++J)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

/// Serves one spec: boot, warm, capture, forked drain, fresh drain,
/// verify. Returns false on any failure (boot, session error,
/// divergence).
bool serveSpec(const std::string &Spec, unsigned Sessions, unsigned Jobs,
               uint64_t ItemCycles, unsigned WarmItems, bool RunFresh,
               const std::string &CacheDir, const std::string &TraceDir,
               SpecServe &Out, size_t SpecIdx) {
  Out.Spec = Spec;
  std::string Err;
  vm::VmConfig Cfg = vm::VmConfig::fromSpec(Spec, &Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "%s: %s\n", Spec.c_str(), Err.c_str());
    return false;
  }
  if (!CacheDir.empty())
    Cfg.persistentCache(CacheDir);
  const uint64_t WarmCycles = ItemCycles * WarmItems;

  // Boot the master once, warm the request path, freeze it there.
  vm::Vm Master(Cfg);
  if (!Master.valid()) {
    std::fprintf(stderr, "%s: %s\n", Spec.c_str(), Master.error().c_str());
    return false;
  }
  vm::RunReport PrepR = Master.runToBootMark();
  if (PrepR.Error.empty() && WarmCycles)
    PrepR = Master.run(WarmCycles);
  if (!PrepR.Error.empty()) {
    std::fprintf(stderr, "%s: master prep failed: %s\n", Spec.c_str(),
                 PrepR.Error.c_str());
    return false;
  }
  const vm::Snapshot Snap = Master.capture();
  Out.MasterPrepNs = PrepR.Time.totalNs();
  Out.AdoptedTbs = Snap.warmTbs();
  Out.MasterTranslations = PrepR.Engine.Translations;
  Out.MasterCacheFileHits = PrepR.Cache.CacheFileHits;
  Out.MasterCacheFileMisses = PrepR.Cache.CacheFileMisses;
  Out.MasterLoadedTbs = PrepR.Cache.LoadedTbs;

  // Drain the work items as copy-on-write forks of the one snapshot.
  // In item mode each fork's wall budget is exactly one item.
  vm::VmConfig ForkCfg = vm::VmConfig(Cfg).snapshot(&Snap);
  if (ItemCycles)
    ForkCfg.wallBudget(ItemCycles);
  // --trace-dir: one timeline per fork. The sink never crosses the
  // snapshot (capture() scrubs it), so each fork opts in at its own
  // path here; counters stay bitwise identical to the untraced drain.
  std::vector<vm::VmConfig> ForkCfgs(Sessions, ForkCfg);
  if (!TraceDir.empty())
    for (unsigned I = 0; I < Sessions; ++I)
      ForkCfgs[I].trace(TraceDir + "/serve-spec" + std::to_string(SpecIdx) +
                        "-fork" + std::to_string(I) + ".trace.json");
  const uint64_t T0 = obs::nowNs();
  const std::vector<vm::RunReport> Forked =
      vm::BatchRunner(Jobs).run(ForkCfgs);
  Out.Forked = summarize(Forked, obs::nowNs() - T0);

  for (const vm::RunReport &R : Forked) {
    // Budgeted items legitimately stop at the wall limit; whole-workload
    // sessions must power off cleanly. Errors always fail the spec.
    const bool Clean = R.Error.empty() &&
                       (ItemCycles ? (R.Stop == dbt::StopReason::WallLimit ||
                                      R.Ok)
                                   : R.Ok);
    if (!Clean) {
      std::fprintf(stderr, "%s: forked session stopped with '%s'%s%s\n",
                   Spec.c_str(), R.stopName(), R.Error.empty() ? "" : ": ",
                   R.Error.c_str());
      return false;
    }
  }

  // Translation a fork had to do itself (code first reached after the
  // capture point); everything before it rides the adopted cache. With a
  // warm item captured this is the "retranslation ~= 0" story: the
  // request path is already in the shared cache.
  double NewXl = 0;
  for (const vm::RunReport &R : Forked)
    NewXl += static_cast<double>(R.Engine.Translations -
                                 PrepR.Engine.Translations);
  Out.NewTranslationsPerSession = Sessions ? NewXl / Sessions : 0;
  const auto *Info = vm::TranslatorRegistry::global().find(Cfg.translator());
  Out.Session =
      bench::fromReport(Forked.front(), Info && Info->UsesEngine);

  if (!RunFresh) {
    Out.Verified = false;
    return true;
  }

  // The fresh-boot control: same N items, full construction + boot +
  // warm replay each. Load-only against the cache dir (see freshDrain).
  vm::VmConfig FreshCfg = Cfg;
  FreshCfg.persistentCacheSaveOnExit(false);
  const uint64_t T1 = obs::nowNs();
  const std::vector<vm::RunReport> Fresh =
      freshDrain(FreshCfg, Sessions, Jobs, WarmCycles, ItemCycles);
  Out.Fresh = summarize(Fresh, obs::nowNs() - T1);
  if (Out.Forked.WallNs)
    Out.Speedup = static_cast<double>(Out.Fresh.WallNs) /
                  static_cast<double>(Out.Forked.WallNs);

  // Bitwise verification: every forked session against its fresh twin.
  std::string Why;
  for (size_t I = 0; I < Forked.size(); ++I)
    if (!identicalToFresh(Forked[I], Fresh[I], &Why)) {
      std::fprintf(stderr,
                   "%s: forked session %zu diverged from its fresh twin "
                   "(%s)\n", Spec.c_str(), I, Why.c_str());
      return false;
    }
  Out.Verified = true;
  return true;
}

void printServe(const SpecServe &S, unsigned Sessions) {
  std::printf("%s\n", S.Spec.c_str());
  std::printf("  master prep     %10.3f ms   adopted TBs %llu, new "
              "translations/fork %.1f\n",
              S.MasterPrepNs / 1e6,
              static_cast<unsigned long long>(S.AdoptedTbs),
              S.NewTranslationsPerSession);
  if (S.MasterCacheFileHits || S.MasterCacheFileMisses || S.MasterLoadedTbs)
    std::printf("  master cache    hits %llu  misses %llu  loaded TBs %llu  "
                "translations %llu\n",
                static_cast<unsigned long long>(S.MasterCacheFileHits),
                static_cast<unsigned long long>(S.MasterCacheFileMisses),
                static_cast<unsigned long long>(S.MasterLoadedTbs),
                static_cast<unsigned long long>(S.MasterTranslations));
  std::printf("  forked  (%4u)  %10.1f sessions/sec   p50 %8.3f ms   "
              "p99 %8.3f ms\n",
              Sessions, S.Forked.SessionsPerSec, S.Forked.P50Ns / 1e6,
              S.Forked.P99Ns / 1e6);
  if (S.Fresh.WallNs) {
    std::printf("  fresh   (%4u)  %10.1f sessions/sec   p50 %8.3f ms   "
                "p99 %8.3f ms\n",
                Sessions, S.Fresh.SessionsPerSec, S.Fresh.P50Ns / 1e6,
                S.Fresh.P99Ns / 1e6);
    std::printf("  speedup %.2fx; forked finals %s\n", S.Speedup,
                S.Verified ? "bitwise-identical to fresh twins"
                           : "UNVERIFIED");
  }
}

bool writeServeJson(const std::vector<SpecServe> &Serves, unsigned Sessions,
                    unsigned Jobs, uint64_t ItemCycles, unsigned WarmItems) {
  const char *Env = std::getenv("RDBT_BENCH_JSON");
  const std::string Dir =
      (!Env || *Env == '\0' || std::string(Env) == "1") ? "." : Env;
  const std::string Path = Dir + "/BENCH_serve.json";
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  OS << "{\n  \"bench\": \"serve\",\n  \"sessions\": " << Sessions
     << ",\n  \"jobs\": " << Jobs << ",\n  \"item_cycles\": " << ItemCycles
     << ",\n  \"warm_items\": " << WarmItems << ",\n  \"specs\": [";
  for (size_t I = 0; I < Serves.size(); ++I) {
    const SpecServe &S = Serves[I];
    OS << (I ? ",\n" : "\n") << "    {\"spec\": \""
       << bench::jsonEscape(S.Spec) << "\", \"master_prep_ns\": "
       << S.MasterPrepNs << ", \"adopted_tbs\": " << S.AdoptedTbs
       << ", \"new_translations_per_session\": "
       << S.NewTranslationsPerSession
       << ", \"master_translations\": " << S.MasterTranslations
       << ", \"master_cache_file_hits\": " << S.MasterCacheFileHits
       << ", \"master_cache_file_misses\": " << S.MasterCacheFileMisses
       << ", \"master_loaded_tbs\": " << S.MasterLoadedTbs
       << ", \"verified_identical\": " << (S.Verified ? "true" : "false")
       << ", \"speedup\": " << S.Speedup
       << ",\n     \"forked\": {\"wall_ns\": " << S.Forked.WallNs
       << ", \"sessions_per_sec\": " << S.Forked.SessionsPerSec
       << ", \"p50_ns\": " << S.Forked.P50Ns
       << ", \"p99_ns\": " << S.Forked.P99Ns << ", \"latency_hist\": ";
    bench::writeHistogramJson(OS, S.Forked.LatencyHist);
    OS << "}"
       << ",\n     \"fresh\": {\"wall_ns\": " << S.Fresh.WallNs
       << ", \"sessions_per_sec\": " << S.Fresh.SessionsPerSec
       << ", \"p50_ns\": " << S.Fresh.P50Ns
       << ", \"p99_ns\": " << S.Fresh.P99Ns << ", \"latency_hist\": ";
    bench::writeHistogramJson(OS, S.Fresh.LatencyHist);
    OS << "}"
       << ",\n     \"session\": {";
    bench::writeRunStatsFields(OS, S.Session, /*WithTiming=*/true);
    OS << "}}";
  }
  OS << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", Path.c_str());
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Specs;
  unsigned Sessions = 64;
  unsigned Jobs = vm::BatchRunner::hardwareJobs();
  const char *Corpus = nullptr;
  uint64_t ItemCycles = 150000;
  unsigned WarmItems = 1;
  double MinSpeedup = 0;
  bool RunFresh = true;
  bool Json = false;
  std::string CacheDir;
  std::string TraceDir;

  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--spec") == 0 && I + 1 < argc) {
      Specs.push_back(argv[++I]);
    } else if (std::strcmp(argv[I], "--sessions") == 0 && I + 1 < argc) {
      Sessions = static_cast<unsigned>(std::atoi(argv[++I]));
    } else if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc) {
      if (!bench::parsePositive("--jobs", argv[++I], Jobs))
        return 2;
    } else if (std::strcmp(argv[I], "--corpus") == 0 && I + 1 < argc) {
      Corpus = argv[++I];
    } else if (std::strcmp(argv[I], "--item-cycles") == 0 && I + 1 < argc) {
      ItemCycles = static_cast<uint64_t>(std::atoll(argv[++I]));
    } else if (std::strcmp(argv[I], "--warm-items") == 0 && I + 1 < argc) {
      WarmItems = static_cast<unsigned>(std::atoi(argv[++I]));
    } else if (std::strcmp(argv[I], "--min-speedup") == 0 && I + 1 < argc) {
      MinSpeedup = std::atof(argv[++I]);
    } else if (std::strcmp(argv[I], "--cache-dir") == 0 && I + 1 < argc) {
      CacheDir = argv[++I];
    } else if (std::strcmp(argv[I], "--trace-dir") == 0 && I + 1 < argc) {
      TraceDir = argv[++I];
    } else if (std::strcmp(argv[I], "--no-fresh") == 0) {
      RunFresh = false;
    } else if (std::strcmp(argv[I], "--json") == 0) {
      Json = true;
    } else {
      std::fprintf(stderr,
                   "unexpected argument '%s'\n"
                   "usage: rdbt_serve [--spec S]... [--sessions N] "
                   "[--jobs J] [--corpus F] [--item-cycles W] "
                   "[--warm-items K] [--min-speedup X] "
                   "[--cache-dir D] [--trace-dir D] [--no-fresh] "
                   "[--json]\n", argv[I]);
      return 2;
    }
  }
  if (!Sessions)
    Sessions = 1;
  if (Specs.empty()) {
    Specs.push_back("rule:scheduling/libquantum");
    if (Corpus)
      Specs.push_back(std::string("rule:file=") + Corpus + "/libquantum");
  }

  if (ItemCycles)
    std::printf("serving %u work item(s) of %llu cycle(s) per spec on %u "
                "job(s): boot once, warm %u item(s), capture, fork "
                "copy-on-write per item\n\n",
                Sessions, static_cast<unsigned long long>(ItemCycles), Jobs,
                WarmItems);
  else
    std::printf("serving %u whole-workload session(s) per spec on %u "
                "job(s): boot once, capture, fork copy-on-write\n\n",
                Sessions, Jobs);

  std::vector<SpecServe> Serves;
  int Failures = 0;
  for (size_t SpecIdx = 0; SpecIdx < Specs.size(); ++SpecIdx) {
    const std::string &Spec = Specs[SpecIdx];
    SpecServe S;
    if (!serveSpec(Spec, Sessions, Jobs, ItemCycles, WarmItems, RunFresh,
                   CacheDir, TraceDir, S, SpecIdx)) {
      ++Failures;
      continue;
    }
    printServe(S, Sessions);
    if (RunFresh && MinSpeedup > 0 && S.Speedup < MinSpeedup) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx below the --min-speedup "
                           "%.2fx gate\n", Spec.c_str(), S.Speedup,
                   MinSpeedup);
      ++Failures;
    }
    Serves.push_back(std::move(S));
  }

  if (Json && !writeServeJson(Serves, Sessions, Jobs, ItemCycles, WarmItems))
    ++Failures;

  if (Failures) {
    std::fprintf(stderr, "\n%d serve spec(s) failed\n", Failures);
    return 1;
  }
  std::printf("\nall %zu spec(s) served clean%s\n", Serves.size(),
              RunFresh ? "; every forked final bitwise-identical to its "
                         "fresh twin" : "");
  return 0;
}
