//===- tests/BatchRunnerTest.cpp - Parallel batch executor tests ------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the perf-regression gate rests on (DESIGN.md §9):
///
///  * Determinism: the merged matrix JSON serialized from a BatchRunner
///    result is byte-identical whether the batch ran on 1 worker or 8 —
///    results are keyed by submission index and sessions share no
///    mutable state.
///  * Shared-corpus stats isolation: sessions matching against ONE
///    const RuleSet concurrently report exactly the per-session matcher
///    counters a solo run of the same config reports.
///  * Facade equivalence: batching one config changes nothing about the
///    run — counter-for-counter identical to Vm::run.
///  * Error containment: an invalid config fails its own cell, not the
///    batch.
///  * The warm-boot gate: bench::warmBootDiff passes a real cache-booted
///    rerun and names what a translating, rejected or diverged one broke.
///  * The exact-count gate: bench::parseMatrixJson reads what
///    formatMatrixJson writes (and the checked-in baseline), rejects
///    malformed documents, and bench::compareMatrices / gateMatrix fail
///    every counter change, missing or new cell and scale mismatch,
///    waiving interp_* and obs_* only for runs that move them.
///  * The paper's figures: bench::formatPaperFigures reads Table I and
///    Figs. 14-19 off matrix cells, and a failed cell fails its workload's
///    row in exactly the figures that read it.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "vm/BatchRunner.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace rdbt;

namespace {

/// A small but heterogeneous kind x workload matrix: engine and
/// interpreter executors, two rule opt-levels, workloads with different
/// lengths so parallel completion order differs from submission order.
std::vector<vm::VmConfig> smallMatrix() {
  std::vector<vm::VmConfig> Configs;
  for (const char *Kind :
       {"native", "qemu", "rule:base", "rule:scheduling"})
    for (const char *Workload : {"cpu-prime", "libquantum", "mcf"})
      Configs.push_back(
          vm::VmConfig().translator(Kind).workload(Workload).scale(1));
  return Configs;
}

std::string matrixJsonOf(const std::vector<vm::RunReport> &Reports) {
  std::vector<bench::MatrixCell> Cells;
  for (const vm::RunReport &R : Reports)
    Cells.push_back({R.Spec, bench::fromReport(R)});
  return bench::formatMatrixJson(Cells, 1);
}

TEST(BatchRunner, MergedJsonIsByteIdenticalAcrossJobCounts) {
  const std::vector<vm::VmConfig> Configs = smallMatrix();
  const std::vector<vm::RunReport> Serial =
      vm::BatchRunner(1).run(Configs);
  ASSERT_EQ(Serial.size(), Configs.size());
  for (const vm::RunReport &R : Serial)
    EXPECT_TRUE(R.Ok) << R.Spec << ": " << R.stopName();

  const std::string Reference = matrixJsonOf(Serial);
  for (const unsigned Jobs : {2u, 8u}) {
    const std::vector<vm::RunReport> Parallel =
        vm::BatchRunner(Jobs).run(Configs);
    ASSERT_EQ(Parallel.size(), Configs.size());
    EXPECT_EQ(matrixJsonOf(Parallel), Reference)
        << "matrix JSON must be bitwise identical at --jobs " << Jobs;
  }
}

TEST(BatchRunner, SharedCorpusSessionsDoNotBleedMatchCounters) {
  // One immutable corpus, shared read-only by every session in the
  // batch. Per-session matcher counters must equal the solo run's.
  const rules::RuleSet Corpus = rules::buildReferenceRuleSet();
  std::vector<vm::VmConfig> Configs;
  for (const char *Workload : {"cpu-prime", "libquantum", "mcf", "hmmer"})
    Configs.push_back(vm::VmConfig()
                          .translator("rule:scheduling")
                          .workload(Workload)
                          .rules(&Corpus));

  const std::vector<vm::RunReport> Concurrent =
      vm::BatchRunner(4).run(Configs);
  ASSERT_EQ(Concurrent.size(), Configs.size());
  for (size_t I = 0; I < Configs.size(); ++I) {
    ASSERT_TRUE(Concurrent[I].Ok) << Concurrent[I].Spec;
    vm::Vm Solo(Configs[I]);
    ASSERT_TRUE(Solo.valid()) << Solo.error();
    const vm::RunReport Ref = Solo.run();
    EXPECT_GT(Concurrent[I].RuleMatchAttempts, 0u);
    EXPECT_EQ(Concurrent[I].RuleMatchAttempts, Ref.RuleMatchAttempts)
        << Concurrent[I].Spec
        << ": concurrent sessions must not bleed attempts";
    EXPECT_EQ(Concurrent[I].RuleMatchHits, Ref.RuleMatchHits)
        << Concurrent[I].Spec;
  }
}

TEST(BatchRunner, BatchOfOneMatchesVmRunCounterForCounter) {
  const vm::VmConfig Cfg =
      vm::VmConfig().translator("rule:scheduling").workload("libquantum");

  vm::Vm V(Cfg);
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport Ref = V.run();

  const std::vector<vm::RunReport> Batch = vm::BatchRunner(1).run({Cfg});
  ASSERT_EQ(Batch.size(), 1u);
  const vm::RunReport &R = Batch[0];

  EXPECT_EQ(R.Stop, Ref.Stop);
  EXPECT_EQ(R.Ok, Ref.Ok);
  EXPECT_EQ(R.Spec, Ref.Spec);
  EXPECT_EQ(R.Console, Ref.Console);
  EXPECT_EQ(R.Counters.Wall, Ref.Counters.Wall);
  EXPECT_EQ(R.Counters.GuestInstrs, Ref.Counters.GuestInstrs);
  EXPECT_EQ(R.Counters.GuestMemInstrs, Ref.Counters.GuestMemInstrs);
  EXPECT_EQ(R.Counters.GuestSysInstrs, Ref.Counters.GuestSysInstrs);
  EXPECT_EQ(R.Counters.IrqChecks, Ref.Counters.IrqChecks);
  EXPECT_EQ(R.Counters.SyncOps, Ref.Counters.SyncOps);
  EXPECT_EQ(R.Counters.TbEntries, Ref.Counters.TbEntries);
  EXPECT_EQ(R.Counters.ChainFollows, Ref.Counters.ChainFollows);
  EXPECT_EQ(R.Counters.HelperCalls, Ref.Counters.HelperCalls);
  for (unsigned K = 0; K < host::NumCostClasses; ++K)
    EXPECT_EQ(R.Counters.ByClass[K], Ref.Counters.ByClass[K])
        << "cost class " << K;
  EXPECT_EQ(R.Engine.Translations, Ref.Engine.Translations);
  EXPECT_EQ(R.Cache.Flushes, Ref.Cache.Flushes);
  EXPECT_EQ(R.RuleCoveredInstrs, Ref.RuleCoveredInstrs);
  EXPECT_EQ(R.FallbackInstrs, Ref.FallbackInstrs);
  EXPECT_EQ(R.RuleMatchAttempts, Ref.RuleMatchAttempts);
  EXPECT_EQ(R.RuleMatchHits, Ref.RuleMatchHits);
}

TEST(BatchRunner, InvalidConfigFailsItsCellNotTheBatch) {
  std::vector<vm::VmConfig> Configs;
  Configs.push_back(
      vm::VmConfig().translator("no-such-kind").workload("cpu-prime"));
  Configs.push_back(
      vm::VmConfig().translator("rule:scheduling").workload("cpu-prime"));

  const std::vector<vm::RunReport> Reports =
      vm::BatchRunner(2).run(Configs);
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_FALSE(Reports[0].Ok);
  EXPECT_FALSE(Reports[0].Error.empty())
      << "the invalid cell must carry its construction error";
  EXPECT_TRUE(Reports[1].Ok)
      << "a bad cell must not poison the rest of the batch";
}

TEST(BenchJson, RecordsTheScaleTheCallerRanAt) {
  // The file records the scale its caller ran at, never
  // RDBT_BENCH_SCALE's, and no scale for a caller that runs no workload.
  char Buf[] = "/tmp/rdbt-json-XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(Buf));
  setenv("RDBT_BENCH_SCALE", "4", /*overwrite=*/1);
  setenv("RDBT_BENCH_JSON", Buf, /*overwrite=*/1);
  bench::writeBenchJson("scaled", 1);
  bench::writeBenchJson("unscaled", 0);
  unsetenv("RDBT_BENCH_JSON");
  unsetenv("RDBT_BENCH_SCALE");
  const auto Slurp = [&](const char *Name) {
    const std::string Path = std::string(Buf) + "/" + Name;
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    std::remove(Path.c_str());
    return SS.str();
  };
  const std::string Scaled = Slurp("BENCH_scaled.json");
  const std::string Unscaled = Slurp("BENCH_unscaled.json");
  std::remove(Buf);
  EXPECT_NE(Scaled.find("\"bench\": \"scaled\",\n  \"scale\": 1,\n"),
            std::string::npos)
      << Scaled;
  EXPECT_NE(Unscaled.find("\"bench\": \"unscaled\",\n  \"runs\": ["),
            std::string::npos)
      << Unscaled;
}

TEST(BatchRunner, WarmBootDiffGatesTheWarmPass) {
  char Buf[] = "/tmp/rdbt-warm-XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(Buf));
  const vm::VmConfig Cfg = vm::VmConfig()
                               .translator("rule:scheduling")
                               .workload("cpu-prime")
                               .scale(1)
                               .persistentCache(Buf);
  bench::RunStats Cold, Warm;
  std::string Path;
  {
    vm::Vm V(Cfg);
    ASSERT_TRUE(V.valid()) << V.error();
    Cold = bench::fromReport(V.run());
    Path = V.cacheFilePath();
  }
  {
    vm::Vm V(Cfg);
    Warm = bench::fromReport(V.run());
  }
  std::remove(Path.c_str());
  std::remove(Buf);
  ASSERT_TRUE(Cold.Ok && Warm.Ok);
  ASSERT_GT(Cold.Translations, 0u);
  ASSERT_EQ(Warm.CacheFileHits, 1u);
  EXPECT_EQ("", bench::warmBootDiff(Cold, Warm));

  bench::RunStats Bad = Warm;
  Bad.Translations = 7;
  Bad.TranslatedGuestInstrs = 40;
  EXPECT_EQ("warm boot still translated 7 block(s)",
            bench::warmBootDiff(Cold, Bad));

  Bad = Warm;
  Bad.CacheFileHits = 0;
  Bad.CacheFileMisses = 1;
  EXPECT_EQ("warm boot rejected a cache file", bench::warmBootDiff(Cold, Bad));

  Bad = Warm;
  ++Bad.Wall;
  EXPECT_EQ("wall: cold " + std::to_string(Cold.Wall) + ", warm " +
                std::to_string(Cold.Wall + 1),
            bench::warmBootDiff(Cold, Bad));

  // The fields a warm boot moves by design, and the obs_* family, are
  // waived; the first other difference is named.
  bench::RunStats Moved = Warm;
  Moved.LoadedTbs += 5;
  ++Moved.RuleMatchHits;
  Moved.Obs.Enabled = true;
  Moved.Obs.Events = 9;
  EXPECT_EQ("", bench::warmBootDiff(Cold, Moved));
  ++Moved.InterpDecodeMisses;
  ++Moved.SyncOps;
  EXPECT_EQ("sync_ops: cold " + std::to_string(Cold.SyncOps) + ", warm " +
                std::to_string(Cold.SyncOps + 1),
            bench::warmBootDiff(Cold, Moved));
}

namespace {

/// A two-cell matrix document in the writer's layout; \p QemuWall and
/// \p QemuExtra (more fields) vary the qemu cell.
std::string matrixText(const std::string &QemuWall = "450",
                       const std::string &QemuExtra = "",
                       const std::string &Scale = "1") {
  return "{\n  \"bench\": \"matrix\",\n  \"scale\": " + Scale +
         ",\n  \"matrix\": {\n"
         "    \"native/a@1\": {\"ok\": true, \"wall\": 100, "
         "\"guest_instrs\": 100},\n"
         "    \"qemu/a@1\": {\"ok\": true, \"wall\": " +
         QemuWall + ", \"guest_instrs\": 100" + QemuExtra + "}\n  }\n}\n";
}

const char *const OneCellText =
    "{\"scale\": 1, \"matrix\": {\"native/a@1\": "
    "{\"ok\": true, \"wall\": 100, \"guest_instrs\": 100}}}";

bench::MatrixDoc readDoc(const std::string &Text) {
  bench::MatrixDoc Doc;
  std::string Error;
  EXPECT_TRUE(bench::parseMatrixJson(Text, Doc, Error)) << Error << "\n"
                                                        << Text;
  return Doc;
}

/// compareMatrices' regression count, with its lines in \p Diffs.
int regressions(const std::string &Base, const std::string &Cur,
                const std::vector<std::string> &Waived = {},
                std::vector<std::string> *Diffs = nullptr) {
  std::vector<std::string> Lines;
  const int N =
      bench::compareMatrices(readDoc(Base), readDoc(Cur), Waived, Lines);
  if (Diffs)
    *Diffs = Lines;
  return N;
}

} // namespace

TEST(MatrixGate, IdenticalDocumentsPass) {
  const bench::MatrixDoc Doc = readDoc(matrixText());
  EXPECT_EQ(Doc.Scale, "1");
  ASSERT_EQ(Doc.Cells.size(), 2u);
  ASSERT_NE(Doc.cell("qemu/a@1"), nullptr);
  ASSERT_NE(Doc.cell("qemu/a@1")->field("wall"), nullptr);
  EXPECT_EQ(*Doc.cell("qemu/a@1")->field("wall"), "450");
  std::vector<std::string> Diffs;
  EXPECT_EQ(regressions(matrixText(), matrixText(), {}, &Diffs), 0);
  EXPECT_TRUE(Diffs.empty());
}

TEST(MatrixGate, OneChangedCounterIsOneRegression) {
  std::vector<std::string> Diffs;
  EXPECT_EQ(regressions(matrixText(), matrixText("451"), {}, &Diffs), 1);
  ASSERT_EQ(Diffs.size(), 1u);
  EXPECT_EQ(Diffs[0], "FAIL: qemu/a@1.wall: 450 -> 451");
}

TEST(MatrixGate, MissingOrNewScenarioFailsBothWays) {
  std::vector<std::string> Diffs;
  EXPECT_EQ(regressions(matrixText(), OneCellText, {}, &Diffs), 1);
  ASSERT_EQ(Diffs.size(), 1u);
  EXPECT_EQ(Diffs[0], "FAIL: qemu/a@1: missing from current run");
  EXPECT_EQ(regressions(OneCellText, matrixText(), {}, &Diffs), 1);
  ASSERT_EQ(Diffs.size(), 1u);
  EXPECT_EQ(Diffs[0],
            "FAIL: qemu/a@1: not in baseline (update bench/baselines/)");
}

TEST(MatrixGate, NoFieldWaiverExcusesAMissingCell) {
  const std::vector<std::string> Everything = {"q", "o", "w", "g", "qemu/"};
  EXPECT_EQ(regressions(matrixText(), OneCellText, Everything), 1);
  EXPECT_EQ(regressions(OneCellText, matrixText(), Everything), 1);
}

TEST(MatrixGate, ObsWaiverSkipsTheFieldClassButNotACounterDelta) {
  const std::string Obs =
      ", \"obs_events\": 42, \"obs_translate_ns_count\": 7";
  std::vector<std::string> Diffs;
  EXPECT_EQ(regressions(matrixText(), matrixText("450", Obs), {}, &Diffs), 2);
  EXPECT_EQ(regressions(matrixText(), matrixText("450", Obs), {"obs_"},
                        &Diffs),
            0);
  // One line for the prefix, however many fields and cells it excused.
  ASSERT_EQ(Diffs.size(), 1u);
  EXPECT_EQ(Diffs[0], "allowed: obs_*: 2 differing field(s) in 1 cell(s)");
  EXPECT_EQ(regressions(matrixText(), matrixText("451", Obs), {"obs_"},
                        &Diffs),
            1);
  ASSERT_EQ(Diffs.size(), 2u);
  EXPECT_EQ(Diffs[0], "FAIL: qemu/a@1.wall: 450 -> 451");
  EXPECT_EQ(Diffs[1], "allowed: obs_*: 2 differing field(s) in 1 cell(s)");
  // Waived obs_* fields missing from the current run pass as well.
  EXPECT_EQ(regressions(matrixText("450", Obs), matrixText(), {"obs_"}), 0);
}

TEST(MatrixGate, ScaleMismatchFails) {
  std::vector<std::string> Diffs;
  EXPECT_EQ(regressions(matrixText(), matrixText("450", "", "4"), {"obs_"},
                        &Diffs),
            1);
  ASSERT_EQ(Diffs.size(), 1u);
  EXPECT_EQ(Diffs[0], "FAIL: scale mismatch: baseline 1, current 4");
}

TEST(MatrixGate, MalformedDocumentsAreRejected) {
  for (const char *Bad : {
           "",
           "[]",
           "{}",
           "{\"scale\": 1}",
           "{\"matrix\": []}",
           "{\"matrix\": {\"a@1\": 3}}",
           "{\"matrix\": {\"a@1\": {\"wall\": }}}",
           "{\"matrix\": {\"a@1\": {\"wall\" 1}}}",
           "{\"matrix\": {\"a@1\": {\"wall\": 1 \"ok\": true}}}",
           "{\"matrix\": {\"a@1\": {\"wall\": 1}}",
           "{\"matrix\": {\"a@1",
           "{\"matrix\": {}} trailing",
           "{\"matrix\": {\"a@1\": {}, \"a@1\": {}}}",
           "{\"matrix\": {\"a@1\": {\"wall\": 1, \"wall\": 1}}}",
           "{\"matrix\": {\"a@1\": {\"wall\": 1,}}}",
       }) {
    bench::MatrixDoc Doc;
    std::string Error;
    EXPECT_FALSE(bench::parseMatrixJson(Bad, Doc, Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
  EXPECT_EQ(readDoc("{\"matrix\": {}}").Cells.size(), 0u);
}

TEST(MatrixGate, CheckedInBaselineReadsAsTheFullMatrix) {
  bench::MatrixDoc Doc;
  std::string Error;
  ASSERT_TRUE(bench::readMatrixJsonFile(RDBT_MATRIX_BASELINE, Doc, Error))
      << Error;
  EXPECT_EQ(Doc.Scale, "1");
  EXPECT_EQ(Doc.Cells.size(), 133u);
  size_t Expected = 0;
  for (const std::string &Kind : vm::TranslatorRegistry::global().kinds())
    for (const auto &W : guestsw::workloads()) {
      ++Expected;
      const std::string Key = Kind + "/" + W.Name + "@1";
      const bench::MatrixDoc::Cell *C = Doc.cell(Key);
      ASSERT_NE(C, nullptr) << Key;
      EXPECT_EQ(C->Fields.size(), 29u) << Key;
      ASSERT_NE(C->field("ok"), nullptr) << Key;
      EXPECT_EQ(*C->field("ok"), "true") << Key;
    }
  EXPECT_EQ(Expected, Doc.Cells.size());
}

TEST(MatrixGate, WriterReadsBackFieldForField) {
  bench::RunStats S;
  uint64_t V = 1;
  for (uint64_t *F :
       {&S.Wall, &S.GuestInstrs, &S.MemInstrs, &S.SysInstrs, &S.IrqChecks,
        &S.SyncInstrs, &S.SyncOps, &S.HostInstrs, &S.CacheFlushes,
        &S.TbsInvalidated, &S.TbsRetained, &S.LiveTbs, &S.Retranslations,
        &S.RetranslatedGuestInstrs, &S.RuleCoveredInstrs, &S.FallbackInstrs,
        &S.RuleMatchAttempts, &S.RuleMatchHits, &S.GapSeqs,
        &S.GapTranslations, &S.GapExecs, &S.Translations,
        &S.TranslatedGuestInstrs, &S.CacheFileHits, &S.CacheFileMisses,
        &S.LoadedTbs, &S.InterpDecodeHits, &S.InterpDecodeMisses})
    *F = V++ * 1000003;
  bench::RunStats Traced = S;
  Traced.Ok = true;
  Traced.Obs.Enabled = true;
  Traced.Obs.Events = 77;
  Traced.Obs.Dropped = 2;
  Traced.Obs.Metrics.counter("chain_follows") = 12;
  Traced.Obs.Metrics.histogram("translate_ns").record(40);
  const std::string OddKey = "rule:file/\"odd\\key\"@1";
  const bench::MatrixDoc Doc = readDoc(
      bench::formatMatrixJson({{"native/a@1", S}, {OddKey, Traced}}, 3));
  EXPECT_EQ(Doc.Scale, "3");
  ASSERT_EQ(Doc.Cells.size(), 2u);
  EXPECT_EQ(Doc.Cells[0].Key, "native/a@1");
  EXPECT_EQ(Doc.Cells[1].Key, OddKey);

  const std::vector<std::string> Names = {
      "ok", "wall", "guest_instrs", "mem_instrs", "sys_instrs", "irq_checks",
      "sync_instrs", "sync_ops", "host_instrs", "cache_flushes",
      "tbs_invalidated", "tbs_retained", "live_tbs", "retranslations",
      "retranslated_guest_instrs", "rule_covered_instrs", "fallback_instrs",
      "rule_match_attempts", "rule_match_hits", "gap_seqs",
      "gap_translations", "gap_execs", "translations",
      "translated_guest_instrs", "cache_file_hits", "cache_file_misses",
      "loaded_tbs", "interp_decode_hits", "interp_decode_misses"};
  const std::vector<std::pair<std::string, std::string>> Obs = {
      {"obs_events", "77"},           {"obs_dropped_events", "2"},
      {"obs_chain_follows", "12"},    {"obs_translate_ns_count", "1"},
      {"obs_translate_ns_sum", "40"}, {"obs_translate_ns_max", "40"}};
  for (size_t C = 0; C < 2; ++C) {
    const auto &Fields = Doc.Cells[C].Fields;
    ASSERT_EQ(Fields.size(), Names.size() + (C ? Obs.size() : 0));
    EXPECT_EQ(Fields[0].first, "ok");
    EXPECT_EQ(Fields[0].second, C ? "true" : "false");
    for (size_t I = 1; I < Names.size(); ++I) {
      EXPECT_EQ(Fields[I].first, Names[I]);
      EXPECT_EQ(Fields[I].second, std::to_string(I * 1000003));
    }
    for (size_t I = 0; C && I < Obs.size(); ++I)
      EXPECT_EQ(Fields[Names.size() + I], Obs[I]);
  }
}

TEST(MatrixGate, WaiversFollowTheRunsSettings) {
  const auto Cells = [](bench::RunStats S) {
    return std::vector<bench::MatrixCell>{{"qemu/a@1", S}};
  };
  bench::RunStats S;
  S.Ok = true;
  S.Wall = 450;
  S.InterpDecodeHits = 90;
  const bench::MatrixDoc Base = readDoc(bench::formatMatrixJson(Cells(S), 1));
  const auto Gate = [&](const bench::RunStats &Cur, bool IfpOff,
                        bool Traced) {
    std::vector<std::string> Diffs;
    return bench::gateMatrix(Base, Cells(Cur), 1, IfpOff, Traced, Diffs);
  };
  EXPECT_EQ(Gate(S, false, false), 0);

  // interp_* is waived exactly when the fastpath was off.
  bench::RunStats IfpOff = S;
  IfpOff.InterpDecodeHits = 0;
  IfpOff.InterpDecodeMisses = 90;
  EXPECT_EQ(Gate(IfpOff, false, false), 2);
  EXPECT_EQ(Gate(IfpOff, false, true), 2);
  EXPECT_EQ(Gate(IfpOff, true, false), 0);

  // obs_* is waived exactly when the run was traced.
  bench::RunStats Traced = S;
  Traced.Obs.Enabled = true;
  Traced.Obs.Events = 5;
  EXPECT_EQ(Gate(Traced, false, false), 2);
  EXPECT_EQ(Gate(Traced, true, false), 2);
  EXPECT_EQ(Gate(Traced, false, true), 0);

  // No setting waives a counter, or the scale.
  bench::RunStats Slower = Traced;
  ++Slower.Wall;
  EXPECT_EQ(Gate(Slower, true, true), 1);
  std::vector<std::string> Diffs;
  EXPECT_GE(bench::gateMatrix(Base, Cells(S), 2, true, true, Diffs), 1);
}

TEST(BatchRunner, EmptyBatchAndZeroJobsAreSafe) {
  EXPECT_TRUE(vm::BatchRunner(0).run({}).empty());
  EXPECT_EQ(vm::BatchRunner(0).jobs(), 1u);
  EXPECT_GE(vm::BatchRunner::hardwareJobs(), 1u);
}

} // namespace

namespace {

/// A hand-built scale-1 matrix. Every workload runs 1000 guest
/// instructions; the engine kinds' walls make qemu 20x native and the
/// rule levels 0.80x / 1.25x / 1.60x / 2.00x faster than qemu, with 8 /
/// 2 / 1 / 0.5 sync host instructions per guest instruction. mcf's rule
/// levels alone are slower (0.50x ... 1.60x, sync 16 ... 1), so whether
/// mcf joins a GEOMEAN shows in its value. Scheduling halves base's
/// sync ops, so Fig. 14's coordination share reads 46.0% -> 23.0%.
std::vector<bench::MatrixCell> figureCells() {
  struct KindCost {
    const char *Kind;
    uint64_t Wall, McfWall, Sync, McfSync, SyncOps;
  };
  const KindCost Kinds[] = {
      {"native", 1000, 1000, 0, 0, 0},
      {"qemu", 20000, 20000, 0, 0, 0},
      {"rule:base", 25000, 40000, 8000, 16000, 400},
      {"rule:reduction", 16000, 20000, 2000, 4000, 300},
      {"rule:elimination", 12500, 16000, 1000, 2000, 250},
      {"rule:scheduling", 10000, 12500, 500, 1000, 200},
  };
  std::vector<bench::MatrixCell> Cells;
  for (const KindCost &K : Kinds)
    for (const auto &W : guestsw::workloads()) {
      const bool Mcf = std::string(W.Name) == "mcf";
      bench::MatrixCell C;
      C.Key = std::string(K.Kind) + "/" + W.Name + "@1";
      C.S.Ok = true;
      C.S.GuestInstrs = 1000;
      C.S.SysInstrs = 10;
      C.S.MemInstrs = 300;
      C.S.IrqChecks = 150;
      C.S.Wall = Mcf ? K.McfWall : K.Wall;
      C.S.SyncInstrs = Mcf ? K.McfSync : K.Sync;
      C.S.SyncOps = K.SyncOps;
      Cells.push_back(C);
    }
  return Cells;
}

/// The text of the figure titled \p Title, up to its "paper:" line.
std::string figure(const std::string &Out, const std::string &Title) {
  const size_t Begin = Out.find(Title);
  if (Begin == std::string::npos)
    return "";
  return Out.substr(Begin, Out.find("\npaper", Begin) - Begin);
}

} // namespace

TEST(PaperFigures, AllOkCellsFillEveryRowAndGeomean) {
  const std::string Out = bench::formatPaperFigures(figureCells(), 1);
  EXPECT_EQ(Out.find("FAILED"), std::string::npos);
  const std::string Fig16 = figure(Out, "Fig. 16:");
  EXPECT_NE(Fig16.find("Fig. 16: cumulative speedup over QEMU (scale 1)"),
            std::string::npos);
  EXPECT_NE(Fig16.find("\nmcf               0.50x        1.00x         "
                       "1.25x        1.60x\n"),
            std::string::npos);
  EXPECT_NE(Fig16.find("\nhmmer             0.80x        1.25x         "
                       "1.60x        2.00x\n"),
            std::string::npos);
  // mcf's slower levels pull every GEOMEAN below the others' value.
  EXPECT_EQ(Fig16.find("GEOMEAN           0.80x"), std::string::npos);
  EXPECT_NE(Fig16.find("GEOMEAN           0.77x"), std::string::npos)
      << Fig16;
  EXPECT_NE(figure(Out, "Fig. 19:").find("\nGEOMEAN           1.00x      "
                                         "2.00x\n"),
            std::string::npos);
  EXPECT_NE(figure(Out, "Table I:").find("\nGEOMEAN                 1.00%"
                                         "         30.00%           "
                                         "15.00%\n"),
            std::string::npos);
  EXPECT_NE(Out.find("\npaper: qemu 18.73x, full-opt 13.83x\n"),
            std::string::npos);
}

TEST(PaperFigures, FailedCellFailsOnlyTheFiguresThatReadIt) {
  std::vector<bench::MatrixCell> Cells = figureCells();
  for (bench::MatrixCell &C : Cells)
    if (C.Key == "rule:reduction/mcf@1")
      C.S.Ok = false;
  const std::string Out = bench::formatPaperFigures(Cells, 1);

  // Figs. 16 and 17 read rule:reduction: mcf fails there and leaves
  // every level's GEOMEAN to the other workloads.
  const std::string Fig16 = figure(Out, "Fig. 16:");
  EXPECT_NE(Fig16.find("\nmcf           FAILED\n"), std::string::npos);
  EXPECT_NE(Fig16.find("\nGEOMEAN           0.80x        1.25x         "
                       "1.60x        2.00x"),
            std::string::npos)
      << Fig16;
  const std::string Fig17 = figure(Out, "Fig. 17:");
  EXPECT_NE(Fig17.find("\nmcf           FAILED\n"), std::string::npos);
  EXPECT_NE(Fig17.find("\nGEOMEAN            8.00         2.00          "
                       "1.00         0.50"),
            std::string::npos)
      << Fig17;

  // The figures that do not read it still list mcf.
  EXPECT_NE(figure(Out, "Table I:")
                .find("\nmcf                     1.00%         30.00%  "
                      "         15.00%\n"),
            std::string::npos);
  EXPECT_NE(figure(Out, "Fig. 14:")
                .find("\nmcf               1.00x      0.50x      1.60x  "
                      "(46.0% -> 23.0% sync ops)\n"),
            std::string::npos)
      << figure(Out, "Fig. 14:");
  EXPECT_NE(figure(Out, "Fig. 15:")
                .find("\nmcf                 20.00        12.50\n"),
            std::string::npos);
  EXPECT_NE(figure(Out, "Fig. 18:")
                .find("\nmcf                20.00x       12.50x\n"),
            std::string::npos);
  size_t Failed = 0;
  for (size_t At = Out.find("FAILED"); At != std::string::npos;
       At = Out.find("FAILED", At + 1))
    ++Failed;
  EXPECT_EQ(Failed, 2u) << "mcf's rows in Figs. 16 and 17 only";
}
