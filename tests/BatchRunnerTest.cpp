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
