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
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "vm/BatchRunner.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

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
