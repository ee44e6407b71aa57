//===- tests/VmTest.cpp - Session facade tests ------------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The vm/ layer's contract: spec strings round-trip through
/// VmConfig::fromSpec/toSpec, the translator registry enumerates and
/// factory-constructs every kind, a Vm run reproduces a hand-assembled
/// engine stack counter-for-counter, the budget/guard knobs surface
/// the WallLimit and Runaway stop reasons no other suite exercises, and
/// a missing cache or trace directory fails construction, and every board
/// shares the one seeded disk image without ever writing it.
///
//===----------------------------------------------------------------------===//

#include "core/RuleTranslator.h"
#include "dbt/CodeCacheIo.h"
#include "dbt/Engine.h"
#include "guestsw/MiniKernel.h"
#include "guestsw/Workloads.h"
#include "vm/BatchRunner.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace rdbt;

namespace {

//===----------------------------------------------------------------------===//
// Spec strings
//===----------------------------------------------------------------------===//

TEST(VmConfig, FromSpecParsesFullSpec) {
  std::string Err;
  const vm::VmConfig C =
      vm::VmConfig::fromSpec("rule:scheduling/cpu-prime@2", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(C.translator(), "rule:scheduling");
  EXPECT_EQ(C.workload(), "cpu-prime");
  EXPECT_EQ(C.scale(), 2u);
}

TEST(VmConfig, FromSpecDefaultsAndAliases) {
  const vm::VmConfig C = vm::VmConfig::fromSpec("qemu/mcf");
  EXPECT_EQ(C.translator(), "qemu");
  EXPECT_EQ(C.scale(), 1u);

  // Aliases resolve to the canonical kind name.
  const vm::VmConfig R = vm::VmConfig::fromSpec("rule/hmmer@3");
  EXPECT_EQ(R.translator(), "rule:scheduling");
  EXPECT_EQ(R.scale(), 3u);

  // A bare kind (no workload) is valid; the workload can be set later.
  const vm::VmConfig K = vm::VmConfig::fromSpec("native");
  EXPECT_EQ(K.translator(), "native");
  EXPECT_TRUE(K.workload().empty());
}

TEST(VmConfig, SpecRoundTrips) {
  for (const char *Spec :
       {"rule:scheduling/cpu-prime@2", "qemu/mcf", "native/hmmer@4",
        "rule:base/perlbench"}) {
    std::string Err;
    const vm::VmConfig C = vm::VmConfig::fromSpec(Spec, &Err);
    EXPECT_TRUE(Err.empty()) << Spec << ": " << Err;
    EXPECT_EQ(C.toSpec(), Spec);
  }
}

TEST(VmConfig, FromSpecParsesParameterizedKinds) {
  // The parameter keeps its "=<path>" payload through the round trip.
  std::string Err;
  const vm::VmConfig C =
      vm::VmConfig::fromSpec("rule:file=learned.rules/cpu-prime@2", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(C.translator(), "rule:file=learned.rules");
  EXPECT_EQ(C.workload(), "cpu-prime");
  EXPECT_EQ(C.scale(), 2u);
  EXPECT_EQ(C.toSpec(), "rule:file=learned.rules/cpu-prime@2");

  // A path may contain '/': the workload is taken after the last '/'
  // when it names a known workload, else the whole spec is the kind.
  const vm::VmConfig D =
      vm::VmConfig::fromSpec("rule:file=out/dir/a.rules/mcf", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(D.translator(), "rule:file=out/dir/a.rules");
  EXPECT_EQ(D.workload(), "mcf");

  const vm::VmConfig Bare = vm::VmConfig::fromSpec("rule:file=a.rules");
  EXPECT_EQ(Bare.translator(), "rule:file=a.rules");
  EXPECT_TRUE(Bare.workload().empty());

  // '=' on a non-parameterized kind (including the "rule" alias) fails.
  vm::VmConfig::fromSpec("rule=x/mcf", &Err);
  EXPECT_NE(Err.find("unknown translator kind"), std::string::npos) << Err;
}

TEST(VmConfig, FromSpecRejectsGarbage) {
  std::string Err;
  vm::VmConfig::fromSpec("tcg/mcf", &Err);
  EXPECT_NE(Err.find("unknown translator kind"), std::string::npos) << Err;
  vm::VmConfig::fromSpec("qemu/spec2017", &Err);
  EXPECT_NE(Err.find("unknown workload"), std::string::npos) << Err;
  vm::VmConfig::fromSpec("qemu/mcf@zero", &Err);
  EXPECT_NE(Err.find("bad scale"), std::string::npos) << Err;
  vm::VmConfig::fromSpec("qemu/mcf@0", &Err);
  EXPECT_NE(Err.find("bad scale"), std::string::npos) << Err;
  vm::VmConfig::fromSpec("qemu/mcf@4294967297", &Err); // uint32 overflow
  EXPECT_NE(Err.find("bad scale"), std::string::npos) << Err;
  vm::VmConfig::fromSpec("qemu/mcf@", &Err); // '@' promises a scale
  EXPECT_NE(Err.find("bad scale"), std::string::npos) << Err;
  // A repeated session option is an error, not last-one-wins.
  for (const char *Spec :
       {"qemu/mcf,ifp=off,ifp=on", "qemu/mcf,cache=a,cache=b",
        "qemu/mcf,trace=a.json,ifp=on,trace=b.json"}) {
    vm::VmConfig::fromSpec(Spec, &Err);
    EXPECT_NE(Err.find("repeated session option"), std::string::npos)
        << Spec << ": " << Err;
  }

  // An unparsable spec yields a config Vm refuses to build.
  vm::Vm V(vm::VmConfig::fromSpec("tcg/mcf"));
  EXPECT_FALSE(V.valid());
  EXPECT_FALSE(V.run().Ok);
}

//===----------------------------------------------------------------------===//
// Translator registry
//===----------------------------------------------------------------------===//

TEST(TranslatorRegistry, EnumeratesBuiltinKinds) {
  const std::vector<std::string> Kinds =
      vm::TranslatorRegistry::global().kinds();
  for (const char *Expected :
       {"native", "qemu", "rule:base", "rule:reduction", "rule:elimination",
        "rule:scheduling"}) {
    bool Found = false;
    for (const std::string &K : Kinds)
      Found = Found || K == Expected;
    EXPECT_TRUE(Found) << "missing kind " << Expected;
  }
}

TEST(TranslatorRegistry, FactoriesConstructTranslators) {
  vm::TranslatorRegistry &Reg = vm::TranslatorRegistry::global();

  vm::TranslatorRegistry::Context Ctx;
  const auto Qemu = Reg.create("qemu", Ctx);
  ASSERT_TRUE(Qemu != nullptr);
  EXPECT_EQ(std::string(Qemu->name()), "qemu-6.1-baseline");

  // Rule kinds require a rule set; without one the factory declines.
  EXPECT_TRUE(Reg.create("rule:scheduling", Ctx) == nullptr);
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  Ctx.Rules = &RS;
  const auto Rule = Reg.create("rule", Ctx); // via alias
  ASSERT_TRUE(Rule != nullptr);
  EXPECT_EQ(std::string(Rule->name()), "rule-based");

  // "native" is interpreter-executed: listed, but no translator exists.
  ASSERT_TRUE(Reg.find("native") != nullptr);
  EXPECT_FALSE(Reg.find("native")->UsesEngine);
  EXPECT_TRUE(Reg.create("native", Ctx) == nullptr);

  EXPECT_TRUE(Reg.create("no-such-kind", Ctx) == nullptr);
}

TEST(TranslatorRegistry, ParameterizedKindResolvesWithAndWithoutParam) {
  vm::TranslatorRegistry &Reg = vm::TranslatorRegistry::global();
  const auto *Plain = Reg.find("rule:file");
  ASSERT_TRUE(Plain != nullptr);
  EXPECT_TRUE(Plain->TakesParam);
  EXPECT_TRUE(Plain->NeedsRules);
  EXPECT_EQ(Plain->MetricKey, "rule_file");
  EXPECT_EQ(Reg.find("rule:file=some/path.rules"), Plain)
      << "parameterized queries resolve through the prefix";
  EXPECT_TRUE(Reg.find("nosuch=param") == nullptr);
  EXPECT_EQ(vm::TranslatorRegistry::paramOf("rule:file=a/b.rules"),
            "a/b.rules");
  EXPECT_EQ(vm::TranslatorRegistry::paramOf("rule:file"), "");

  // The factory behaves like any rule kind once Context::Rules is given.
  vm::TranslatorRegistry::Context Ctx;
  EXPECT_TRUE(Reg.create("rule:file", Ctx) == nullptr);
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  Ctx.Rules = &RS;
  EXPECT_TRUE(Reg.create("rule:file", Ctx) != nullptr);
}

TEST(TranslatorRegistry, RejectsNameCollisions) {
  vm::TranslatorRegistry::KindInfo K;
  K.Name = "qemu"; // collides with a built-in
  EXPECT_FALSE(vm::TranslatorRegistry::global().registerKind(K));
  K.Name = "qemu-variant";
  K.Aliases = {"rule"}; // alias collides too
  EXPECT_FALSE(vm::TranslatorRegistry::global().registerKind(K));
}

//===----------------------------------------------------------------------===//
// Vm vs the hand-assembled stack
//===----------------------------------------------------------------------===//

TEST(Vm, MatchesHandAssembledEngineStack) {
  const char *Name = "libquantum";
  const uint32_t Scale = 1;
  const uint64_t Budget = 400ull * 1000 * 1000 * 1000;

  // The six-step stack the facade replaces, assembled by hand.
  sys::Platform Board(guestsw::KernelLayout::MinRam);
  ASSERT_TRUE(guestsw::setupGuest(Board, Name, Scale));
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  core::RuleTranslator Xlat(
      RS, core::OptConfig::forLevel(core::OptLevel::Scheduling));
  dbt::DbtEngine Engine(Board, Xlat);
  const dbt::StopReason Stop = Engine.run(Budget);
  ASSERT_EQ(Stop, dbt::StopReason::GuestShutdown);

  vm::Vm V(vm::VmConfig()
               .workload(Name)
               .scale(Scale)
               .translator("rule:scheduling")
               .wallBudget(Budget));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();

  EXPECT_EQ(R.Stop, Stop);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Console, Board.uart().output());

  // Counter-for-counter: the facade must change nothing about the run.
  const host::ExecCounters &C = Engine.counters();
  EXPECT_EQ(R.Counters.Wall, C.Wall);
  EXPECT_EQ(R.Counters.GuestInstrs, C.GuestInstrs);
  EXPECT_EQ(R.Counters.GuestMemInstrs, C.GuestMemInstrs);
  EXPECT_EQ(R.Counters.GuestSysInstrs, C.GuestSysInstrs);
  EXPECT_EQ(R.Counters.IrqChecks, C.IrqChecks);
  EXPECT_EQ(R.Counters.SyncOps, C.SyncOps);
  EXPECT_EQ(R.Counters.TbEntries, C.TbEntries);
  EXPECT_EQ(R.Counters.ChainFollows, C.ChainFollows);
  EXPECT_EQ(R.Counters.HelperCalls, C.HelperCalls);
  for (unsigned K = 0; K < host::NumCostClasses; ++K)
    EXPECT_EQ(R.Counters.ByClass[K], C.ByClass[K]) << "cost class " << K;

  EXPECT_EQ(R.Engine.Translations, Engine.Stats.Translations);
  EXPECT_EQ(R.Engine.IrqsDelivered, Engine.Stats.IrqsDelivered);
  EXPECT_EQ(R.Engine.GuestExceptions, Engine.Stats.GuestExceptions);
  EXPECT_EQ(R.Engine.CacheEntries, Engine.Stats.CacheEntries);
  EXPECT_EQ(R.RuleCoveredInstrs, Xlat.RuleCoveredInstrs);
  EXPECT_EQ(R.FallbackInstrs, Xlat.FallbackInstrs);

  // Presentation metadata rides along for JSON emission and tables.
  EXPECT_EQ(R.Spec, "rule:scheduling/libquantum");
  EXPECT_EQ(R.Label, "+scheduling");
  EXPECT_EQ(R.MetricKey, "full_opt");
}

TEST(Vm, SharedRuleSetReportsPerSessionMatchCounters) {
  // One RuleSet across two sessions: the second session's report must
  // not accumulate the first one's matcher counters (each session's
  // translator owns its MatchStats; the shared set is never mutated).
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  const auto Run = [&RS] {
    vm::Vm V(vm::VmConfig()
                 .workload("cpu-prime")
                 .translator("rule:scheduling")
                 .rules(&RS));
    EXPECT_TRUE(V.valid()) << V.error();
    return V.run();
  };
  const vm::RunReport A = Run();
  const vm::RunReport B = Run();
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_GT(A.RuleMatchAttempts, 0u);
  EXPECT_EQ(B.RuleMatchAttempts, A.RuleMatchAttempts)
      << "identical sessions must report identical per-session counters";
  EXPECT_EQ(B.RuleMatchHits, A.RuleMatchHits);

  // A resumed session stays cumulative across its own stints.
  vm::Vm V(vm::VmConfig()
               .workload("cpu-prime")
               .translator("rule:scheduling")
               .rules(&RS)
               .wallBudget(200 * 1000));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport First = V.run();
  ASSERT_EQ(First.Stop, dbt::StopReason::WallLimit);
  const vm::RunReport Resumed = V.run(400ull * 1000 * 1000 * 1000);
  EXPECT_TRUE(Resumed.Ok);
  EXPECT_GE(Resumed.RuleMatchAttempts, First.RuleMatchAttempts);
  EXPECT_EQ(Resumed.RuleMatchAttempts, A.RuleMatchAttempts)
      << "stint deltas must sum to the whole-session total";
}

TEST(Vm, NativeExecutorMatchesInterpreter) {
  sys::Platform Board(guestsw::KernelLayout::MinRam);
  ASSERT_TRUE(guestsw::setupGuest(Board, "cpu-prime", 1));
  const sys::SystemRunResult Ref =
      sys::runSystemInterpreter(Board, 400u * 1000 * 1000);
  ASSERT_TRUE(Ref.Shutdown);

  vm::Vm V(vm::VmConfig::fromSpec("native/cpu-prime"));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Console, Board.uart().output());
  EXPECT_EQ(R.guestInstrs(), Ref.InstrsRetired);
  EXPECT_EQ(R.wall(), Ref.InstrsRetired) << "native is 1 cycle/instr";
  EXPECT_TRUE(V.engine() == nullptr) << "native must not build an engine";
}

//===----------------------------------------------------------------------===//
// Stop reasons no other suite hits
//===----------------------------------------------------------------------===//

TEST(Vm, WallLimitStopsTheRunAndResumeContinues) {
  vm::Vm V(vm::VmConfig()
               .workload("mcf")
               .translator("qemu")
               .wallBudget(1000));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  EXPECT_EQ(R.Stop, dbt::StopReason::WallLimit);
  EXPECT_FALSE(R.Ok);
  // Resuming the SAME session with a fresh budget runs to a clean
  // shutdown, and counters accumulate across the two calls.
  const vm::RunReport R2 = V.run(400ull * 1000 * 1000 * 1000);
  EXPECT_TRUE(R2.Ok);
  EXPECT_GT(R2.wall(), R.wall());
  EXPECT_GT(R2.guestInstrs(), R.guestInstrs());
}

TEST(Vm, NativeResumeAccumulatesCounters) {
  vm::Vm V(vm::VmConfig()
               .workload("cpu-prime")
               .translator("native")
               .wallBudget(1000));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  EXPECT_EQ(R.Stop, dbt::StopReason::WallLimit);
  const vm::RunReport R2 = V.run(400u * 1000 * 1000);
  EXPECT_TRUE(R2.Ok);
  EXPECT_GT(R2.guestInstrs(), R.guestInstrs())
      << "resumed native counters must be cumulative, not per-stint";
}

TEST(Vm, RunawayGuardStopsTheRun) {
  vm::Vm V(vm::VmConfig()
               .workload("mcf")
               .translator("rule:scheduling")
               .runawayGuard(10));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  EXPECT_EQ(R.Stop, dbt::StopReason::Runaway);
  EXPECT_FALSE(R.Ok);
}

TEST(Vm, MissingOutputDirectoryFailsConstruction) {
  // The cache file and the trace are written only when the session ends;
  // a directory that is not there must fail now, naming the path, for
  // every kind (a native session would never save, but the spec is wrong).
  for (const char *Spec :
       {"qemu/mcf,cache=/no/such/rdbt-dir", "native/mcf,cache=/no/such/rdbt-dir",
        "qemu/mcf,trace=/no/such/rdbt-dir/t.json"}) {
    std::string Err;
    const vm::VmConfig Cfg = vm::VmConfig::fromSpec(Spec, &Err);
    ASSERT_TRUE(Err.empty()) << Spec << ": " << Err;
    vm::Vm V(Cfg);
    EXPECT_FALSE(V.valid()) << Spec;
    EXPECT_NE(V.error().find("'/no/such/rdbt-dir' does not exist"),
              std::string::npos)
        << Spec << ": " << V.error();
    EXPECT_FALSE(V.run().Ok) << Spec;
  }
  // An existing directory is accepted.
  vm::Vm V(vm::VmConfig::fromSpec("qemu/mcf,cache=."));
  EXPECT_TRUE(V.valid()) << V.error();
}

//===----------------------------------------------------------------------===//
// The seeded disk: one image per process, shared page by page
//===----------------------------------------------------------------------===//

/// crc32c of the 2 MiB seeded disk. Guests read these bytes, so they
/// must never change, however the image is built or shared.
constexpr uint32_t SeededDiskCrc = 0x801815bfu;

/// crc32c of a disk's media, read page by page in place.
uint32_t crcOf(const sys::PhysMem &Media) {
  uint32_t Crc = 0;
  for (uint32_t Pn = 0; Pn < Media.numPages(); ++Pn)
    Crc = dbt::crc32c(Media.page(Pn), sys::PhysMem::PageBytes, Crc);
  return Crc;
}

/// The media pages that no longer point where seededDisk()'s do.
std::vector<uint32_t> privatePages(const sys::PhysMem &Media) {
  const sys::PhysMem::Image &Seeded = guestsw::seededDisk();
  EXPECT_EQ(Media.numPages(), Seeded.Pages.size());
  std::vector<uint32_t> Pns;
  for (uint32_t Pn = 0; Pn < Media.numPages(); ++Pn)
    if (Media.page(Pn) != Seeded.Pages[Pn]->Bytes)
      Pns.push_back(Pn);
  return Pns;
}

TEST(SeededDisk, FreshBoardSharesTheKnownImage) {
  const sys::PhysMem::Image &Image = guestsw::seededDisk();
  ASSERT_EQ(Image.Size, sys::DiskDevice::DefaultSectors *
                            sys::DiskDevice::SectorSize);
  ASSERT_EQ(Image.Pages.size(), Image.Size / sys::PhysMem::PageBytes);
  EXPECT_EQ(crcOf(sys::PhysMem(Image)), SeededDiskCrc);

  sys::Platform Board(guestsw::KernelLayout::MinRam);
  ASSERT_TRUE(guestsw::setupGuest(Board, "untar", 1));
  EXPECT_TRUE(privatePages(Board.disk().media()).empty())
      << "a seeded board must not copy";
  EXPECT_EQ(crcOf(Board.disk().media()), SeededDiskCrc);

  // An unseeded disk points every entry at the zero page.
  sys::Platform Blank(1 << 20, /*DiskSectors=*/16);
  const sys::PhysMem &Media = Blank.disk().media();
  EXPECT_EQ(Media.size(), 16 * sys::DiskDevice::SectorSize);
  ASSERT_EQ(Media.numPages(), 2u);
  for (uint32_t Pn = 0; Pn < Media.numPages(); ++Pn)
    EXPECT_EQ(Media.page(Pn), sys::PhysMem::zeroPage()) << "page " << Pn;
}

// Only a workload board adopts the seeded image (built with no blank
// table first); a flat-image board and an error board keep a blank disk.
TEST(SeededDisk, OnlyWorkloadBoardsAdoptTheImage) {
  vm::Vm Workload(vm::VmConfig::fromSpec("qemu/untar@1"));
  ASSERT_TRUE(Workload.valid()) << Workload.error();
  EXPECT_TRUE(privatePages(Workload.board().disk().media()).empty());

  auto ExpectBlank = [](const sys::PhysMem &Media) {
    EXPECT_EQ(Media.size(),
              sys::DiskDevice::DefaultSectors * sys::DiskDevice::SectorSize);
    for (uint32_t Pn = 0; Pn < Media.numPages(); ++Pn)
      EXPECT_EQ(Media.page(Pn), sys::PhysMem::zeroPage()) << "page " << Pn;
  };
  vm::Vm Flat(vm::VmConfig().translator("qemu").flatImage({0xE3A0102Au},
                                                           0x1000));
  ASSERT_TRUE(Flat.valid()) << Flat.error();
  ExpectBlank(Flat.board().disk().media());
  vm::Vm Unknown(vm::VmConfig().translator("qemu").workload("no-such"));
  EXPECT_FALSE(Unknown.valid());
  ExpectBlank(Unknown.board().disk().media());
}

TEST(SeededDisk, SectorWritesNeverReachTheSharedImage) {
  // fileio reads sectors 0-63 and writes what it read 64 sectors
  // further on: the only workload that writes the disk. At scale 1 it
  // writes sectors 64-87 (six writes of four), which lie on pages 8-10.
  const std::vector<uint32_t> WrittenPages = {8, 9, 10};
  vm::Vm Writer(vm::VmConfig::fromSpec("rule/fileio@1"));
  ASSERT_TRUE(Writer.valid()) << Writer.error();
  // Mid-boot, before the first sector write.
  ASSERT_EQ(Writer.run(20000).Stop, dbt::StopReason::WallLimit);
  const vm::Snapshot BeforeWrites = Writer.capture();
  EXPECT_TRUE(privatePages(Writer.board().disk().media()).empty());
  ASSERT_TRUE(Writer.run().Ok);
  EXPECT_EQ(privatePages(Writer.board().disk().media()), WrittenPages)
      << "a sector write privatizes only the page it lands on";
  const uint32_t WrittenCrc = crcOf(Writer.board().disk().media());
  EXPECT_NE(WrittenCrc, SeededDiskCrc) << "fileio must have written";

  EXPECT_EQ(crcOf(sys::PhysMem(guestsw::seededDisk())), SeededDiskCrc);
  vm::Vm Fresh(vm::VmConfig::fromSpec("rule/fileio@1"));
  ASSERT_TRUE(Fresh.valid()) << Fresh.error();
  EXPECT_TRUE(privatePages(Fresh.board().disk().media()).empty());
  EXPECT_EQ(crcOf(Fresh.board().disk().media()), SeededDiskCrc);

  std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(BeforeWrites);
  ASSERT_TRUE(Fork && Fork->valid());
  EXPECT_TRUE(privatePages(Fork->board().disk().media()).empty());
  EXPECT_EQ(crcOf(Fork->board().disk().media()), SeededDiskCrc);
  // The fork writes too, into pages of its own; the image stays pinned.
  ASSERT_TRUE(Fork->run().Ok);
  EXPECT_EQ(privatePages(Fork->board().disk().media()), WrittenPages);
  EXPECT_EQ(crcOf(Fork->board().disk().media()), WrittenCrc);
  EXPECT_EQ(crcOf(sys::PhysMem(guestsw::seededDisk())), SeededDiskCrc);
}

TEST(SeededDisk, ConcurrentDiskSessionsMatchTheSerialRun) {
  // Writers privatize pages of the shared image while readers DMA from
  // it, on four threads; each report must equal the serial schedule's.
  std::vector<vm::VmConfig> Configs;
  for (int Round = 0; Round < 2; ++Round)
    for (const char *Kind : {"native", "qemu", "rule:scheduling"})
      for (const char *Workload : {"fileio", "untar"})
        Configs.push_back(
            vm::VmConfig().translator(Kind).workload(Workload).scale(1));

  const std::vector<vm::RunReport> Serial = vm::BatchRunner(1).run(Configs);
  const std::vector<vm::RunReport> Parallel =
      vm::BatchRunner(4).run(Configs);
  ASSERT_EQ(Serial.size(), Configs.size());
  ASSERT_EQ(Parallel.size(), Configs.size());
  for (size_t I = 0; I < Configs.size(); ++I) {
    const vm::RunReport &S = Serial[I], &P = Parallel[I];
    EXPECT_TRUE(S.Ok) << S.Spec << ": " << S.stopName();
    EXPECT_EQ(P.Ok, S.Ok) << S.Spec;
    EXPECT_EQ(P.Console, S.Console) << S.Spec;
    EXPECT_EQ(0, std::memcmp(&P.Counters, &S.Counters, sizeof(S.Counters)))
        << S.Spec << ": exec counters diverged";
    EXPECT_EQ(0, std::memcmp(&P.Engine, &S.Engine, sizeof(S.Engine)))
        << S.Spec << ": engine stats diverged";
    for (int R = 0; R < 16; ++R)
      EXPECT_EQ(P.Final.Regs[R], S.Final.Regs[R]) << S.Spec << ": r" << R;
    EXPECT_EQ(P.Final.Nzcv, S.Final.Nzcv) << S.Spec;
  }
  EXPECT_EQ(crcOf(sys::PhysMem(guestsw::seededDisk())), SeededDiskCrc);
}

TEST(StopReason, NamesAreDistinct) {
  EXPECT_EQ(std::string(dbt::toString(dbt::StopReason::GuestShutdown)),
            "guest shutdown");
  EXPECT_EQ(std::string(dbt::toString(dbt::StopReason::WallLimit)),
            "wall limit");
  EXPECT_EQ(std::string(dbt::toString(dbt::StopReason::Deadlock)),
            "deadlock");
  EXPECT_EQ(std::string(dbt::toString(dbt::StopReason::Runaway)),
            "runaway");
}

} // namespace
