//===- tests/SnapshotTest.cpp - VM snapshot + COW fork tests ----------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the snapshot/fork subsystem (vm/Snapshot.h, DESIGN.md
/// §11) rests on:
///
///  * **Bitwise transparency**: a session forked from a warm snapshot
///    finishes with execution counters, final architectural state, and
///    console output identical to a fresh session that ran straight
///    through — for the native interpreter, the qemu baseline, the rule
///    translator, and a deployed rule:file corpus.
///
///  * **Pre-run kind independence**: a snapshot captured before any
///    execution can seed forks of every translator kind (the scenario
///    matrix's single-install path) without changing a single count.
///
///  * **COW isolation**: the master and concurrent forks share the
///    snapshot's RAM and disk pages read-only; no session can observe
///    another's writes, and the image hashes identically before, during
///    and after a parallel drain. Runs under the TSan CI job together
///    with the BatchRunner suite.
///
///  * **No retranslation**: forks inherit the warmed code cache
///    (AdoptedTbs) and pay translation only for code first reached
///    after the capture point.
///
///  * **Serving slices**: a fork captured after the boot mark and a warm
///    slice runs one budgeted work item bitwise like a fresh session
///    that replays the same slices — also when the master booted from a
///    persistent cache file, in which case nobody translates at all.
///
//===----------------------------------------------------------------------===//

#include "guestsw/Workloads.h"
#include "vm/BatchRunner.h"
#include "vm/Snapshot.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace rdbt;

namespace {

#ifndef RDBT_REFERENCE_RULES
#define RDBT_REFERENCE_RULES "bench/baselines/reference.rules"
#endif

/// Every executor family: interpreter, baseline DBT, rule DBT, and the
/// deployed-corpus rule DBT.
std::vector<std::string> allKinds() {
  return {"native", "qemu", "rule:scheduling",
          std::string("rule:file=") + RDBT_REFERENCE_RULES};
}

vm::VmConfig cfgFor(const std::string &Kind,
                    const std::string &Workload = "libquantum") {
  return vm::VmConfig().translator(Kind).workload(Workload).scale(1);
}

/// Bitwise forked-vs-fresh comparison: everything a run reports except
/// the two fork-provenance diagnostics AdoptedTbs/CowBlockCopies, which
/// are 0 in fresh runs by construction.
void expectIdentical(const vm::RunReport &F, const vm::RunReport &R,
                     const std::string &Label) {
  EXPECT_EQ(0, std::memcmp(&F.Counters, &R.Counters, sizeof(F.Counters)))
      << Label << ": exec counters diverged";
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(F.Final.Regs[I], R.Final.Regs[I]) << Label << ": r" << I;
  EXPECT_EQ(F.Final.Nzcv, R.Final.Nzcv) << Label;
  EXPECT_EQ(F.Final.ShutdownRequested, R.Final.ShutdownRequested) << Label;
  EXPECT_EQ(F.Console, R.Console) << Label << ": console diverged";
  EXPECT_EQ(0, std::memcmp(&F.Engine, &R.Engine, sizeof(F.Engine)))
      << Label << ": engine stats diverged";
  dbt::CacheStats A = F.Cache, B = R.Cache;
  A.AdoptedTbs = B.AdoptedTbs = 0;
  A.CowBlockCopies = B.CowBlockCopies = 0;
  EXPECT_EQ(0, std::memcmp(&A, &B, sizeof(A)))
      << Label << ": cache stats diverged";
  EXPECT_EQ(F.RuleCoveredInstrs, R.RuleCoveredInstrs) << Label;
  EXPECT_EQ(F.FallbackInstrs, R.FallbackInstrs) << Label;
  EXPECT_EQ(F.RuleMatchAttempts, R.RuleMatchAttempts) << Label;
  EXPECT_EQ(F.RuleMatchHits, R.RuleMatchHits) << Label;
  EXPECT_EQ(F.Ok, R.Ok) << Label;
  EXPECT_EQ(static_cast<int>(F.Stop), static_cast<int>(R.Stop)) << Label;
}

/// The serving shape: one warm slice after the boot mark before the
/// capture, then one work item per fork.
constexpr uint64_t WarmCycles = 150000;
constexpr uint64_t ItemCycles = 150000;

/// Boots a master to the mark, runs the warm slice, captures it and runs
/// one item on a fork. \p Prep receives the master's report at capture.
vm::RunReport forkedItem(const vm::VmConfig &Cfg, vm::RunReport &Prep) {
  vm::Vm Master(Cfg);
  EXPECT_TRUE(Master.valid()) << Master.error();
  Master.runToBootMark();
  Prep = Master.run(WarmCycles);
  EXPECT_TRUE(Prep.Error.empty()) << Prep.Error;
  const vm::Snapshot Snap = Master.capture();
  std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(Snap);
  EXPECT_TRUE(Fork->valid()) << Fork->error();
  return Fork->run(ItemCycles);
}

/// A fresh session that replays the fork's slices. Budgeted runs stop at
/// the first TB boundary past their budget, so only identical slicing
/// lands it on the fork's guest cycle.
vm::RunReport replayedItem(const vm::VmConfig &Cfg) {
  vm::Vm V(Cfg);
  EXPECT_TRUE(V.valid()) << V.error();
  V.runToBootMark();
  V.run(WarmCycles);
  return V.run(ItemCycles);
}

/// FNV-1a over the bytes of the snapshot's shared RAM page table.
uint64_t hashImage(const std::shared_ptr<const sys::PhysMem::Image> &Img) {
  uint64_t H = 1469598103934665603ull;
  if (Img)
    for (uint32_t Pa = 0; Pa < Img->Size; ++Pa)
      H = (H ^ Img->Pages[Pa >> sys::PhysMem::PageShift]
                   ->Bytes[Pa & (sys::PhysMem::PageBytes - 1)]) *
          1099511628211ull;
  return H;
}

/// The disk media pages that no longer point where seededDisk()'s do.
std::vector<uint32_t> privateDiskPages(sys::Platform &Board) {
  const sys::PhysMem &Media = Board.disk().media();
  const sys::PhysMem::Image &Seeded = guestsw::seededDisk();
  EXPECT_EQ(Media.numPages(), Seeded.Pages.size());
  std::vector<uint32_t> Pns;
  for (uint32_t Pn = 0; Pn < Media.numPages(); ++Pn)
    if (Media.page(Pn) != Seeded.Pages[Pn]->Bytes)
      Pns.push_back(Pn);
  return Pns;
}

/// Writes \p Count sectors from \p Sector on, every byte \p Fill, through
/// the disk's DMA from the top of RAM, and waits for the completion.
void writeSectors(sys::Platform &Board, uint32_t Sector, uint32_t Count,
                  uint8_t Fill) {
  using sys::DiskDevice;
  const uint32_t Bytes = Count * DiskDevice::SectorSize;
  const uint32_t Dma = Board.Ram.size() - Bytes;
  const std::vector<uint8_t> Data(Bytes, Fill);
  Board.Ram.writeBlock(Dma, Data.data(), Bytes);
  DiskDevice &Disk = Board.disk();
  Disk.mmioWrite(DiskDevice::RegSector, Sector);
  Disk.mmioWrite(DiskDevice::RegDmaAddr, Dma);
  Disk.mmioWrite(DiskDevice::RegCount, Count);
  Disk.mmioWrite(DiskDevice::RegCmd, DiskDevice::CmdWrite);
  while (Disk.mmioRead(DiskDevice::RegStatus))
    Board.advance(Board.nextDeadline() - Board.now());
}

/// Whether every byte of \p Sector on \p Board's disk is \p Fill, or,
/// with \p Fill negative, equals the seeded disk's.
bool sectorHolds(sys::Platform &Board, uint32_t Sector, int Fill) {
  const uint32_t Size = sys::DiskDevice::SectorSize;
  std::vector<uint8_t> Want(Size, static_cast<uint8_t>(Fill)), Got(Size);
  if (Fill < 0)
    sys::PhysMem(guestsw::seededDisk())
        .readBlock(Sector * Size, Want.data(), Size);
  Board.disk().media().readBlock(Sector * Size, Got.data(), Size);
  return Got == Want;
}

TEST(Snapshot, WarmForkBitwiseIdenticalToFresh) {
  for (const std::string &Kind : allKinds()) {
    // Master: boot to the mark, freeze, fork, run the fork to the end.
    vm::Vm Master(cfgFor(Kind));
    ASSERT_TRUE(Master.valid()) << Kind << ": " << Master.error();
    const vm::RunReport BootR = Master.runToBootMark();
    ASSERT_TRUE(BootR.Error.empty()) << Kind << ": " << BootR.Error;
    const vm::Snapshot Snap = Master.capture();
    EXPECT_TRUE(Snap.hasRun()) << Kind;
    EXPECT_FALSE(Snap.empty()) << Kind;

    std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(Snap);
    ASSERT_TRUE(Fork->valid()) << Kind << ": " << Fork->error();
    EXPECT_TRUE(Fork->forked());
    const vm::RunReport F = Fork->run();
    ASSERT_TRUE(F.Ok) << Kind << ": fork stopped with " << F.stopName();
    EXPECT_TRUE(F.Forked);

    // Control: an unforked session of the same config.
    vm::Vm FreshVm(cfgFor(Kind));
    const vm::RunReport Fresh = FreshVm.run();
    ASSERT_TRUE(Fresh.Ok) << Kind;
    expectIdentical(F, Fresh, Kind);

    // The warmed cache arrived ready-translated: every captured block
    // was adopted and none re-pays translation (Translations is part of
    // the bitwise check above; the counters below name the mechanism).
    const auto *Info = vm::TranslatorRegistry::global().find(Kind);
    ASSERT_NE(Info, nullptr);
    if (Info->UsesEngine) {
      EXPECT_EQ(F.Cache.AdoptedTbs, Snap.warmTbs()) << Kind;
      EXPECT_GT(Snap.warmTbs(), 0u) << Kind;
      EXPECT_EQ(F.Engine.Translations - BootR.Engine.Translations,
                Fresh.Engine.Translations - BootR.Engine.Translations)
          << Kind;
    }
    // Forked RAM runs copy-on-write: the guest wrote something, and the
    // shared base image never changed.
    EXPECT_GT(F.CowPrivatePages, 0u) << Kind;
    EXPECT_EQ(0u, Fresh.CowPrivatePages) << Kind;
  }
}

TEST(Snapshot, WarmSliceForkRunsItemLikeReplayedTwin) {
  for (const std::string &Kind : allKinds()) {
    vm::RunReport Prep;
    const vm::RunReport F = forkedItem(cfgFor(Kind), Prep);
    EXPECT_EQ(dbt::StopReason::WallLimit, F.Stop)
        << Kind << ": the item must end inside the workload";
    expectIdentical(F, replayedItem(cfgFor(Kind)), "item fork " + Kind);
  }
}

TEST(Snapshot, ForkOfCacheBootedMasterTranslatesNothing) {
  char Buf[] = "/tmp/rdbt-snap-XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(Buf));
  const std::string Dir = Buf;
  for (const std::string &Kind : allKinds()) {
    const vm::VmConfig Cfg = cfgFor(Kind).persistentCache(Dir);
    std::string Path;
    {
      // Populate: one full run saves every block it translated.
      vm::Vm Cold(Cfg);
      ASSERT_TRUE(Cold.valid()) << Kind << ": " << Cold.error();
      ASSERT_TRUE(Cold.run().Ok) << Kind;
      Path = Cold.cacheFilePath();
    }
    vm::RunReport Prep;
    const vm::RunReport F = forkedItem(Cfg, Prep);
    // The twin loads the same file but never saves, so the file every
    // session sees stays the one the master booted from.
    const vm::RunReport Twin =
        replayedItem(vm::VmConfig(Cfg).persistentCacheSaveOnExit(false));
    expectIdentical(F, Twin, "cache-booted fork " + Kind);
    const auto *Info = vm::TranslatorRegistry::global().find(Kind);
    ASSERT_NE(Info, nullptr);
    if (Info->UsesEngine)
      EXPECT_EQ(1u, Prep.Cache.CacheFileHits) << Kind;
    EXPECT_EQ(0u, F.Engine.Translations) << Kind;
    if (!Path.empty())
      std::remove(Path.c_str());
  }
  std::remove(Dir.c_str());
}

TEST(Snapshot, CaptureDoesNotPerturbTheMaster) {
  // The master keeps running after capture(); block sharing must be
  // invisible to it (its own chain patches privatize blocks).
  vm::Vm Master(cfgFor("rule:scheduling"));
  ASSERT_TRUE(Master.valid()) << Master.error();
  Master.runToBootMark();
  const vm::Snapshot Snap = Master.capture();
  const uint64_t HashBefore = hashImage(Snap.ramImage());
  const vm::RunReport MasterFinal = Master.run();
  ASSERT_TRUE(MasterFinal.Ok) << MasterFinal.stopName();

  vm::Vm FreshVm(cfgFor("rule:scheduling"));
  const vm::RunReport Fresh = FreshVm.run();
  expectIdentical(MasterFinal, Fresh, "master-after-capture");

  // And the fork still matches, even though the master ran on past the
  // capture point and patched shared state in the meantime.
  std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(Snap);
  const vm::RunReport F = Fork->run();
  expectIdentical(F, Fresh, "fork-after-master-ran-on");
  // The master's RAM writes after the capture cloned every page they hit.
  EXPECT_EQ(HashBefore, hashImage(Snap.ramImage()));
}

TEST(Snapshot, CaptureSharesRamPagesUntilAWrite) {
  // capture() copies page pointers, not bytes: the snapshot, the master
  // and a fork all read the very same pages, and a write on any side
  // clones only the page it hits.
  vm::Vm Master(cfgFor("native"));
  ASSERT_TRUE(Master.valid()) << Master.error();
  const vm::Snapshot Snap = Master.capture();
  const sys::PhysMem::Image &Img = *Snap.ramImage();
  sys::PhysMem &Ram = Master.board().Ram;
  vm::Vm Fork(cfgFor("native").snapshot(&Snap));
  ASSERT_TRUE(Fork.valid()) << Fork.error();
  const uint32_t NumPages = static_cast<uint32_t>(Img.Pages.size());
  for (uint32_t Pn = 0; Pn < NumPages; ++Pn) {
    ASSERT_EQ(Img.Pages[Pn]->Bytes, Ram.page(Pn)) << "page " << Pn;
    ASSERT_EQ(Img.Pages[Pn]->Bytes, Fork.board().Ram.page(Pn)) << Pn;
  }

  // Page 0 holds the kernel's vectors, so it is not the zero page.
  const uint8_t *Shared = Img.Pages[0]->Bytes;
  ASSERT_NE(sys::PhysMem::zeroPage(), Shared);
  const uint32_t Word = Ram.read(0, 4);
  Ram.write(0, 4, ~Word);
  EXPECT_NE(Shared, Ram.page(0));
  EXPECT_EQ(~Word, Ram.read(0, 4));
  EXPECT_EQ(Shared, Img.Pages[0]->Bytes);
  EXPECT_EQ(Shared, Fork.board().Ram.page(0));
  EXPECT_EQ(Word, Fork.board().Ram.read(0, 4));
  for (uint32_t Pn = 1; Pn < NumPages; ++Pn)
    ASSERT_EQ(Img.Pages[Pn]->Bytes, Ram.page(Pn)) << "page " << Pn;
  // The master owns its clone now: a second write does not clone again.
  const uint8_t *Clone = Ram.page(0);
  Ram.write(4, 4, 0);
  EXPECT_EQ(Clone, Ram.page(0));
  EXPECT_EQ(0u, Ram.cowPrivatePages());
}

TEST(Snapshot, PreRunSnapshotIsKindIndependent) {
  // One installed board image serves every translator kind — the
  // single-install path rdbt_scenarios uses for its matrix.
  vm::Vm Booter(cfgFor("native", "cpu-prime"));
  ASSERT_TRUE(Booter.valid()) << Booter.error();
  const vm::Snapshot Board = Booter.capture();
  EXPECT_FALSE(Board.hasRun());

  for (const std::string &Kind : allKinds()) {
    vm::Vm Fork(cfgFor(Kind, "cpu-prime").snapshot(&Board));
    ASSERT_TRUE(Fork.valid()) << Kind << ": " << Fork.error();
    const vm::RunReport F = Fork.run();
    ASSERT_TRUE(F.Ok) << Kind << ": " << F.stopName();

    vm::Vm FreshVm(cfgFor(Kind, "cpu-prime"));
    const vm::RunReport Fresh = FreshVm.run();
    expectIdentical(F, Fresh, "pre-run fork " + Kind);
  }
}

TEST(Snapshot, WarmSnapshotRejectsMismatchedForks) {
  vm::Vm Master(cfgFor("qemu"));
  ASSERT_TRUE(Master.valid());
  Master.runToBootMark();
  const vm::Snapshot Snap = Master.capture();
  ASSERT_TRUE(Snap.hasRun());

  // Different translator kind: warm progress cannot transfer.
  vm::Vm WrongKind(cfgFor("rule:scheduling").snapshot(&Snap));
  EXPECT_FALSE(WrongKind.valid());
  EXPECT_NE(WrongKind.error().find("warm snapshot"), std::string::npos)
      << WrongKind.error();

  // Different guest software: never compatible, warm or not.
  vm::Vm WrongWorkload(cfgFor("qemu", "mcf").snapshot(&Snap));
  EXPECT_FALSE(WrongWorkload.valid());

  // An empty snapshot is rejected outright.
  const vm::Snapshot Empty;
  vm::Vm FromEmpty(cfgFor("qemu").snapshot(&Empty));
  EXPECT_FALSE(FromEmpty.valid());
}

TEST(Snapshot, ForksCannotObserveEachOthersWrites) {
  vm::Vm Master(cfgFor("native"));
  ASSERT_TRUE(Master.valid());
  const vm::Snapshot Snap = Master.capture();
  const uint64_t HashBefore = hashImage(Snap.ramImage());

  vm::Vm A(cfgFor("native").snapshot(&Snap));
  vm::Vm B(cfgFor("native").snapshot(&Snap));
  ASSERT_TRUE(A.valid());
  ASSERT_TRUE(B.valid());
  // Poke the same physical addresses in both forks with different
  // values: one on a page the image holds as the zero page, one on the
  // kernel's vector page.
  const uint32_t Pas[] = {Snap.ramBytes() - 8, 0x10};
  uint32_t Original[2];
  for (int I = 0; I < 2; ++I) {
    Original[I] = A.board().Ram.read(Pas[I], 4);
    A.board().Ram.write(Pas[I], 4, 0xAAAAAAAAu);
    B.board().Ram.write(Pas[I], 4, 0xBBBBBBBBu);
    EXPECT_EQ(0xAAAAAAAAu, A.board().Ram.read(Pas[I], 4));
    EXPECT_EQ(0xBBBBBBBBu, B.board().Ram.read(Pas[I], 4));
  }
  EXPECT_EQ(2u, A.board().Ram.cowPrivatePages());
  EXPECT_EQ(2u, B.board().Ram.cowPrivatePages());

  // A third fork still reads the original base values, and the base
  // image itself never changed.
  vm::Vm C(cfgFor("native").snapshot(&Snap));
  for (int I = 0; I < 2; ++I)
    EXPECT_EQ(Original[I], C.board().Ram.read(Pas[I], 4));
  EXPECT_EQ(HashBefore, hashImage(Snap.ramImage()));
}

/// A wall budget that stops rule:scheduling/fileio@1 between its sector
/// writes: after the first, well before the guest powers off.
constexpr uint64_t MidFileioCycles = 1300000;

TEST(Snapshot, ConcurrentForksAreIsolatedAndDeterministic) {
  // The serving pattern under contention: one warm snapshot, a batch of
  // forks on a worker pool. Every fork must finish bitwise-identically
  // (no fork observes another's RAM writes, chain patches, or disk
  // writes), the batch must be schedule-invariant, and the shared
  // images must come out untouched. The capture lands in the middle of
  // fileio's disk writes, so every fork goes on to store into pages it
  // shares with the snapshot, and to write sectors. This test runs under
  // the TSan CI job, where any unsynchronized sharing the COW protocol
  // missed becomes a hard failure.
  const vm::VmConfig Cfg = cfgFor("rule:scheduling", "fileio");
  vm::Vm Master(Cfg);
  ASSERT_TRUE(Master.valid()) << Master.error();
  const vm::RunReport AtCapture = Master.run(MidFileioCycles);
  ASSERT_EQ(dbt::StopReason::WallLimit, AtCapture.Stop)
      << "the capture must come before the guest powers off";
  ASSERT_FALSE(privateDiskPages(Master.board()).empty())
      << "the capture must come after the guest's first sector write";
  const vm::Snapshot Snap = Master.capture();
  const uint64_t HashBefore = hashImage(Snap.ramImage());

  const std::vector<vm::VmConfig> Configs(8,
                                          vm::VmConfig(Cfg).snapshot(&Snap));
  const std::vector<vm::RunReport> Parallel =
      vm::BatchRunner(4).run(Configs);
  const std::vector<vm::RunReport> Serial =
      vm::BatchRunner(1).run(Configs);
  ASSERT_EQ(8u, Parallel.size());

  // A fresh session that replays the master's slice, then runs on.
  vm::Vm FreshVm(Cfg);
  FreshVm.run(MidFileioCycles);
  const vm::RunReport Fresh = FreshVm.run();
  ASSERT_TRUE(Fresh.Ok) << Fresh.stopName();
  ASSERT_EQ(dbt::StopReason::GuestShutdown, Fresh.Stop);
  for (size_t I = 0; I < Parallel.size(); ++I) {
    EXPECT_GT(Parallel[I].guestInstrs(), AtCapture.guestInstrs())
        << "parallel fork " << I << " ran nothing after the capture";
    EXPECT_GT(Parallel[I].CowPrivatePages, 0u) << "parallel fork " << I;
    expectIdentical(Parallel[I], Fresh,
                    "parallel fork " + std::to_string(I));
    expectIdentical(Parallel[I], Serial[I],
                    "jobs-invariance " + std::to_string(I));
  }
  EXPECT_EQ(HashBefore, hashImage(Snap.ramImage()));
}

TEST(Snapshot, ForkSectorWritesStayInTheirFork) {
  // A pre-run capture of a seeded board: its disk table is the seeded
  // image's. Sectors 7 and 8 lie on disk pages 0 and 1, sector 9 on page
  // 1 too. Two forks and the master write at once, each on a thread of
  // its own, into pages they all share; a third fork only reads. Under
  // the TSan CI job, a write to a page still shared is a reported race.
  vm::Vm Master(cfgFor("native", "fileio"));
  ASSERT_TRUE(Master.valid()) << Master.error();
  const vm::Snapshot Snap = Master.capture();
  std::unique_ptr<vm::Vm> Forks[3];
  for (auto &F : Forks) {
    F = vm::Vm::forkFrom(Snap);
    ASSERT_TRUE(F && F->valid());
    ASSERT_TRUE(privateDiskPages(F->board()).empty());
  }
  std::thread Writers[] = {
      std::thread([&] { writeSectors(Forks[0]->board(), 7, 2, 0xA0); }),
      std::thread([&] { writeSectors(Forks[1]->board(), 9, 1, 0xB0); }),
      std::thread([&] { writeSectors(Master.board(), 8, 1, 0xC0); }),
  };
  for (std::thread &T : Writers)
    T.join();

  constexpr int Seeded = -1;
  sys::Platform &A = Forks[0]->board(), &B = Forks[1]->board(),
                &Reader = Forks[2]->board(), &M = Master.board();
  EXPECT_TRUE(sectorHolds(A, 7, 0xA0));
  EXPECT_TRUE(sectorHolds(A, 8, 0xA0));
  EXPECT_TRUE(sectorHolds(A, 9, Seeded));
  EXPECT_EQ(privateDiskPages(A), (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(sectorHolds(B, 7, Seeded));
  EXPECT_TRUE(sectorHolds(B, 8, Seeded));
  EXPECT_TRUE(sectorHolds(B, 9, 0xB0));
  EXPECT_EQ(privateDiskPages(B), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(sectorHolds(M, 7, Seeded));
  EXPECT_TRUE(sectorHolds(M, 8, 0xC0));
  EXPECT_TRUE(sectorHolds(M, 9, Seeded));
  EXPECT_EQ(privateDiskPages(M), (std::vector<uint32_t>{1}));
  for (uint32_t Sector : {7, 8, 9})
    EXPECT_TRUE(sectorHolds(Reader, Sector, Seeded)) << "sector " << Sector;
  EXPECT_TRUE(privateDiskPages(Reader).empty());

  // The snapshot's table still holds the seeded pages.
  std::unique_ptr<vm::Vm> Late = vm::Vm::forkFrom(Snap);
  ASSERT_TRUE(Late && Late->valid());
  EXPECT_TRUE(privateDiskPages(Late->board()).empty());
}

TEST(Snapshot, MasterRunsOnWhileItsForksRun) {
  // After capture() the master and its forks read the same RAM pages,
  // and the master's own writes must clone them first. Run the master on
  // a thread of its own while a pool drains forks and this thread hashes
  // the image: under the TSan CI job, a write to a page that is still
  // shared is a reported race.
  vm::Vm Master(cfgFor("rule:scheduling"));
  ASSERT_TRUE(Master.valid()) << Master.error();
  ASSERT_EQ(dbt::StopReason::WallLimit, Master.runToBootMark().Stop)
      << "the capture must come before the guest's work";
  const vm::Snapshot Snap = Master.capture();
  const uint64_t HashBefore = hashImage(Snap.ramImage());
  const std::vector<vm::VmConfig> Configs(
      3, vm::VmConfig(cfgFor("rule:scheduling")).snapshot(&Snap));

  vm::RunReport MasterFinal;
  std::thread MasterThread([&] { MasterFinal = Master.run(); });
  const std::vector<vm::RunReport> Parallel =
      vm::BatchRunner(3).run(Configs);
  const uint64_t HashDuring = hashImage(Snap.ramImage());
  MasterThread.join();

  const std::vector<vm::RunReport> Serial = vm::BatchRunner(1).run(Configs);
  ASSERT_EQ(3u, Parallel.size());
  ASSERT_TRUE(Serial[0].Ok) << Serial[0].stopName();
  for (size_t I = 0; I < Parallel.size(); ++I)
    expectIdentical(Parallel[I], Serial[I],
                    "fork beside the master " + std::to_string(I));
  expectIdentical(MasterFinal, Serial[0], "master beside its forks");
  EXPECT_EQ(HashBefore, HashDuring);
  EXPECT_EQ(HashBefore, hashImage(Snap.ramImage()));
}

} // namespace
