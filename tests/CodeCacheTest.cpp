//===- tests/CodeCacheTest.cpp - Translation-cache unit tests --------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// Direct unit tests for the ASID-aware code cache — keying, per-ASID and
/// per-page selective invalidation, chain unlinking with flag-save
/// resurrection, stale-id rejection, id stability across flushes — plus
/// integration tests that prove the multi-process ctxswitch workload
/// retains translations across context switches (the ≥5x retranslation
/// reduction the ASID design exists for) while every executor still
/// produces identical guest output.
///
//===----------------------------------------------------------------------===//

#include "dbt/CodeCache.h"
#include "host/HostEmitter.h"
#include "guestsw/Workloads.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace rdbt {
namespace host {
// Field-for-field equality, for comparing blocks' code.
bool operator==(const HInst &A, const HInst &B) {
  return A.Op == B.Op && A.Cc == B.Cc && A.Cls == B.Cls &&
         A.SetFlags == B.SetFlags && A.UseImm == B.UseImm &&
         A.AccIsWrite == B.AccIsWrite && A.Size == B.Size && A.Dst == B.Dst &&
         A.Src == B.Src && A.Src2 == B.Src2 && A.Slot == B.Slot &&
         A.Helper == B.Helper && A.Imm == B.Imm && A.Target == B.Target &&
         A.GuestPc == B.GuestPc;
}
} // namespace host
} // namespace rdbt

using namespace rdbt;
using namespace rdbt::dbt;

namespace {

/// A minimal host block of sync-class instructions, built the way the
/// translators build one: nop, a coordination run (SyncOp marker, env
/// store, then the exit's flag save: SyncOp marker, env store), chain
/// slot 0, exit. The flag save [4, 6) is chain slot 0's elidable range.
host::HostBlock makeBlock(uint32_t GuestPc, uint32_t NumGuestInstrs = 4) {
  host::HostBlock B;
  B.GuestPc = GuestPc;
  B.NumGuestInstrs = NumGuestInstrs;
  host::HostEmitter E(B);
  E.setClass(host::CostClass::Sync);
  E.alu(host::HOp::Nop, 0, 0);
  E.marker(host::MarkerKind::SyncOp);
  E.stEnv(1, 1);
  B.Chains[0].FlagSaveBegin = E.marker(host::MarkerKind::SyncOp);
  E.stEnv(2, 2);
  B.Chains[0].FlagSaveEnd = E.chainSlot(0, GuestPc + 4 * NumGuestInstrs);
  E.exitTbNeedTranslate(0);
  return B;
}

TEST(CodeCache, KeyedByPcMmuIdxAndAsid) {
  CodeCache C;
  const int PrivA0 = C.insert(makeBlock(0x1000), 0, 0);
  const int UserA0 = C.insert(makeBlock(0x1000), 1, 0);
  const int UserA1 = C.insert(makeBlock(0x1000), 1, 1);
  EXPECT_EQ(C.find(0x1000, 0, 0), PrivA0);
  EXPECT_EQ(C.find(0x1000, 1, 0), UserA0);
  EXPECT_EQ(C.find(0x1000, 1, 1), UserA1);
  EXPECT_EQ(C.find(0x1000, 0, 1), -1);
  EXPECT_EQ(C.find(0x2000, 0, 0), -1);
  EXPECT_EQ(C.size(), 3u);
}

TEST(CodeCache, ChainElisionSkipsTheFlagSaveAndCounts) {
  CodeCache C;
  const host::HostBlock Fresh = makeBlock(0x1000);
  ASSERT_TRUE(Fresh.Code[1].Op == host::HOp::CoordRun);
  ASSERT_EQ(4u, Fresh.Code[1].Slot);
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_TRUE(C.chain(A, 0, B, /*ElideFlagSave=*/true));
  const std::vector<host::HInst> &Code = C.block(A)->Code;
  EXPECT_EQ(C.block(A)->Chains[0].TargetTb, B);
  // The run stops before the flag save, whose marker swapped places with
  // the exit's chain slot; nothing else changes.
  ASSERT_EQ(Fresh.Code.size(), Code.size());
  EXPECT_TRUE(Code[1].Op == host::HOp::CoordRun);
  EXPECT_EQ(2u, Code[1].Slot);
  EXPECT_EQ(1u, Code[1].Helper);
  EXPECT_EQ(1, Code[1].Imm);
  EXPECT_TRUE(Code[4] == Fresh.Code[6]);
  EXPECT_TRUE(Code[6] == Fresh.Code[4]);
  for (size_t I : {0u, 2u, 3u, 5u, 7u})
    EXPECT_TRUE(Code[I] == Fresh.Code[I]) << I;
  EXPECT_TRUE(C.block(B)->Code == Fresh.Code) << "only A's slot was chained";
  EXPECT_EQ(C.Stats.ChainsMade, 1u);
  EXPECT_EQ(C.Stats.ChainsWithElision, 1u);
  EXPECT_EQ(C.Stats.ElidedSyncInstrs, 2u);
  // A second patch of the same slot is a stale request, not an error.
  EXPECT_FALSE(C.chain(A, 0, B, false));
  EXPECT_EQ(C.Stats.StaleChainRequests, 1u);
}

TEST(CodeCache, ChainWithoutElisionKeepsFlagSave) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_TRUE(C.chain(A, 0, B, /*ElideFlagSave=*/false));
  EXPECT_TRUE(C.block(A)->Code == makeBlock(0x1000).Code);
  EXPECT_EQ(C.Stats.ChainsWithElision, 0u);
  EXPECT_EQ(C.Stats.ElidedSyncInstrs, 0u);
}

TEST(CodeCache, InvalidateAsidDropsOnlyThatAsid) {
  CodeCache C;
  const int A0 = C.insert(makeBlock(0x1000), 0, 0);
  const int A1 = C.insert(makeBlock(0x1000), 0, 1);
  const int B1 = C.insert(makeBlock(0x2000), 0, 1);
  C.invalidateAsid(1);
  EXPECT_EQ(C.find(0x1000, 0, 0), A0);
  EXPECT_EQ(C.find(0x1000, 0, 1), -1);
  EXPECT_EQ(C.find(0x2000, 0, 1), -1);
  EXPECT_EQ(C.block(A1), nullptr);
  EXPECT_EQ(C.block(B1), nullptr);
  EXPECT_NE(C.block(A0), nullptr);
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(C.Stats.AsidInvalidations, 1u);
  EXPECT_EQ(C.Stats.TbsInvalidated, 2u);
  EXPECT_EQ(C.Stats.TbsRetained, 1u);
}

TEST(CodeCache, InvalidatePageDropsSpanningBlocksFromEitherSide) {
  CodeCache C;
  // Block straddling the 0x1000 -> 0x2000 page boundary.
  const int Straddle = C.insert(makeBlock(0x1FF8, /*NumGuestInstrs=*/4), 0, 0);
  const int InPage = C.insert(makeBlock(0x2100), 0, 0);
  const int Elsewhere = C.insert(makeBlock(0x5000), 0, 2);
  C.invalidatePage(0x2000);
  EXPECT_EQ(C.block(Straddle), nullptr) << "straddling block covers 0x2000";
  EXPECT_EQ(C.block(InPage), nullptr);
  EXPECT_NE(C.block(Elsewhere), nullptr);
  EXPECT_EQ(C.Stats.PageInvalidations, 1u);
  EXPECT_EQ(C.Stats.TbsInvalidated, 2u);
  EXPECT_EQ(C.Stats.TbsRetained, 1u);

  // The same straddling block is also reachable from its first page.
  const int Straddle2 = C.insert(makeBlock(0x1FF8, 4), 0, 0);
  C.invalidatePage(0x1000);
  EXPECT_EQ(C.block(Straddle2), nullptr);
}

TEST(CodeCache, InvalidationUnlinksIncomingChainsAndRevivesFlagSave) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 1);
  ASSERT_TRUE(C.chain(A, 0, B, /*ElideFlagSave=*/true));
  ASSERT_FALSE(C.block(A)->Code == makeBlock(0x1000).Code);

  C.invalidateAsid(1); // drops B, must unlink A -> B
  ASSERT_NE(C.block(A), nullptr);
  EXPECT_EQ(C.block(A)->Chains[0].TargetTb, -1)
      << "chain into the dropped block must be reset";
  EXPECT_TRUE(C.block(A)->Code == makeBlock(0x1000).Code)
      << "the elided flag-save must be resurrected on unlink, exactly";
  EXPECT_EQ(C.Stats.ChainsUnlinked, 1u);
  EXPECT_EQ(C.Stats.ElisionsReverted, 1u);

  // The revived slot can chain again, to a new target.
  const int B2 = C.insert(makeBlock(0x2000), 0, 1);
  EXPECT_TRUE(C.chain(A, 0, B2, false));
  EXPECT_EQ(C.block(A)->Chains[0].TargetTb, B2);
}

TEST(CodeCache, SelfChainInvalidation) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 3);
  ASSERT_TRUE(C.chain(A, 0, A, false)); // tight loop chained to itself
  C.invalidateAsid(3);
  EXPECT_EQ(C.block(A), nullptr);
  EXPECT_EQ(C.Stats.TbsInvalidated, 1u);
}

TEST(CodeCache, IdsNeverReusedAcrossFlush) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  C.flush();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.block(A), nullptr);
  const int A2 = C.insert(makeBlock(0x1000), 0, 0);
  EXPECT_GT(A2, B) << "ids must be monotonic across flushes";
  EXPECT_EQ(C.block(A), nullptr) << "retired id must not alias new blocks";
  EXPECT_EQ(C.find(0x1000, 0, 0), A2);
}

TEST(CodeCache, StaleIdChainRequestIsRefused) {
  // The regression for the Engine.cpp hazard: a FromTb captured before a
  // flush must not patch whatever lives at that id afterwards.
  CodeCache C;
  const int From = C.insert(makeBlock(0x1000), 0, 0);
  C.flush();
  const int To = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_FALSE(C.chain(From, 0, To, false));
  EXPECT_EQ(C.Stats.StaleChainRequests, 1u);
  EXPECT_EQ(C.Stats.ChainsMade, 0u);

  // Same for a target dropped by a partial invalidation.
  const int From2 = C.insert(makeBlock(0x3000), 0, 0);
  const int To2 = C.insert(makeBlock(0x4000), 0, 1);
  C.invalidateAsid(1);
  EXPECT_FALSE(C.chain(From2, 0, To2, false));
  EXPECT_EQ(C.Stats.StaleChainRequests, 2u);
}

TEST(CodeCache, RetranslationAccounting) {
  CodeCache C;
  host::HostBlock B = makeBlock(0x1000, /*NumGuestInstrs=*/7);
  C.insert(std::move(B), 0, 0);
  EXPECT_EQ(C.Stats.Retranslations, 0u);
  C.flush();
  C.insert(makeBlock(0x1000, 7), 0, 0);
  EXPECT_EQ(C.Stats.Retranslations, 1u);
  EXPECT_EQ(C.Stats.RetranslatedGuestInstrs, 7u);
  // A fresh key under another ASID is a first translation, not a re-do.
  C.insert(makeBlock(0x1000, 7), 0, 1);
  EXPECT_EQ(C.Stats.Retranslations, 1u);
}

TEST(CodeCache, FindAfterPartialFlushKeepsSurvivors) {
  CodeCache C;
  int Ids[8];
  for (int I = 0; I < 8; ++I)
    Ids[I] = C.insert(makeBlock(0x1000 + 0x1000u * I), 0,
                      static_cast<uint32_t>(I % 2));
  C.invalidateAsid(0);
  for (int I = 0; I < 8; ++I) {
    const uint32_t Pc = 0x1000 + 0x1000u * I;
    if (I % 2) {
      EXPECT_EQ(C.find(Pc, 0, 1), Ids[I]);
      EXPECT_NE(C.block(Ids[I]), nullptr);
    } else {
      EXPECT_EQ(C.find(Pc, 0, 0), -1);
      EXPECT_EQ(C.block(Ids[I]), nullptr);
    }
  }
  EXPECT_EQ(C.size(), 4u);
}

//===----------------------------------------------------------------------===//
// The code of every block a workload translates
//===----------------------------------------------------------------------===//

/// Cycles HostMachine::run charges for \p H before a helper's own cost
/// (a probe at its hit cost).
unsigned staticCycles(const host::HInst &H) {
  switch (H.Op) {
  case host::HOp::Marker:
    return 0;
  case host::HOp::PackF:
  case host::HOp::UnpackF:
    return 2;
  case host::HOp::Probe:
    return host::ProbeHitCycles;
  case host::HOp::CallHelper:
    return 3;
  default:
    return 1;
  }
}

bool fusable(const host::HInst &H) {
  return H.Op == host::HOp::CoordRun || host::isCoordination(H);
}

/// Checks that \p B's code, as HostMachine::run dispatches it (a CoordRun
/// header and its run are one op; an elided flag save's chain slot, moved
/// to the range's start, skips the range), charges what its live
/// instructions charge per class: each header the cycles and markers of
/// its run, with nothing but coordination instructions in it and nothing
/// left to fuse. Also checks that its jumps land on ops, its probes keep
/// their calls and each flag-save range is elided or intact. Returns its
/// number of coordination runs.
unsigned checkCode(const host::HostBlock &B, const std::string &Where) {
  using host::HOp;
  const std::vector<host::HInst> &X = B.Code;
  std::vector<bool> Elided(X.size(), false); // the skipped instructions
  for (int S = 0; S < 2; ++S) {
    const host::HostBlock::Chain &Ch = B.Chains[S];
    if (Ch.FlagSaveBegin < 0)
      continue;
    const host::HInst &First = X[Ch.FlagSaveBegin];
    const host::HInst &Last = X[Ch.FlagSaveEnd];
    if (First.Op == HOp::ChainSlot) {
      EXPECT_EQ(S, First.Imm) << Where;
      EXPECT_GE(Ch.TargetTb, 0) << Where << ": elided, yet not chained";
      EXPECT_TRUE(Last.Op == HOp::Marker) << Where;
      for (int I = Ch.FlagSaveBegin + 1; I <= Ch.FlagSaveEnd; ++I)
        Elided[I] = true;
    } else {
      EXPECT_TRUE(First.Op == HOp::Marker && Last.Op == HOp::ChainSlot &&
                  Last.Imm == S)
          << Where << " slot " << S;
      EXPECT_TRUE(host::isCoordination(X[Ch.FlagSaveBegin - 1]))
          << Where << ": the flag save opens its run";
    }
  }
  uint64_t CodeCycles[host::NumCostClasses] = {};
  uint64_t ExecCycles[host::NumCostClasses] = {};
  for (size_t I = 0; I < X.size(); ++I)
    if (X[I].Op != HOp::CoordRun && !Elided[I])
      CodeCycles[static_cast<unsigned>(X[I].Cls)] += staticCycles(X[I]);

  std::vector<size_t> Ops; // indices of the ops run dispatches
  std::vector<bool> IsOp(X.size(), false);
  unsigned Runs = 0;
  for (size_t I = 0; I < X.size();) {
    const host::HInst &H = X[I];
    Ops.push_back(I);
    IsOp[I] = true;
    if (H.Op != HOp::CoordRun) {
      ExecCycles[static_cast<unsigned>(H.Cls)] += staticCycles(H);
      if (H.Op == HOp::Probe)
        EXPECT_TRUE(I + 1 < X.size() && X[I + 1].Op == HOp::CallHelper)
            << Where << " probe " << I << " lost its call";
      ++I;
      while (I < X.size() && Elided[I])
        ++I;
      continue;
    }
    ++Runs;
    if (I + 1 + H.Slot >= X.size()) {
      ADD_FAILURE() << Where << " run " << I << " overruns the block";
      return Runs;
    }
    // An elision cuts the run before the flag save, down to one
    // instruction where only the exit's marker precedes it.
    const bool Cut = X[I + 1 + H.Slot].Op == HOp::ChainSlot &&
                     B.Chains[X[I + 1 + H.Slot].Imm].FlagSaveBegin ==
                         static_cast<int>(I + 1 + H.Slot);
    EXPECT_GE(H.Slot, Cut ? 1u : 2u) << Where << " op " << I;
    uint64_t Cycles[host::NumCostClasses] = {}, Markers = 0;
    for (size_t K = I + 1; K <= I + H.Slot; ++K) {
      const host::HInst &Item = X[K];
      EXPECT_TRUE(host::isCoordination(Item)) << Where << " item " << K;
      Cycles[static_cast<unsigned>(Item.Cls)] += staticCycles(Item);
      Markers += Item.Op == HOp::Marker;
    }
    EXPECT_EQ(Cycles[static_cast<unsigned>(host::CostClass::Sync)],
              static_cast<uint64_t>(H.Imm))
        << Where << " run " << I;
    EXPECT_EQ(Cycles[static_cast<unsigned>(host::CostClass::Glue)],
              static_cast<uint64_t>(H.Target))
        << Where << " run " << I;
    EXPECT_EQ(Markers, H.Helper) << Where << " run " << I;
    ExecCycles[static_cast<unsigned>(host::CostClass::Sync)] += H.Imm;
    ExecCycles[static_cast<unsigned>(host::CostClass::Glue)] += H.Target;
    I += H.Slot + 1u;
  }
  for (unsigned C = 0; C < host::NumCostClasses; ++C)
    EXPECT_EQ(CodeCycles[C], ExecCycles[C]) << Where << " class " << C;

  std::vector<bool> Landing(X.size(), false);
  for (size_t I : Ops)
    if (X[I].Op == HOp::Jcc || X[I].Op == HOp::Jmp) {
      const int32_t T = X[I].Target;
      if (T < 0 || static_cast<size_t>(T) >= X.size() || !IsOp[T]) {
        ADD_FAILURE() << Where << " jump " << I << " lands off an op";
        continue;
      }
      Landing[T] = true;
    }
  for (size_t K = 1; K < Ops.size(); ++K)
    EXPECT_FALSE(fusable(X[Ops[K - 1]]) && fusable(X[Ops[K]]) &&
                 !Landing[Ops[K]])
        << Where << " ops " << Ops[K - 1] << " and " << Ops[K]
        << " are one unfused run";
  return Runs;
}

TEST(CodeCache, ExecutedFormOfEveryTranslatedBlockIsExact) {
  for (const char *Spec :
       {"rule:scheduling/gcc@1", "rule:base/ctxswitch@1", "qemu/sqlite@1"}) {
    vm::Vm V(vm::VmConfig::fromSpec(Spec));
    ASSERT_TRUE(V.valid()) << Spec << ": " << V.error();
    const vm::RunReport R = V.run();
    ASSERT_TRUE(R.Ok) << Spec;
    const auto Img = V.engine()->codeCache().capture();
    size_t Blocks = 0, WithElided = 0, Runs = 0;
    for (const CodeCache::Entry &E : Img->Entries) {
      if (!E.Block)
        continue;
      ++Blocks;
      for (const host::HostBlock::Chain &Ch : E.Block->Chains)
        WithElided += Ch.FlagSaveBegin >= 0 &&
                      E.Block->Code[Ch.FlagSaveBegin].Op ==
                          host::HOp::ChainSlot;
      Runs += checkCode(*E.Block, std::string(Spec) + " tb @ " +
                                      std::to_string(E.Block->GuestPc));
    }
    EXPECT_GT(Blocks, 10u) << Spec;
    const std::string Kind(Spec);
    if (Kind.rfind("rule:scheduling", 0) == 0)
      EXPECT_GT(WithElided, 0u) << Spec << ": no chain elided a flag save";
    if (Kind.rfind("rule", 0) == 0) {
      EXPECT_GT(Runs, Blocks) << Spec;
    } else {
      EXPECT_EQ(0u, Runs) << Spec << ": qemu brackets have nothing to fuse";
    }
  }
}

//===----------------------------------------------------------------------===//
// Integration: the ctxswitch workload through the vm/ facade
//===----------------------------------------------------------------------===//

vm::RunReport runCtxswitch(const char *Kind) {
  vm::Vm V(vm::VmConfig().workload("ctxswitch").scale(1).translator(Kind));
  EXPECT_TRUE(V.valid()) << V.error();
  return V.run();
}

TEST(CtxSwitch, AsidSwitchesKeepEveryTranslation) {
  // Every SysYield rewrites TTBR0 and CONTEXTIDR; under ASID-selective
  // invalidation only the boot-time MMU enable flushes the cache, and no
  // guest instruction is ever translated twice.
  for (const char *Kind : {"qemu", "rule:scheduling"}) {
    const vm::RunReport R = runCtxswitch(Kind);
    ASSERT_TRUE(R.Ok) << Kind << ": " << R.stopName();
    EXPECT_EQ(R.Cache.Flushes, 1u) << Kind;
    EXPECT_EQ(R.Cache.RetranslatedGuestInstrs, 0u) << Kind;
  }
}

TEST(CtxSwitch, AllExecutorsAgreeOnConsole) {
  const vm::RunReport Native = runCtxswitch("native");
  const vm::RunReport Qemu = runCtxswitch("qemu");
  const vm::RunReport Rule = runCtxswitch("rule:scheduling");
  ASSERT_TRUE(Native.Ok);
  ASSERT_TRUE(Qemu.Ok);
  ASSERT_TRUE(Rule.Ok);
  EXPECT_FALSE(Native.Console.empty());
  EXPECT_EQ(Native.Console, Qemu.Console);
  EXPECT_EQ(Native.Console, Rule.Console);
}

TEST(CtxSwitch, ReportSurfacesCacheAndRuleCounters) {
  const vm::RunReport R = runCtxswitch("rule:scheduling");
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Engine.Translations, 0u);
  EXPECT_GT(R.RuleMatchAttempts, 0u);
  EXPECT_GT(R.RuleMatchHits, 0u);
  EXPECT_LE(R.RuleMatchHits, R.RuleMatchAttempts);
}

} // namespace
