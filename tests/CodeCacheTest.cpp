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
#include "guestsw/Workloads.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace rdbt;
using namespace rdbt::dbt;

namespace {

/// A minimal host block: \p NumInstrs sync-class instructions, a
/// flag-save region [1, 3) attached to chain slot 0.
host::HostBlock makeBlock(uint32_t GuestPc, uint32_t NumGuestInstrs = 4) {
  host::HostBlock B;
  B.GuestPc = GuestPc;
  B.NumGuestInstrs = NumGuestInstrs;
  for (int I = 0; I < 4; ++I) {
    host::HInst H;
    H.Op = host::HOp::Nop;
    H.Cls = host::CostClass::Sync;
    B.Code.push_back(H);
  }
  B.Chains[0].GuestTarget = GuestPc + 4 * NumGuestInstrs;
  B.Chains[0].FlagSaveBegin = 1;
  B.Chains[0].FlagSaveEnd = 3;
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

TEST(CodeCache, ChainElisionMarksFlagSaveDeadAndCounts) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_TRUE(C.chain(A, 0, B, /*ElideFlagSave=*/true));
  EXPECT_EQ(C.block(A)->Chains[0].TargetTb, B);
  EXPECT_TRUE(C.block(A)->Code[1].Dead);
  EXPECT_TRUE(C.block(A)->Code[2].Dead);
  EXPECT_FALSE(C.block(A)->Code[0].Dead);
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
  EXPECT_FALSE(C.block(A)->Code[1].Dead);
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
  ASSERT_TRUE(C.block(A)->Code[1].Dead);

  C.invalidateAsid(1); // drops B, must unlink A -> B
  ASSERT_NE(C.block(A), nullptr);
  EXPECT_EQ(C.block(A)->Chains[0].TargetTb, -1)
      << "chain into the dropped block must be reset";
  EXPECT_FALSE(C.block(A)->Code[1].Dead)
      << "elided flag-save must be resurrected on unlink";
  EXPECT_FALSE(C.block(A)->Code[2].Dead);
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
