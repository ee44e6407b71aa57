//===- tests/SysTest.cpp - System substrate unit tests ---------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the system substrate: env/CPSR/banking, MMU walks and
/// permissions, the software TLB, instruction-fetch semantics (the model
/// has no I-TLB, so a page-table change shows on the very next fetch),
/// devices and the wall clock, and the interpreter's architectural corner
/// cases.
///
//===----------------------------------------------------------------------===//

#include "arm/AsmBuilder.h"
#include "guestsw/Workloads.h"
#include "sys/Interpreter.h"
#include "sys/Mmu.h"
#include "sys/Platform.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace rdbt;
using namespace rdbt::sys;
using namespace rdbt::arm;

namespace {

TEST(Env, ModeSwitchBanksSpLr) {
  CpuEnv Env;
  resetEnv(Env);
  Env.Regs[13] = 0x1000; // SVC sp
  Env.Regs[14] = 0x2000;
  switchMode(Env, ModeUsr);
  Env.Regs[13] = 0x3000;
  switchMode(Env, ModeIrq);
  Env.Regs[13] = 0x4000;
  switchMode(Env, ModeSvc);
  EXPECT_EQ(Env.Regs[13], 0x1000u);
  EXPECT_EQ(Env.Regs[14], 0x2000u);
  switchMode(Env, ModeUsr);
  EXPECT_EQ(Env.Regs[13], 0x3000u);
  EXPECT_EQ(Env.MmuIdx, 1u);
}

TEST(Env, PackedCcrMaterialization) {
  CpuEnv Env;
  resetEnv(Env);
  Env.PackedCcr = CpsrN | CpsrC;
  Env.CcrPacked = 1;
  EXPECT_TRUE(materializeFlags(Env));
  EXPECT_EQ(Env.NF, 1u);
  EXPECT_EQ(Env.ZF, 0u);
  EXPECT_EQ(Env.CF, 1u);
  EXPECT_FALSE(materializeFlags(Env)) << "second parse must be a no-op";
  EXPECT_EQ(cpsrRead(Env) & (CpsrN | CpsrZ | CpsrC | CpsrV), CpsrN | CpsrC);
}

TEST(Env, ExceptionEntryAndSpsr) {
  CpuEnv Env;
  resetEnv(Env);
  switchMode(Env, ModeUsr);
  Env.IrqDisabled = 0;
  Env.NF = 1;
  Env.Regs[15] = 0x1234;
  Env.Vbar = 0;
  takeException(Env, ExcKind::Irq, 0x1234);
  EXPECT_EQ(Env.Mode, ModeIrq);
  EXPECT_EQ(Env.Regs[15], 0x18u);
  EXPECT_EQ(Env.Regs[14], 0x1238u);
  EXPECT_EQ(Env.IrqDisabled, 1u);
  EXPECT_TRUE(Env.SpsrIrq & CpsrN);
  EXPECT_EQ(Env.SpsrIrq & CpsrModeMask, ModeUsr);
}

class MmuFixture : public ::testing::Test {
protected:
  MmuFixture() : Board(8 << 20), Mmu_(Board.Env, Board) {}

  /// Builds: section 0 priv RW identity; section at 1 MiB user RW mapped
  /// to 2 MiB; L2 page table for VA 3 MiB with one read-only user page.
  void buildTables() {
    const uint32_t L1 = 0x8000;
    Board.Env.Ttbr0 = L1;
    Board.Ram.write(L1 + 0 * 4, 4, 0x00000000u | (1u << 10) | 2u);
    Board.Ram.write(L1 + 1 * 4, 4, 0x00200000u | (3u << 10) | 2u);
    const uint32_t L2 = 0xC000;
    Board.Ram.write(L1 + 3 * 4, 4, L2 | 1u);
    Board.Ram.write(L2 + 0 * 4, 4, 0x00300000u | (2u << 4) | 2u);
    Board.Env.Sctlr = SctlrMmuEnable;
  }

  /// Fetches the instruction word at \p Va under the current MmuIdx.
  uint32_t fetch(uint32_t Va) {
    uint32_t Word = 0;
    Fault F;
    EXPECT_TRUE(Mmu_.fetchWord(Va, Word, F)) << std::hex << Va;
    return Word;
  }

  /// A guest store through the data side of the MMU.
  void guestStore(uint32_t Va, uint32_t Value) {
    Fault F;
    EXPECT_TRUE(Mmu_.writeVirt(Va, 4, Value, F)) << std::hex << Va;
  }

  sys::Platform Board;
  Mmu Mmu_;
};

TEST_F(MmuFixture, DisabledMmuIsIdentity) {
  uint32_t Pa = 1;
  Fault F;
  unsigned Walk = 0;
  ASSERT_TRUE(Mmu_.translate(0x12345678, AccessKind::Read, true, Pa, F,
                             Walk));
  EXPECT_EQ(Pa, 0x12345678u);
  EXPECT_EQ(Walk, 0u);
}

TEST_F(MmuFixture, SectionTranslationAndPermissions) {
  buildTables();
  uint32_t Pa = 0;
  Fault F;
  unsigned Walk = 0;
  // Privileged RW on section 0.
  ASSERT_TRUE(Mmu_.translate(0x00000123, AccessKind::Write, true, Pa, F,
                             Walk));
  EXPECT_EQ(Pa, 0x123u);
  EXPECT_EQ(Walk, 1u);
  // User access to a priv-only section faults with a permission code.
  EXPECT_FALSE(Mmu_.translate(0x00000123, AccessKind::Read, false, Pa, F,
                              Walk));
  EXPECT_EQ(F.Fsr, FsrPermissionSection);
  // User RW section remaps 1 MiB -> 2 MiB.
  ASSERT_TRUE(Mmu_.translate(0x00100040, AccessKind::Write, false, Pa, F,
                             Walk));
  EXPECT_EQ(Pa, 0x00200040u);
}

TEST_F(MmuFixture, SmallPageReadOnlyForUser) {
  buildTables();
  uint32_t Pa = 0;
  Fault F;
  unsigned Walk = 0;
  ASSERT_TRUE(Mmu_.translate(0x00300010, AccessKind::Read, false, Pa, F,
                             Walk));
  EXPECT_EQ(Pa, 0x00300010u);
  EXPECT_EQ(Walk, 2u);
  EXPECT_FALSE(Mmu_.translate(0x00300010, AccessKind::Write, false, Pa, F,
                              Walk));
  EXPECT_EQ(F.Fsr, FsrPermissionPage);
  // Unmapped VA -> translation fault.
  EXPECT_FALSE(Mmu_.translate(0x00400000, AccessKind::Read, false, Pa, F,
                              Walk));
  EXPECT_EQ(F.Fsr, FsrTranslationSection);
}

TEST_F(MmuFixture, TlbCachesAndFlushes) {
  buildTables();
  Board.Env.MmuIdx = 0;
  uint32_t Value = 0;
  Fault F;
  Board.Ram.write(0x40, 4, 0xABCD1234u);
  ASSERT_TRUE(Mmu_.readVirt(0x40, 4, Value, F));
  EXPECT_EQ(Value, 0xABCD1234u);
  const uint64_t Misses = Mmu_.Misses;
  ASSERT_TRUE(Mmu_.readVirt(0x44, 4, Value, F));
  EXPECT_EQ(Mmu_.Misses, Misses) << "same page must hit the TLB";
  Mmu_.flushTlb();
  ASSERT_TRUE(Mmu_.readVirt(0x44, 4, Value, F));
  EXPECT_EQ(Mmu_.Misses, Misses + 1);
}

TEST_F(MmuFixture, ReadOnlyPageInstallsNoWriteTag) {
  buildTables();
  Board.Env.MmuIdx = 1; // user
  uint32_t Value = 0;
  Fault F;
  ASSERT_TRUE(Mmu_.readVirt(0x00300010, 4, Value, F));
  const TlbEntry &E = Board.Env.Tlb[1][(0x00300010u >> 12) & (TlbSize - 1)];
  EXPECT_EQ(E.TagRead, 0x00300010u >> 12);
  EXPECT_EQ(E.TagWrite, TlbInvalidTag);
  EXPECT_FALSE(Mmu_.writeVirt(0x00300010, 4, 1, F));
  EXPECT_EQ(F.Fsr, FsrPermissionPage);
}

TEST_F(MmuFixture, TlbEntriesTaggedWithCurrentAsid) {
  buildTables();
  uint32_t Value = 0;
  Fault F;
  Board.Env.Contextidr = 5;
  ASSERT_TRUE(Mmu_.readVirt(0x40, 4, Value, F));
  const TlbEntry &E = Board.Env.Tlb[0][0];
  EXPECT_EQ(E.Asid, 5u);
  EXPECT_EQ(E.TagRead, 0u);
}

TEST_F(MmuFixture, AsidSelectiveTlbFlushes) {
  buildTables();
  uint32_t Value = 0;
  Fault F;
  // Fill page 0 under ASID 1 and page 1 under ASID 2 (different TLB
  // slots, both halves' privileged side).
  Board.Env.Contextidr = 1;
  ASSERT_TRUE(Mmu_.readVirt(0x40, 4, Value, F));
  Board.Env.Contextidr = 2;
  ASSERT_TRUE(Mmu_.readVirt(0x1040, 4, Value, F));

  // TLBIASID 1 keeps ASID 2's entry.
  Mmu_.flushTlbAsid(1);
  EXPECT_EQ(Board.Env.Tlb[0][0].TagRead, TlbInvalidTag);
  EXPECT_EQ(Board.Env.Tlb[0][1].TagRead, 1u);

  // Refill page 0 under ASID 1; a switch to ASID 2 shelves it but keeps
  // ASID 2's own entry.
  Board.Env.Contextidr = 1;
  ASSERT_TRUE(Mmu_.readVirt(0x40, 4, Value, F));
  Mmu_.flushTlbExceptAsid(2);
  EXPECT_EQ(Board.Env.Tlb[0][0].TagRead, TlbInvalidTag);
  EXPECT_EQ(Board.Env.Tlb[0][1].TagRead, 1u);
}

TEST_F(MmuFixture, PageSelectiveTlbFlush) {
  buildTables();
  uint32_t Value = 0;
  Fault F;
  ASSERT_TRUE(Mmu_.readVirt(0x40, 4, Value, F));
  ASSERT_TRUE(Mmu_.readVirt(0x1040, 4, Value, F));
  Mmu_.flushTlbPage(0x0);
  EXPECT_EQ(Board.Env.Tlb[0][0].TagRead, TlbInvalidTag);
  EXPECT_EQ(Board.Env.Tlb[0][1].TagRead, 1u) << "other pages must survive";
}

TEST(Env, TbInvalidateRequestMerging) {
  CpuEnv Env;
  resetEnv(Env);
  EXPECT_EQ(Env.TbInvKind, TbInvNone);

  // Same-scope requests coalesce.
  requestTbInvalidate(Env, TbInvAsid, 3);
  requestTbInvalidate(Env, TbInvAsid, 3);
  EXPECT_EQ(Env.TbInvKind, TbInvAsid);
  EXPECT_EQ(Env.TbInvAsid, 3u);

  // A different ASID escalates to full.
  requestTbInvalidate(Env, TbInvAsid, 4);
  EXPECT_EQ(Env.TbInvKind, TbInvFull);

  // Full absorbs everything.
  requestTbInvalidate(Env, TbInvPage, 0, 0x4000);
  EXPECT_EQ(Env.TbInvKind, TbInvFull);

  // Page + different page escalates; page + same page coalesces.
  Env.TbInvKind = TbInvNone;
  requestTbInvalidate(Env, TbInvPage, 0, 0x4123); // low bits masked
  EXPECT_EQ(Env.TbInvKind, TbInvPage);
  EXPECT_EQ(Env.TbInvPage, 0x4000u);
  requestTbInvalidate(Env, TbInvPage, 0, 0x4000);
  EXPECT_EQ(Env.TbInvKind, TbInvPage);
  requestTbInvalidate(Env, TbInvPage, 0, 0x5000);
  EXPECT_EQ(Env.TbInvKind, TbInvFull);

  // Mixed kinds escalate.
  Env.TbInvKind = TbInvNone;
  requestTbInvalidate(Env, TbInvAsid, 1);
  requestTbInvalidate(Env, TbInvPage, 0, 0x4000);
  EXPECT_EQ(Env.TbInvKind, TbInvFull);
}

TEST_F(MmuFixture, MmioNeverInstallsTlbTags) {
  uint32_t Value = 0;
  Fault F;
  // MMU off: identity to the UART page.
  ASSERT_TRUE(Mmu_.writeVirt(MmioUart + Uart::RegTx, 4, 'x', F));
  EXPECT_EQ(Board.uart().output(), "x");
  const TlbEntry &E =
      Board.Env.Tlb[0][(MmioUart >> 12) & (TlbSize - 1)];
  EXPECT_EQ(E.TagWrite, TlbInvalidTag);
  EXPECT_TRUE(E.PhysFlags & TlbFlagIo);
}

// A VA mapped past the end of RAM (below the MMIO window) must abort on
// every access and install no tag: a tag hit goes straight to the RAM page
// pointers, here and in generated code.
TEST_F(MmuFixture, HoleInRamInstallsNoTlbTags) {
  buildTables();
  const uint32_t Hole = 0x0A000000u; // the board has 8 MiB
  ASSERT_FALSE(Board.Ram.contains(Hole, 4));
  ASSERT_FALSE(Board.isIoPage(Hole));
  Board.Ram.write(0x8000 + 5 * 4, 4, Hole | (3u << 10) | 2u); // VA 5 MiB
  const uint32_t Va = 0x00500000u;
  for (int Pass = 0; Pass < 2; ++Pass) {
    uint32_t Value = 0;
    Fault F;
    EXPECT_FALSE(Mmu_.readVirt(Va, 4, Value, F)) << "pass " << Pass;
    EXPECT_EQ(FsrExternal, F.Fsr);
    EXPECT_EQ(Va, F.Far);
    F = Fault();
    EXPECT_FALSE(Mmu_.writeVirt(Va + 4, 4, 1, F)) << "pass " << Pass;
    EXPECT_EQ(FsrExternal, F.Fsr);
    const TlbEntry &E = Board.Env.Tlb[0][(Va >> 12) & (TlbSize - 1)];
    EXPECT_EQ(TlbInvalidTag, E.TagRead);
    EXPECT_EQ(TlbInvalidTag, E.TagWrite);
  }
  EXPECT_EQ(0u, Mmu_.Hits);
  EXPECT_EQ(4u, Mmu_.Misses);
  uint32_t Word = 0;
  Fault F;
  EXPECT_FALSE(Mmu_.fetchWord(Va, Word, F));
  EXPECT_EQ(FsrExternal, F.Fsr);
}

// A store that hits the TLB writes through the page pointer, which a walk
// mark has cleared: it must still void the memoized fetch translation.
TEST_F(MmuFixture, StoreHitOnAWalkedPageVoidsTheFetchMemo) {
  buildTables();
  Board.Ram.write(0x00300000, 4, 0x11111111u);
  Board.Ram.write(0x00310000, 4, 0x22222222u);
  guestStore(0xC004, 0); // fills the TLB entry for the L2 table's page
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  const uint64_t HitsBefore = Mmu_.Hits;
  guestStore(0xC000, 0x00310000u | (2u << 4) | 2u); // L2[0] -> 0x310000
  ASSERT_EQ(HitsBefore + 1, Mmu_.Hits) << "the edit must be a TLB hit";
  EXPECT_EQ(fetch(0x00300000), 0x22222222u);
}

// --- Guest RAM page table -------------------------------------------------

TEST(PhysMem, FreshRamPointsEveryPageAtTheZeroPage) {
  const uint32_t Size = 4 << 20;
  const PhysMem Ram(Size);
  for (uint32_t Pn = 0; Pn < Size >> PhysMem::PageShift; ++Pn)
    ASSERT_EQ(PhysMem::zeroPage(), Ram.page(Pn)) << "page " << Pn;
  EXPECT_EQ(0u, Ram.read(Size - 4, 4));
  EXPECT_EQ(0u, Ram.cowPrivatePages());
}

TEST(PhysMem, WritesCloneOnlyPagesTheyDoNotOwn) {
  PhysMem Ram(64 << 10);
  Ram.write(0x1000, 4, 0x12345678u);
  const uint8_t *Page1 = Ram.page(1);
  EXPECT_NE(PhysMem::zeroPage(), Page1);
  EXPECT_EQ(PhysMem::zeroPage(), Ram.page(2));
  Ram.write(0x1004, 4, 1);
  EXPECT_EQ(Page1, Ram.page(1)) << "an owned page is written in place";

  const auto Img = Ram.capture();
  PhysMem Fork(*Img);
  EXPECT_EQ(Page1, Fork.page(1));
  EXPECT_EQ(PhysMem::zeroPage(), Fork.page(2));

  // The master's write clones page 1; the image and the fork keep it.
  Ram.write(0x1000, 4, 0xAAAAAAAAu);
  EXPECT_NE(Page1, Ram.page(1));
  EXPECT_EQ(Page1, Img->Pages[1]->Bytes);
  EXPECT_EQ(0x12345678u, Fork.read(0x1000, 4));
  EXPECT_EQ(1u, Ram.read(0x1004, 4)) << "the clone carries the old bytes";

  // The fork's writes clone too, and count as its working set.
  Fork.write(0x1000, 4, 0xBBBBBBBBu);
  Fork.writeBlock(0x1FFE, "\x01\x02\x03\x04", 4); // pages 1 and 2
  EXPECT_EQ(2u, Fork.cowPrivatePages());
  EXPECT_EQ(0u, Ram.cowPrivatePages());
  EXPECT_EQ(0xAAAAAAAAu, Ram.read(0x1000, 4));
  EXPECT_EQ(0xBBBBBBBBu, Fork.read(0x1000, 4));
  EXPECT_EQ(0x0201u, Fork.read(0x1FFE, 2));
  EXPECT_EQ(0x0403u, Fork.read(0x2000, 2));
  uint32_t Frozen = 0;
  std::memcpy(&Frozen, Img->Pages[1]->Bytes, 4);
  EXPECT_EQ(0x12345678u, Frozen);
  EXPECT_EQ(PhysMem::zeroPage(), Img->Pages[2]->Bytes);
  EXPECT_EQ(PhysMem::zeroPage(), Ram.page(2));
}

TEST(PhysMem, WriteToAMarkedPageBumpsTheWalkGeneration) {
  PhysMem Ram(64 << 10);
  Ram.markWalked(0x3000);
  Ram.write(0x2000, 4, 1);
  EXPECT_EQ(0u, Ram.walkGeneration());
  Ram.write(0x3000, 4, 1); // privatizes the zero page
  EXPECT_EQ(1u, Ram.walkGeneration());
  Ram.write(0x3004, 4, 1); // owned
  EXPECT_EQ(2u, Ram.walkGeneration());
  const auto Img = Ram.capture();
  Ram.write(0x3000, 4, 2); // clones the page shared with Img
  EXPECT_EQ(3u, Ram.walkGeneration());
  Ram.writeBlock(0x2FFC, "\0\0\0\0\0\0\0\0", 8); // pages 2 and 3
  EXPECT_EQ(4u, Ram.walkGeneration());
}

TEST(PhysMem, WritePointerOnlyWhileOwnedAndNotWalked) {
  PhysMem Ram(64 << 10);
  for (uint32_t Pn = 0; Pn < Ram.numPages(); ++Pn) {
    ASSERT_EQ(Ram.page(Pn), Ram.readPointers()[Pn]);
    ASSERT_EQ(nullptr, Ram.writePointers()[Pn]) << "page " << Pn;
  }
  Ram.write(0x1000, 4, 1);
  Ram.write(0x2000, 4, 1);
  EXPECT_EQ(Ram.page(1), Ram.readPointers()[1]);
  EXPECT_EQ(Ram.page(1), Ram.writePointers()[1]) << "owned, not walked";

  Ram.markWalked(0x2000);
  EXPECT_EQ(nullptr, Ram.writePointers()[2]);
  Ram.write(0x2004, 4, 2);
  EXPECT_EQ(nullptr, Ram.writePointers()[2]) << "a walked page stays slow";
  EXPECT_EQ(1u, Ram.walkGeneration());

  const auto Img = Ram.capture();
  EXPECT_EQ(nullptr, Ram.writePointers()[1]) << "shared with the image";
  PhysMem Fork(*Img);
  for (uint32_t Pn = 0; Pn < Fork.numPages(); ++Pn) {
    ASSERT_EQ(Img->Pages[Pn]->Bytes, Fork.readPointers()[Pn]);
    ASSERT_EQ(nullptr, Fork.writePointers()[Pn]) << "page " << Pn;
  }
  Ram.write(0x1000, 4, 3); // clones page 1
  EXPECT_NE(Img->Pages[1]->Bytes, Ram.readPointers()[1]);
  EXPECT_EQ(Ram.page(1), Ram.writePointers()[1]);
  EXPECT_EQ(1u, Fork.read(0x1000, 4));
  EXPECT_EQ(3u, Ram.read(0x1000, 4));
}

// --- Instruction-fetch semantics ------------------------------------------
//
// The model has no I-TLB: every fetch must see the page tables as they are
// now, with no TLB maintenance after an edit. Each case fetches twice
// before the change, so a memoized translation would be in place.

TEST_F(MmuFixture, FetchSeesL2EditWithoutTlbMaintenance) {
  buildTables();
  Board.Ram.write(0x00300000, 4, 0x11111111u);
  Board.Ram.write(0x00310000, 4, 0x22222222u);
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  guestStore(0xC000, 0x00310000u | (2u << 4) | 2u); // L2[0] -> 0x310000
  EXPECT_EQ(fetch(0x00300000), 0x22222222u);
}

TEST_F(MmuFixture, FetchSeesL1SectionEditWithoutTlbMaintenance) {
  buildTables();
  Board.Ram.write(0x00200000, 4, 0x11111111u);
  Board.Ram.write(0x00500000, 4, 0x22222222u);
  EXPECT_EQ(fetch(0x00100000), 0x11111111u);
  EXPECT_EQ(fetch(0x00100000), 0x11111111u);
  guestStore(0x8000 + 1 * 4, 0x00500000u | (3u << 10) | 2u);
  EXPECT_EQ(fetch(0x00100000), 0x22222222u);
}

TEST_F(MmuFixture, FetchSeesEditOfAPageSharedWithASnapshot) {
  buildTables();
  Board.Ram.write(0x00300000, 4, 0x11111111u);
  Board.Ram.write(0x00310000, 4, 0x22222222u);
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  // The capture shares the L2 table's page, so the edit below first
  // privatizes it: that path, too, must void the memoized fetch.
  const auto Img = Board.Ram.capture();
  const uint32_t L2Page = 0xC000 >> PhysMem::PageShift;
  ASSERT_EQ(Img->Pages[L2Page]->Bytes, Board.Ram.page(L2Page));
  guestStore(0xC000, 0x00310000u | (2u << 4) | 2u); // L2[0] -> 0x310000
  EXPECT_NE(Img->Pages[L2Page]->Bytes, Board.Ram.page(L2Page));
  EXPECT_EQ(fetch(0x00300000), 0x22222222u);
  uint32_t Old = 0;
  std::memcpy(&Old, Img->Pages[L2Page]->Bytes, 4);
  EXPECT_EQ(0x00300000u | (2u << 4) | 2u, Old) << "the image was written";
}

TEST_F(MmuFixture, FetchFollowsTtbr0SwitchWithoutTlbi) {
  buildTables();
  // 1 MiB above the first table, so a cache indexed by the low TTBR0 bits
  // puts both tables' translations in one slot.
  const uint32_t OtherL1 = 0x00108000;
  Board.Ram.write(OtherL1 + 0 * 4, 4, 0x00000000u | (1u << 10) | 2u);
  Board.Ram.write(OtherL1 + 1 * 4, 4, 0x00500000u | (3u << 10) | 2u);
  Board.Ram.write(0x00200000, 4, 0x11111111u);
  Board.Ram.write(0x00500000, 4, 0x22222222u);
  EXPECT_EQ(fetch(0x00100000), 0x11111111u);
  EXPECT_EQ(fetch(0x00100000), 0x11111111u);
  Board.Env.Ttbr0 = OtherL1;
  EXPECT_EQ(fetch(0x00100000), 0x22222222u);
  Board.Env.Ttbr0 = 0x8000;
  EXPECT_EQ(fetch(0x00100000), 0x11111111u);
}

TEST_F(MmuFixture, FetchSeesDiskDmaOntoPageTable) {
  buildTables();
  Board.Ram.write(0x00300000, 4, 0x11111111u);
  Board.Ram.write(0x00310000, 4, 0x22222222u);
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  EXPECT_EQ(fetch(0x00300000), 0x11111111u);
  // Sector 0 holds an L2 table whose entry 0 maps 0x310000; DMA it over
  // the live L2 table.
  const uint32_t Entry = 0x00310000u | (2u << 4) | 2u;
  Board.disk().media().write(0, 4, Entry);
  Board.disk().mmioWrite(DiskDevice::RegSector, 0);
  Board.disk().mmioWrite(DiskDevice::RegDmaAddr, 0xC000);
  Board.disk().mmioWrite(DiskDevice::RegCount, 1);
  Board.disk().mmioWrite(DiskDevice::RegCmd, DiskDevice::CmdRead);
  Board.advance(Board.nextDeadline() - Board.now());
  ASSERT_EQ(Board.disk().mmioRead(DiskDevice::RegStatus), 0u);
  EXPECT_EQ(fetch(0x00300000), 0x22222222u);
}

TEST_F(MmuFixture, UserFetchOfPrivilegedPageFaultsAfterKernelFetch) {
  buildTables();
  Board.Ram.write(0x100, 4, 0x11111111u);
  Board.Env.MmuIdx = 0;
  EXPECT_EQ(fetch(0x100), 0x11111111u);
  EXPECT_EQ(fetch(0x100), 0x11111111u);
  Board.Env.MmuIdx = 1;
  uint32_t Word = 0;
  Fault F;
  EXPECT_FALSE(Mmu_.fetchWord(0x100, Word, F));
  EXPECT_EQ(F.Fsr, FsrPermissionSection);
  EXPECT_EQ(F.Far, 0x100u);
  Board.Env.MmuIdx = 0;
  EXPECT_EQ(fetch(0x100), 0x11111111u);
}

TEST_F(MmuFixture, FetchFollowsMmuToggle) {
  buildTables();
  Board.Ram.write(0x00100000, 4, 0x11111111u);
  Board.Ram.write(0x00200000, 4, 0x22222222u);
  Board.Ram.write(0x00500000, 4, 0x33333333u);
  EXPECT_EQ(fetch(0x00100000), 0x22222222u);
  EXPECT_EQ(fetch(0x00100000), 0x22222222u);
  Board.Env.Sctlr &= ~SctlrMmuEnable;
  EXPECT_EQ(fetch(0x00100000), 0x11111111u) << "MMU off is identity";
  Board.Env.Sctlr |= SctlrMmuEnable;
  EXPECT_EQ(fetch(0x00100000), 0x22222222u);
  // A table edit made while the MMU is off shows once it is back on.
  Board.Env.Sctlr &= ~SctlrMmuEnable;
  Board.Ram.write(0x8000 + 1 * 4, 4, 0x00500000u | (3u << 10) | 2u);
  Board.Env.Sctlr |= SctlrMmuEnable;
  EXPECT_EQ(fetch(0x00100000), 0x33333333u);
}

// A descriptor read from MMIO can change with no RAM store at all, so such
// a walk must never be reused. Here the L1 entry for VA 0x80200000 is the
// timer's count register, i.e. the low bits of the wall clock.
TEST_F(MmuFixture, FetchRewalksDescriptorsReadFromMmio) {
  Board.Env.Ttbr0 = MmioUart; // L1 entry 0x802 lands on timer RegCount
  Board.Env.Sctlr = SctlrMmuEnable;
  Board.Env.MmuIdx = 0;
  const uint32_t Va = 0x80200000u;
  ASSERT_EQ(MmioUart + ((Va >> 20) << 2), MmioTimer + TimerDevice::RegCount);
  Board.Ram.write(0x00500000, 4, 0x11111111u);
  Board.Ram.write(0x00600000, 4, 0x22222222u);
  const uint32_t SectionRw = (3u << 10) | 2u;
  Board.advance((0x00500000u | SectionRw) - Board.now());
  EXPECT_EQ(fetch(Va), 0x11111111u);
  EXPECT_EQ(fetch(Va), 0x11111111u);
  Board.advance((0x00600000u | SectionRw) - Board.now());
  EXPECT_EQ(fetch(Va), 0x22222222u);
}

TEST(Devices, TimerRaisesAndAcks) {
  sys::Platform Board(1 << 20);
  Board.intc().mmioWrite(IntController::RegEnable, 1u << IrqLineTimer);
  Board.timer().mmioWrite(TimerDevice::RegInterval, 1000);
  Board.timer().mmioWrite(TimerDevice::RegCtrl, 1);
  EXPECT_EQ(Board.Env.IrqPending, 0u);
  Board.advance(1500);
  EXPECT_EQ(Board.Env.IrqPending, 1u);
  EXPECT_EQ(Board.timer().ticks(), 1u);
  Board.intc().mmioWrite(IntController::RegAck, IrqLineTimer);
  EXPECT_EQ(Board.Env.IrqPending, 0u);
  Board.advance(1000);
  EXPECT_EQ(Board.timer().ticks(), 2u) << "timer must re-arm";
}

TEST(Devices, DiskDmaCompletesAfterLatency) {
  sys::Platform Board(1 << 20, /*DiskSectors=*/16, /*DiskLatency=*/500);
  for (unsigned I = 0; I < DiskDevice::SectorSize; ++I)
    Board.disk().media().write(I, 1, I & 0xFF);
  Board.disk().mmioWrite(DiskDevice::RegSector, 0);
  Board.disk().mmioWrite(DiskDevice::RegDmaAddr, 0x1000);
  Board.disk().mmioWrite(DiskDevice::RegCount, 1);
  Board.disk().mmioWrite(DiskDevice::RegCmd, DiskDevice::CmdRead);
  EXPECT_EQ(Board.disk().mmioRead(DiskDevice::RegStatus), 1u) << "busy";
  EXPECT_EQ(Board.Ram.read(0x1000, 4), 0u) << "DMA must not be instant";
  Board.advance(600);
  EXPECT_EQ(Board.disk().mmioRead(DiskDevice::RegStatus), 0u);
  EXPECT_EQ(Board.Ram.read(0x1000, 4), 0x03020100u);
}

// Sector * 512 and its sum with the transfer size wrap in 32 bits: sector
// 0x7FFFFF would reach 4 GiB past the media, sector 0x800000 would alias
// sector 0, and 0x800001 sectors would transfer one. Each must move no
// byte and still complete with the disk IRQ.
TEST(Devices, OutOfRangeSectorsMoveNothing) {
  const struct {
    uint32_t Sector, Count;
  } Cases[] = {{0x7FFFFF, 1}, {0x800000, 1}, {0, 0x800001}};
  const uint32_t Dma = 0x1000, Watched = 2 * DiskDevice::SectorSize;
  for (const auto &C : Cases)
    for (uint32_t Cmd : {DiskDevice::CmdRead, DiskDevice::CmdWrite}) {
      sys::Platform Board(1 << 20, /*DiskSectors=*/16, /*DiskLatency=*/5);
      std::vector<uint8_t> Media(16 * DiskDevice::SectorSize), Ram(Watched);
      for (size_t I = 0; I < Media.size(); ++I)
        Media[I] = static_cast<uint8_t>(I * 7 + 1);
      for (size_t I = 0; I < Ram.size(); ++I)
        Ram[I] = static_cast<uint8_t>(I * 13 + 5);
      Board.disk().media().writeBlock(0, Media.data(), Media.size());
      Board.Ram.writeBlock(Dma, Ram.data(), Watched);
      Board.disk().mmioWrite(DiskDevice::RegSector, C.Sector);
      Board.disk().mmioWrite(DiskDevice::RegDmaAddr, Dma);
      Board.disk().mmioWrite(DiskDevice::RegCount, C.Count);
      Board.disk().mmioWrite(DiskDevice::RegCmd, Cmd);
      Board.advance(Board.nextDeadline() - Board.now());
      const std::string Label = "sector " + std::to_string(C.Sector) +
                                ", count " + std::to_string(C.Count) +
                                ", cmd " + std::to_string(Cmd);
      EXPECT_EQ(Board.disk().mmioRead(DiskDevice::RegStatus), 0u) << Label;
      EXPECT_EQ(Board.intc().mmioRead(IntController::RegRaw),
                1u << IrqLineDisk)
          << Label;
      std::vector<uint8_t> MediaAfter(Media.size()), RamAfter(Watched);
      Board.disk().media().readBlock(0, MediaAfter.data(), Media.size());
      Board.Ram.readBlock(Dma, RamAfter.data(), Watched);
      EXPECT_EQ(MediaAfter, Media) << Label;
      EXPECT_EQ(RamAfter, Ram) << Label;
    }
}

TEST(Devices, WallClockFastForward) {
  sys::Platform Board(1 << 20);
  Board.timer().mmioWrite(TimerDevice::RegInterval, 5000);
  Board.timer().mmioWrite(TimerDevice::RegCtrl, 1);
  EXPECT_EQ(Board.nextDeadline(), 5000u);
  const uint64_t Skipped = Board.fastForward();
  EXPECT_EQ(Skipped, 5000u);
  EXPECT_EQ(Board.timer().ticks(), 1u);
}

TEST(Devices, DeadlineFollowsTimerRearmAndDisarm) {
  sys::Platform Board(1 << 20);
  EXPECT_EQ(Board.nextDeadline(), ~0ull);
  Board.timer().mmioWrite(TimerDevice::RegInterval, 1000);
  EXPECT_EQ(Board.nextDeadline(), ~0ull) << "a disabled timer is unarmed";
  Board.timer().mmioWrite(TimerDevice::RegCtrl, 1);
  EXPECT_EQ(Board.nextDeadline(), 1000u);
  Board.advance(200);
  // Rewriting the interval while enabled re-arms from now, even later
  // than the old deadline.
  Board.timer().mmioWrite(TimerDevice::RegInterval, 5000);
  EXPECT_EQ(Board.nextDeadline(), 5200u);
  Board.advance(4999);
  EXPECT_EQ(Board.timer().ticks(), 0u);
  Board.advance(1);
  EXPECT_EQ(Board.timer().ticks(), 1u);
  EXPECT_EQ(Board.nextDeadline(), 10200u) << "the tick re-arms";
  Board.timer().mmioWrite(TimerDevice::RegCtrl, 0);
  EXPECT_EQ(Board.nextDeadline(), ~0ull);
}

TEST(Devices, DeadlineFollowsDiskCommand) {
  sys::Platform Board(1 << 20, /*DiskSectors=*/16, /*DiskLatency=*/500);
  Board.advance(100);
  Board.disk().mmioWrite(DiskDevice::RegDmaAddr, 0x1000);
  Board.disk().mmioWrite(DiskDevice::RegCount, 2);
  Board.disk().mmioWrite(DiskDevice::RegCmd, DiskDevice::CmdRead);
  EXPECT_EQ(Board.nextDeadline(), 1100u);
  // An earlier timer takes over the deadline; disarming hands it back.
  Board.timer().mmioWrite(TimerDevice::RegInterval, 300);
  Board.timer().mmioWrite(TimerDevice::RegCtrl, 1);
  EXPECT_EQ(Board.nextDeadline(), 400u);
  Board.timer().mmioWrite(TimerDevice::RegCtrl, 0);
  EXPECT_EQ(Board.nextDeadline(), 1100u);
  Board.advance(999);
  EXPECT_EQ(Board.disk().mmioRead(DiskDevice::RegStatus), 1u);
  Board.advance(1);
  EXPECT_EQ(Board.disk().mmioRead(DiskDevice::RegStatus), 0u);
  EXPECT_EQ(Board.nextDeadline(), ~0ull) << "completion disarms";
}

TEST(Devices, RestoredBoardFiresPendingDiskOnSameCycle) {
  sys::Platform Orig(1 << 20, /*DiskSectors=*/16, /*DiskLatency=*/500);
  Orig.advance(37);
  Orig.disk().mmioWrite(DiskDevice::RegDmaAddr, 0x1000);
  Orig.disk().mmioWrite(DiskDevice::RegCmd, DiskDevice::CmdRead);
  Orig.advance(123);
  PlatformState S;
  Orig.captureState(S);

  // The target board's own armed timer must not survive the restore.
  sys::Platform Copy(1 << 20, /*DiskSectors=*/16, /*DiskLatency=*/500);
  Copy.timer().mmioWrite(TimerDevice::RegInterval, 10);
  Copy.timer().mmioWrite(TimerDevice::RegCtrl, 1);
  Copy.restoreState(S);
  EXPECT_EQ(Copy.nextDeadline(), Orig.nextDeadline());
  EXPECT_EQ(Copy.nextDeadline(), 537u);

  auto CompletionTime = [](sys::Platform &Board) {
    while (Board.disk().mmioRead(DiskDevice::RegStatus))
      Board.advance(1);
    return Board.now();
  };
  const uint64_t OrigDone = CompletionTime(Orig);
  EXPECT_EQ(OrigDone, 537u);
  EXPECT_EQ(CompletionTime(Copy), OrigDone);
  EXPECT_EQ(Copy.timer().ticks(), 0u);
}

/// Interpreter corner cases, driven by assembled snippets with the MMU
/// off (flat mapping).
class InterpFixture : public ::testing::Test {
protected:
  InterpFixture() : Board(1 << 20), Mmu_(Board.Env, Board),
                    In(Board.Env, Mmu_, Board) {}

  void load(AsmBuilder &A) { Board.Ram.loadWords(A.baseAddr(), A.finish()); }
  StepKind stepAt(uint32_t Pc) {
    Board.Env.Regs[15] = Pc;
    return In.step();
  }

  sys::Platform Board;
  Mmu Mmu_;
  Interpreter In;
};

TEST_F(InterpFixture, ShifterCarryOutLogicalS) {
  AsmBuilder A(0x100);
  // movs r0, r1, lsr #1 with r1 = 1 -> r0 = 0, Z = 1, C = 1.
  A.shift(0, 1, ShiftKind::LSR, 1, Cond::AL, /*S=*/true);
  load(A);
  Board.Env.Regs[1] = 1;
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(Board.Env.Regs[0], 0u);
  EXPECT_EQ(Board.Env.ZF, 1u);
  EXPECT_EQ(Board.Env.CF, 1u);
}

TEST_F(InterpFixture, AdcChainsCarry) {
  AsmBuilder A(0x100);
  A.alu(Opcode::ADD, 0, 1, Operand2::reg(2), Cond::AL, /*S=*/true);
  A.alu(Opcode::ADC, 3, 4, Operand2::imm(0));
  load(A);
  Board.Env.Regs[1] = 0xFFFFFFFF;
  Board.Env.Regs[2] = 2;
  Board.Env.Regs[4] = 10;
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  ASSERT_EQ(In.step(), StepKind::Ok);
  EXPECT_EQ(Board.Env.Regs[0], 1u);
  EXPECT_EQ(Board.Env.Regs[3], 11u) << "carry must propagate into adc";
}

TEST_F(InterpFixture, ConditionalSkipsWithoutSideEffects) {
  AsmBuilder A(0x100);
  A.cmp(0, Operand2::imm(5));
  A.alu(Opcode::ADD, 1, 1, Operand2::imm(1), Cond::EQ);
  A.alu(Opcode::ADD, 1, 1, Operand2::imm(2), Cond::NE);
  load(A);
  Board.Env.Regs[0] = 4; // NE
  Board.Env.Regs[1] = 0;
  stepAt(0x100);
  In.step();
  In.step();
  EXPECT_EQ(Board.Env.Regs[1], 2u);
}

TEST_F(InterpFixture, SvcEntersSupervisorVector) {
  AsmBuilder A(0x100);
  A.svc(42);
  load(A);
  switchMode(Board.Env, ModeUsr);
  ASSERT_EQ(stepAt(0x100), StepKind::Exception);
  EXPECT_EQ(Board.Env.Mode, ModeSvc);
  EXPECT_EQ(Board.Env.Regs[15], 0x8u);
  EXPECT_EQ(Board.Env.Regs[14], 0x104u);
}

TEST_F(InterpFixture, UndefinedInstructionFaults) {
  AsmBuilder A(0x100);
  A.udf(1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Exception);
  EXPECT_EQ(Board.Env.Regs[15], 0x4u);
}

TEST_F(InterpFixture, LdmStmRoundTrip) {
  AsmBuilder A(0x100);
  A.push((1u << 0) | (1u << 1) | (1u << 14));
  A.movi(0, 0);
  A.movi(1, 0);
  A.pop((1u << 0) | (1u << 1) | (1u << 14));
  load(A);
  Board.Env.Regs[0] = 0x11;
  Board.Env.Regs[1] = 0x22;
  Board.Env.Regs[14] = 0x33;
  Board.Env.Regs[13] = 0x4000;
  stepAt(0x100);
  In.step();
  In.step();
  In.step();
  EXPECT_EQ(Board.Env.Regs[0], 0x11u);
  EXPECT_EQ(Board.Env.Regs[1], 0x22u);
  EXPECT_EQ(Board.Env.Regs[14], 0x33u);
  EXPECT_EQ(Board.Env.Regs[13], 0x4000u);
}

TEST_F(InterpFixture, Cp15InvalidationSemantics) {
  AsmBuilder A(0x100);
  A.mcr(Cp15Reg::CONTEXTIDR, 3); // 0x100
  A.mcr(Cp15Reg::TTBR0, 4);      // 0x104
  A.mcr(Cp15Reg::SCTLR, 5);      // 0x108 (no M toggle: r5 = 0)
  A.mcr(Cp15Reg::TLBIASID, 6);   // 0x10C
  A.mcr(Cp15Reg::TLBIMVA, 8);    // 0x110
  A.mcr(Cp15Reg::SCTLR, 7);      // 0x114 (M toggle: r7 = 1)
  load(A);
  Board.Env.Regs[3] = 7;
  Board.Env.Regs[4] = 0x8000;
  Board.Env.Regs[5] = 0;
  Board.Env.Regs[6] = 7;
  Board.Env.Regs[8] = 0x00345007; // MVA 0x345000, ASID 7
  Board.Env.Regs[7] = SctlrMmuEnable;

  // CONTEXTIDR switches the ASID without touching translations.
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(currentAsid(Board.Env), 7u);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvNone);

  // A bare TTBR0 write invalidates nothing (software must TLBI).
  ASSERT_EQ(In.step(), StepKind::Ok);
  EXPECT_EQ(Board.Env.Ttbr0, 0x8000u);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvNone);

  // An SCTLR write that keeps the M bit invalidates nothing.
  ASSERT_EQ(In.step(), StepKind::Ok);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvNone);

  // TLBIASID raises a by-ASID request.
  ASSERT_EQ(In.step(), StepKind::Ok);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvAsid);
  EXPECT_EQ(Board.Env.TbInvAsid, 7u);

  // TLBIMVA widens (different scope) to a full request.
  ASSERT_EQ(In.step(), StepKind::Ok);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvFull);

  // Toggling SCTLR.M raises (keeps) the full request.
  ASSERT_EQ(In.step(), StepKind::Ok);
  EXPECT_EQ(Board.Env.Sctlr & SctlrMmuEnable, SctlrMmuEnable);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvFull);
}

TEST_F(InterpFixture, WfiHaltsUntilIrq) {
  AsmBuilder A(0x100);
  A.wfi();
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Halt);
  EXPECT_EQ(Board.Env.Halted, 1u);
  Board.Env.IrqPending = 1;
  EXPECT_FALSE(In.maybeTakeIrq()) << "IRQs are masked after reset";
  EXPECT_EQ(Board.Env.Halted, 0u) << "pending IRQ must still wake the core";
}

/// Runs \p Workload at scale 1 under the interpreter alone (the native
/// executor) and, before every step, checks the memoized fetch against an
/// uncached walk plus physRead on a second Mmu: same success, same word,
/// same fault status. \p MinTableEdits is a floor on the stores that hit
/// a page a walk had read (PhysMem::walkGeneration()), so a run that is
/// meant to exercise the memo's invalidation cannot pass without it.
void expectFetchMatchesUncachedWalk(const std::string &Workload,
                                    uint64_t MinTableEdits) {
  sys::Platform Board(guestsw::requiredWorkloadRam(Workload));
  ASSERT_TRUE(guestsw::setupGuest(Board, Workload, 1));
  Mmu Mem(Board.Env, Board);
  Mmu Uncached(Board.Env, Board);
  Interpreter Interp(Board.Env, Mem, Board);
  while (!Board.ShutdownRequested && Interp.InstrsRetired < 20000000) {
    if (Board.Env.Halted) {
      if (!Board.Env.IrqPending)
        ASSERT_NE(Board.fastForward(), 0u) << Workload << " deadlocked";
      if (!Board.Env.IrqPending)
        continue;
      Board.Env.Halted = 0;
    }
    if (Board.Env.ExitRequest) {
      Board.Env.ExitRequest = 0;
      Interp.maybeTakeIrq();
    }

    const uint32_t Pc = Board.Env.Regs[15];
    uint32_t Word = 0;
    Fault F;
    const bool Ok = Mem.fetchWord(Pc, Word, F);
    uint32_t RefWord = 0, Pa = 0;
    unsigned WalkAccesses = 0;
    Fault RefF;
    bool RefOk = false;
    if (Pc & 3)
      RefF = {true, FsrAlignment, Pc};
    else if (Uncached.translate(Pc, AccessKind::Execute,
                                Board.Env.MmuIdx == 0, Pa, RefF,
                                WalkAccesses)) {
      RefOk = Board.physRead(Pa, 4, RefWord);
      if (!RefOk)
        RefF = {true, FsrExternal, Pc};
    }
    ASSERT_EQ(Ok, RefOk) << Workload << " pc " << std::hex << Pc;
    if (Ok)
      ASSERT_EQ(Word, RefWord) << Workload << " pc " << std::hex << Pc;
    else
      ASSERT_EQ(F.Fsr, RefF.Fsr) << Workload << " pc " << std::hex << Pc;

    Interp.step();
    Board.advance(1);
  }
  EXPECT_TRUE(Board.ShutdownRequested) << Workload << " did not finish";
  EXPECT_GT(Interp.InstrsRetired, 100000u) << Workload;
  EXPECT_GE(Board.Ram.walkGeneration(), MinTableEdits) << Workload;
}

TEST(FetchMemo, LockstepCtxswitchFourAsids) {
  expectFetchMatchesUncachedWalk("ctxswitch", 0);
}

// astar demand-pages its heap: each new page is an L2 store into a table
// earlier fetches walked.
TEST(FetchMemo, LockstepSpecProxyWithDemandPaging) {
  expectFetchMatchesUncachedWalk("astar", 1);
}

} // namespace
