//===- sys/Mmu.cpp - ARM short-descriptor MMU + software TLB ---------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "sys/Mmu.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::sys;

/// Checks the 2-bit AP field: 00 = none, 01 = priv RW, 10 = priv RW +
/// user RO, 11 = RW everyone.
static bool apAllows(uint32_t Ap, AccessKind Kind, bool Privileged) {
  switch (Ap & 3) {
  case 0:
    return false;
  case 1:
    return Privileged;
  case 2:
    return Privileged || Kind != AccessKind::Write;
  case 3:
    return true;
  }
  return false;
}

bool Mmu::translate(uint32_t Va, AccessKind Kind, bool Privileged,
                    uint32_t &Pa, Fault &F, unsigned &WalkAccesses) {
  bool RamOnly = true;
  return walk(Va, Kind, Privileged, Pa, F, WalkAccesses, RamOnly);
}

bool Mmu::walk(uint32_t Va, AccessKind Kind, bool Privileged, uint32_t &Pa,
               Fault &F, unsigned &WalkAccesses, bool &RamOnly) {
  WalkAccesses = 0;
  if (!(Env.Sctlr & SctlrMmuEnable)) {
    Pa = Va;
    return true;
  }

  // Every descriptor read marks its RAM page (PhysMem::markWalked), so a
  // later store there voids the fetch memo. MMIO descriptors cannot be
  // marked, which makes the walk unmemoizable.
  auto ReadEntry = [&](uint32_t Addr, uint32_t &Entry) {
    ++WalkAccesses;
    if (!Board.physRead(Addr, 4, Entry))
      return false;
    if (Board.isIoPage(Addr))
      RamOnly = false;
    else
      Board.Ram.markWalked(Addr);
    return true;
  };

  const uint32_t L1Base = Env.Ttbr0 & ~0x3FFFu;
  const uint32_t L1Addr = L1Base + ((Va >> 20) << 2);
  uint32_t L1Entry = 0;
  if (!ReadEntry(L1Addr, L1Entry)) {
    F = {true, FsrExternal, Va};
    return false;
  }

  switch (L1Entry & 3) {
  case L1TypeSection: {
    const uint32_t Ap = (L1Entry >> 10) & 3;
    if (!apAllows(Ap, Kind, Privileged)) {
      F = {true, FsrPermissionSection, Va};
      return false;
    }
    Pa = (L1Entry & 0xFFF00000u) | (Va & 0x000FFFFFu);
    return true;
  }
  case L1TypeTable: {
    const uint32_t L2Base = L1Entry & ~0x3FFu;
    const uint32_t L2Addr = L2Base + (((Va >> 12) & 0xFF) << 2);
    uint32_t L2Entry = 0;
    if (!ReadEntry(L2Addr, L2Entry)) {
      F = {true, FsrExternal, Va};
      return false;
    }
    if ((L2Entry & 3) != L2TypeSmall) {
      F = {true, FsrTranslationPage, Va};
      return false;
    }
    const uint32_t Ap = (L2Entry >> 4) & 3;
    if (!apAllows(Ap, Kind, Privileged)) {
      F = {true, FsrPermissionPage, Va};
      return false;
    }
    Pa = (L2Entry & 0xFFFFF000u) | (Va & 0xFFFu);
    return true;
  }
  default:
    F = {true, FsrTranslationSection, Va};
    return false;
  }
}

bool Mmu::fillTlb(uint32_t Va, AccessKind Kind, Fault &F,
                  unsigned &WalkAccesses) {
  const bool Privileged = Env.MmuIdx == 0;
  const uint32_t Vpn = Va >> 12;
  uint32_t Pa = 0;
  if (!translate(Va, Kind, Privileged, Pa, F, WalkAccesses))
    return false;

  TlbEntry &E = entryFor(Va);
  E.TagRead = TlbInvalidTag;
  E.TagWrite = TlbInvalidTag;
  E.Asid = currentAsid(Env);
  const bool Io = Board.isIoPage(Pa);
  E.PhysFlags = (Pa & ~0xFFFu) | (Io ? TlbFlagIo : 0u);

  // Only a whole RAM page installs tags, so a tag hit (here or in
  // generated code) can go straight to the page pointers. Every device
  // access takes the slow path (QEMU's TLB_MMIO), and so does every access
  // to a hole past the end of RAM, which aborts each time. For RAM, probe
  // the other access kind so a read-only page installs a read tag but
  // keeps the write tag invalid.
  if (Io || !Board.Ram.contains(Pa & ~0xFFFu, PhysMem::PageBytes))
    return true;
  Fault Probe;
  unsigned ProbeAccesses = 0;
  uint32_t ProbePa = 0;
  if (Kind == AccessKind::Read ||
      translate(Va, AccessKind::Read, Privileged, ProbePa, Probe,
                ProbeAccesses))
    E.TagRead = Vpn;
  if (Kind == AccessKind::Write ||
      translate(Va, AccessKind::Write, Privileged, ProbePa, Probe,
                ProbeAccesses))
    E.TagWrite = Vpn;
  return true;
}

void Mmu::flushTlb() {
  for (auto &Half : Env.Tlb)
    for (auto &E : Half) {
      E.TagRead = TlbInvalidTag;
      E.TagWrite = TlbInvalidTag;
    }
}

void Mmu::flushTlbAsid(uint32_t Asid) {
  Asid &= AsidMask;
  for (auto &Half : Env.Tlb)
    for (auto &E : Half)
      if (E.Asid == Asid) {
        E.TagRead = TlbInvalidTag;
        E.TagWrite = TlbInvalidTag;
      }
}

void Mmu::flushTlbExceptAsid(uint32_t Asid) {
  Asid &= AsidMask;
  for (auto &Half : Env.Tlb)
    for (auto &E : Half)
      if (E.Asid != Asid) {
        E.TagRead = TlbInvalidTag;
        E.TagWrite = TlbInvalidTag;
      }
}

void Mmu::flushTlbPage(uint32_t Va) {
  const uint32_t Vpn = Va >> 12;
  for (auto &Half : Env.Tlb) {
    TlbEntry &E = Half[Vpn & (TlbSize - 1)];
    if (E.TagRead == Vpn || E.TagWrite == Vpn) {
      E.TagRead = TlbInvalidTag;
      E.TagWrite = TlbInvalidTag;
    }
  }
}

bool Mmu::access(uint32_t Va, unsigned Size, uint32_t &Value, bool IsWrite,
                 Fault &F) {
  if ((Va & (Size - 1)) != 0) {
    F = {true, FsrAlignment, Va};
    return false;
  }
  const uint32_t Vpn = Va >> 12;
  TlbEntry &E = entryFor(Va);
  const uint32_t Tag = IsWrite ? E.TagWrite : E.TagRead;
  if (Tag == Vpn) {
    // A tag covers a whole RAM page (fillTlb): no MMIO or bounds test.
    ++Hits;
    const uint32_t Pa = (E.PhysFlags & ~0xFFFu) | (Va & 0xFFFu);
    if (IsWrite)
      Board.Ram.write(Pa, Size, Value);
    else
      Value = Board.Ram.read(Pa, Size);
    return true;
  }
  ++Misses;
  unsigned WalkAccesses = 0;
  if (!fillTlb(Va, IsWrite ? AccessKind::Write : AccessKind::Read, F,
               WalkAccesses))
    return false;
  const uint32_t Pa = (entryFor(Va).PhysFlags & ~0xFFFu) | (Va & 0xFFFu);
  const bool Ok = IsWrite ? Board.physWrite(Pa, Size, Value)
                          : Board.physRead(Pa, Size, Value);
  if (!Ok) {
    F = {true, FsrExternal, Va};
    return false;
  }
  return true;
}

bool Mmu::readVirt(uint32_t Va, unsigned Size, uint32_t &Value, Fault &F) {
  return access(Va, Size, Value, /*IsWrite=*/false, F);
}

bool Mmu::writeVirt(uint32_t Va, unsigned Size, uint32_t Value, Fault &F) {
  return access(Va, Size, Value, /*IsWrite=*/true, F);
}

bool Mmu::fetchWord(uint32_t Va, uint32_t &Word, Fault &F) {
  if (Va & 3) {
    F = {true, FsrAlignment, Va};
    return false;
  }
  uint32_t Pa = Va;
  if (Env.Sctlr & SctlrMmuEnable) {
    const uint32_t Vpn = Va >> 12;
    const uint64_t Gen = Board.Ram.walkGeneration();
    FetchMemoEntry &M =
        FetchMemo[(Vpn ^ (Env.Ttbr0 >> 14)) & (FetchMemoSize - 1)];
    if (M.Vpn == Vpn && M.Ttbr0 == Env.Ttbr0 && M.MmuIdx == Env.MmuIdx &&
        M.Gen == Gen) {
      Pa = M.PaPage | (Va & 0xFFFu);
      assert(walksTo(Va, Pa) && "fetch memo disagrees with a fresh walk");
    } else {
      unsigned WalkAccesses = 0;
      bool RamOnly = true;
      if (!walk(Va, AccessKind::Execute, Env.MmuIdx == 0, Pa, F,
                WalkAccesses, RamOnly))
        return false;
      if (RamOnly)
        M = {Vpn, Env.Ttbr0, Env.MmuIdx, Pa & ~0xFFFu, Gen};
    }
  }
  if (Board.Ram.contains(Pa, 4)) {
    Word = Board.Ram.read(Pa, 4);
    return true;
  }
  if (!Board.physRead(Pa, 4, Word)) {
    F = {true, FsrExternal, Va};
    return false;
  }
  return true;
}

bool Mmu::walksTo(uint32_t Va, uint32_t Pa) {
  uint32_t Fresh = 0;
  Fault F;
  unsigned WalkAccesses = 0;
  return translate(Va, AccessKind::Execute, Env.MmuIdx == 0, Fresh, F,
                   WalkAccesses) &&
         Fresh == Pa;
}
