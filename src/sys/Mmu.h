//===- sys/Mmu.h - ARM short-descriptor MMU + software TLB ------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The guest memory management unit: ARM short-descriptor page tables
/// (1 MiB sections and 4 KiB small pages, a 2-bit AP permission model)
/// plus the direct-mapped software TLB held inside \ref CpuEnv that
/// generated host code probes inline — the QEMU softmmu design the paper's
/// "address translation" context switches revolve around.
///
/// Instruction fetches never use that TLB: the model has no I-TLB, so a
/// guest page-table edit must show on the very next fetch with no TLB
/// maintenance. Instead of walking on every fetch, fetchWord keeps a small
/// direct-mapped memo of successful Execute translations keyed by (page,
/// TTBR0, MmuIdx), bypassed with the MMU off. Like the interpreter's
/// decode cache it is host-side state, never captured. It cannot ride the
/// TbInv pipeline (Env.h) because a page-table store raises no TbInv
/// request; instead every walk marks the RAM pages it read in PhysMem, and
/// any write to a marked page (interpreter and host-code stores, disk DMA,
/// host loads) bumps a generation that voids the whole memo; a marked page
/// has no write pointer (PhysMem), so no store skips that bump. A walk
/// that read a descriptor from MMIO is not memoized. DESIGN.md §14.
///
/// Only whole RAM pages install TLB tags, so a TLB hit, here or in the
/// generated inline probe, reads and writes through PhysMem's page
/// pointers with no MMIO or bounds test.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_SYS_MMU_H
#define RDBT_SYS_MMU_H

#include "sys/Env.h"
#include "sys/Platform.h"

namespace rdbt {
namespace sys {

/// Access kinds for translation and fault reporting.
enum class AccessKind : uint8_t { Read = 0, Write = 1, Execute = 2 };

/// ARM FSR status codes we report.
enum : uint32_t {
  FsrAlignment = 0x1,
  FsrTranslationSection = 0x5,
  FsrTranslationPage = 0x7,
  FsrPermissionSection = 0xD,
  FsrPermissionPage = 0xF,
  FsrExternal = 0x8, ///< access outside RAM/MMIO
};

/// Result of a failed translation.
struct Fault {
  bool IsFault = false;
  uint32_t Fsr = 0;
  uint32_t Far = 0;
};

/// SCTLR bits.
enum : uint32_t { SctlrMmuEnable = 1u };

/// Page table entry type bits (short-descriptor format).
enum : uint32_t {
  L1TypeFault = 0,
  L1TypeTable = 1,
  L1TypeSection = 2,
  L2TypeSmall = 2,
};

/// The MMU bound to one env and one platform. Its architectural state is
/// the TLB that lives in the env (so generated code and C++ agree); the
/// fetch memo is a host-side cache of the table walk.
class Mmu {
public:
  Mmu(CpuEnv &E, Platform &P) : Env(E), Board(P) {}

  /// Full table walk (no TLB). On success sets \p Pa. On failure fills
  /// \p F. \p WalkAccesses counts page-table memory reads (cost hook).
  bool translate(uint32_t Va, AccessKind Kind, bool Privileged, uint32_t &Pa,
                 Fault &F, unsigned &WalkAccesses);

  /// Walks and installs the TLB entry for Va's page in the current
  /// MmuIdx half. Returns false (and fills \p F) on a fault.
  bool fillTlb(uint32_t Va, AccessKind Kind, Fault &F,
               unsigned &WalkAccesses);

  /// Invalidates both TLB halves (TLBIALL, SCTLR MMU toggles).
  void flushTlb();

  /// Invalidates entries filled under \p Asid in both halves (TLBIASID,
  /// the ASID-selective half of TLB maintenance).
  void flushTlbAsid(uint32_t Asid);

  /// Invalidates entries NOT filled under \p Asid. Run on every
  /// CONTEXTIDR write: the generated inline probes cannot compare ASIDs,
  /// so entries of other address spaces must leave the array before the
  /// new ASID starts executing; entries already tagged with the incoming
  /// ASID survive the switch.
  void flushTlbExceptAsid(uint32_t Asid);

  /// Invalidates the entries covering \p Va's page in both halves
  /// (TLBIMVA).
  void flushTlbPage(uint32_t Va);

  /// Virtual read/write through the TLB with walk-on-miss; the slow-path
  /// equivalent of the generated inline probe, used by the interpreter
  /// and by DBT helpers. A hit goes straight to the RAM page pointers
  /// (only whole RAM pages install tags); a miss routes MMIO to devices.
  bool readVirt(uint32_t Va, unsigned Size, uint32_t &Value, Fault &F);
  bool writeVirt(uint32_t Va, unsigned Size, uint32_t Value, Fault &F);

  /// Instruction fetch (translate + read, Execute permission). The
  /// translation comes from the fetch memo when it holds one; the word is
  /// read on every call, from RAM through the page pointer, else through
  /// Platform::physRead.
  bool fetchWord(uint32_t Va, uint32_t &Word, Fault &F);

  /// TLB statistics (reset by the owner between runs).
  uint64_t Hits = 0;
  uint64_t Misses = 0;

private:
  CpuEnv &Env;
  Platform &Board;

  /// One memoized successful Execute translation. The key is every input
  /// a walk reads besides RAM: the page, TTBR0 and MmuIdx (SCTLR.M is on,
  /// or the memo is bypassed). Gen is PhysMem::walkGeneration() at fill
  /// time; any store to a page a walk read bumps it, voiding the entry.
  struct FetchMemoEntry {
    uint32_t Vpn = ~0u; ///< ~0u = empty (no page number reaches it)
    uint32_t Ttbr0 = 0;
    uint32_t MmuIdx = 0;
    uint32_t PaPage = 0;
    uint64_t Gen = 0;
  };
  static constexpr uint32_t FetchMemoSize = 64; // direct-mapped slots
  FetchMemoEntry FetchMemo[FetchMemoSize];

  /// translate(), also reporting whether every descriptor came from RAM
  /// (\p RamOnly stays true) and marking the RAM pages it read.
  bool walk(uint32_t Va, AccessKind Kind, bool Privileged, uint32_t &Pa,
            Fault &F, unsigned &WalkAccesses, bool &RamOnly);
  /// Whether an uncached Execute walk of \p Va yields \p Pa (the debug
  /// cross-check on every memo hit).
  bool walksTo(uint32_t Va, uint32_t Pa);

  TlbEntry &entryFor(uint32_t Va) {
    return Env.Tlb[Env.MmuIdx][(Va >> 12) & (TlbSize - 1)];
  }
  bool access(uint32_t Va, unsigned Size, uint32_t &Value, bool IsWrite,
              Fault &F);
};

} // namespace sys
} // namespace rdbt

#endif // RDBT_SYS_MMU_H
