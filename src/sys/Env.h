//===- sys/Env.h - Guest CPU state (the "env") ------------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The guest CPU state structure that the emulator maintains in memory —
/// the moral equivalent of QEMU's CPUARMState. Generated host code
/// addresses it by word-slot indices (\ref envSlot*), exactly as QEMU's
/// TCG output addresses env through a reserved host register.
///
/// Two details matter for the paper's optimizations:
///
///  * The NZCV flags are stored *decomposed*, one word per flag (NF/ZF/
///    CF/VF), like QEMU does. This is the "one-to-many CPU state" of
///    §III-B: a packed host condition-code register maps to several env
///    locations, so a naive sync parses the CCR with ~14 instructions.
///
///  * `PackedCcr`/`CcrPacked` is the side slot the III-B optimization
///    saves the packed CCR into (3 instructions). Every consumer of the
///    decomposed flags inside the emulator must call \ref materializeFlags
///    first, which performs the deferred parse only when QEMU-side code
///    actually needs the flags (e.g. an interrupt really fires).
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_SYS_ENV_H
#define RDBT_SYS_ENV_H

#include <cstddef>
#include <cstdint>

namespace rdbt {
namespace sys {

/// ARM processor modes (CPSR[4:0]) we model.
enum : uint32_t { ModeUsr = 0x10, ModeIrq = 0x12, ModeSvc = 0x13 };

/// Software TLB geometry (direct-mapped, per privilege level).
enum : uint32_t { TlbBits = 8, TlbSize = 1u << TlbBits };

/// Tag value meaning "no valid mapping for this access kind".
constexpr uint32_t TlbInvalidTag = 0xFFFFFFFFu;

/// PhysFlags low bits (the physical page is 4 KiB aligned).
enum : uint32_t { TlbFlagIo = 1u };

/// One direct-mapped TLB entry. Separate read/write tags encode access
/// permissions, QEMU-style (addr_read/addr_write). The Asid word records
/// which address-space the entry was filled under; generated inline
/// probes never read it (they only see entries of the live ASID — see
/// flushTlbExceptAsid), but the selective TLB-maintenance flushes key on
/// it.
struct TlbEntry {
  uint32_t TagRead;
  uint32_t TagWrite;
  uint32_t PhysFlags; ///< physical page | TlbFlag*
  uint32_t Asid;      ///< ASID the entry was filled under
};

/// CPSR bit positions.
enum : uint32_t {
  CpsrN = 1u << 31,
  CpsrZ = 1u << 30,
  CpsrC = 1u << 29,
  CpsrV = 1u << 28,
  CpsrI = 1u << 7,
  CpsrModeMask = 0x1Fu,
};

/// The guest CPU state. Standard-layout, uint32_t-only, so generated host
/// code can address any field as a word slot.
struct CpuEnv {
  uint32_t Regs[16]; ///< current-mode view; r15 = PC of the *current* instr

  // Decomposed flags (0 or 1 each) — QEMU's separate memory locations.
  uint32_t NF, ZF, CF, VF;
  // III-B packed side slot.
  uint32_t PackedCcr; ///< NZCV in bits 31:28
  uint32_t CcrPacked; ///< 1 if PackedCcr holds the live flags

  uint32_t Mode;        ///< ModeUsr/ModeIrq/ModeSvc
  uint32_t IrqDisabled; ///< CPSR.I
  uint32_t SpsrSvc, SpsrIrq;
  // Banked sp/lr storage for the *inactive* modes.
  uint32_t SpUsr, LrUsr, SpSvc, LrSvc, SpIrq, LrIrq;

  // System control registers.
  uint32_t Sctlr, Ttbr0, Dacr, Vbar, Fpscr;
  uint32_t Dfsr, Dfar, Ifsr;
  uint32_t Contextidr; ///< CONTEXTIDR: current ASID in bits [7:0]

  // Emulation control.
  uint32_t IrqPending;  ///< interrupt controller has an active line
  uint32_t ExitRequest; ///< break out of the code cache at next TB head
  uint32_t Halted;      ///< WFI state
  uint32_t MmuIdx;      ///< 0 = privileged, 1 = user (selects TLB half)

  // Pending translation-cache invalidation, raised by the interpreter on
  // SCTLR MMU toggles and TLB-maintenance ops and consumed by the DBT
  // engine between TBs. Kind is a TbInv* value; TbInvAsid/TbInvPage carry
  // the scope operand. Raise through requestTbInvalidate(), which widens
  // the scope when requests pile up before the engine drains them. The
  // interpreter's decoded-instruction cache (DESIGN.md §14) rides the
  // same pipeline: it scrubs itself at the raise site (it is the only
  // raiser) and again when the engine drains a request, so a snapshot
  // restored with a pending request still drops the right pages.
  uint32_t TbInvKind;
  uint32_t TbInvAsid; ///< TbInvAsid scope: the ASID to drop
  uint32_t TbInvPage; ///< TbInvPage scope: page-aligned guest VA

  TlbEntry Tlb[2][TlbSize];
};

/// ASID width (CONTEXTIDR bits [7:0]).
enum : uint32_t { AsidMask = 0xFFu };

/// Translation-cache invalidation scopes (CpuEnv::TbInvKind).
enum : uint32_t {
  TbInvNone = 0,
  TbInvFull = 1,
  TbInvAsid = 2,
  TbInvPage = 3,
};

/// The ASID the core is currently running under.
inline uint32_t currentAsid(const CpuEnv &Env) {
  return Env.Contextidr & AsidMask;
}

/// Raises (or widens) the pending translation-cache invalidation request.
/// Two requests of different scopes merge conservatively: distinct ASIDs,
/// distinct pages, or mixed kinds all escalate to a full invalidation.
void requestTbInvalidate(CpuEnv &Env, uint32_t Kind, uint32_t Asid = 0,
                         uint32_t Page = 0);

/// Number of uint32_t words in CpuEnv (for the host machine's bounds
/// checks).
constexpr uint32_t envWordCount() { return sizeof(CpuEnv) / 4; }

/// Word-slot index of a CpuEnv field, for generated host code.
constexpr uint16_t envSlot(size_t ByteOffset) {
  return static_cast<uint16_t>(ByteOffset / 4);
}

constexpr uint16_t envSlotReg(unsigned R) {
  return envSlot(offsetof(CpuEnv, Regs)) + static_cast<uint16_t>(R);
}
constexpr uint16_t envSlotNF() { return envSlot(offsetof(CpuEnv, NF)); }
constexpr uint16_t envSlotZF() { return envSlot(offsetof(CpuEnv, ZF)); }
constexpr uint16_t envSlotCF() { return envSlot(offsetof(CpuEnv, CF)); }
constexpr uint16_t envSlotVF() { return envSlot(offsetof(CpuEnv, VF)); }
constexpr uint16_t envSlotPackedCcr() {
  return envSlot(offsetof(CpuEnv, PackedCcr));
}
constexpr uint16_t envSlotCcrPacked() {
  return envSlot(offsetof(CpuEnv, CcrPacked));
}
constexpr uint16_t envSlotExitRequest() {
  return envSlot(offsetof(CpuEnv, ExitRequest));
}
constexpr uint16_t envSlotMmuIdx() {
  return envSlot(offsetof(CpuEnv, MmuIdx));
}
constexpr uint32_t envSlotTlbBase() {
  return envSlot(offsetof(CpuEnv, Tlb));
}
/// Words per TLB entry (for generated indexed addressing).
constexpr uint32_t tlbEntryWords() { return sizeof(TlbEntry) / 4; }

/// Resets \p Env to the architectural boot state: SVC mode, IRQs masked,
/// MMU off, PC 0.
void resetEnv(CpuEnv &Env);

/// Composes the CPSR value from the env fields. Materializes packed flags
/// first if needed.
uint32_t cpsrRead(CpuEnv &Env);

/// Writes CPSR fields selected by \p Mask (bit3 = flags byte, bit0 =
/// control byte), handling register banking on mode changes.
void cpsrWrite(CpuEnv &Env, uint32_t Value, uint8_t Mask);

/// Switches processor mode, banking sp/lr. No-op when \p NewMode equals
/// the current mode.
void switchMode(CpuEnv &Env, uint32_t NewMode);

/// Returns the SPSR of the current (exception) mode; 0 in user mode.
uint32_t &currentSpsr(CpuEnv &Env);

/// If the live flags are in the packed side slot (III-B), explodes them
/// into the decomposed NF/ZF/CF/VF fields. Must be called by any QEMU-side
/// consumer of individual flags. Returns true if a parse actually happened
/// (the metering hook for the deferred-parse cost).
bool materializeFlags(CpuEnv &Env);

/// Packs NF/ZF/CF/VF into an NZCV nibble at bits 31:28.
uint32_t packFlags(const CpuEnv &Env);

/// Explodes an NZCV nibble into the decomposed fields.
void unpackFlags(CpuEnv &Env, uint32_t Nzcv);

/// The exception kinds we model, with their ARM vector offsets.
enum class ExcKind : uint8_t {
  Undef = 1,         ///< vector 0x04
  Svc = 2,           ///< vector 0x08
  PrefetchAbort = 3, ///< vector 0x0C
  DataAbort = 4,     ///< vector 0x10
  Irq = 6,           ///< vector 0x18
};

/// Takes an exception: banks state, switches mode, masks IRQs and jumps
/// to the vector. \p Pc is the PC of the faulting/current instruction
/// (for IRQ: the PC of the next instruction to execute). Aborts and
/// undefined-instruction exceptions are delivered in SVC mode (we do not
/// model the ABT/UND modes; see DESIGN.md).
void takeException(CpuEnv &Env, ExcKind Kind, uint32_t Pc);

} // namespace sys
} // namespace rdbt

#endif // RDBT_SYS_ENV_H
