//===- dbt/Helpers.h - Helper function ids and cost model ------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helper-function identifiers shared by both translators, and the
/// calibrated cost model for helper-internal work. Generated code counts
/// its own instructions exactly; helpers are C++ and are metered with the
/// constants below (host-instruction equivalents, chosen to match the
/// magnitudes the paper reports: ~20 host instructions per memory access
/// for MMU emulation, ~14 for a full condition-code parse).
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_HELPERS_H
#define RDBT_DBT_HELPERS_H

#include <cstdint>

namespace rdbt {
namespace dbt {

/// Helper ids (HInst::Helper).
enum HelperId : uint16_t {
  HelperLd8 = 0,  ///< A0 = vaddr; returns zero-extended byte
  HelperLd16,     ///< A0 = vaddr
  HelperLd32,     ///< A0 = vaddr
  HelperSt8,      ///< A0 = vaddr, A1 = value
  HelperSt16,
  HelperSt32,
  HelperEmulate,  ///< emulate the guest instruction at GuestPc
  NumHelpers,
};

/// The slow-path helper of a \p Size byte (1, 2 or 4) load or store.
constexpr uint16_t memHelperId(unsigned Size, bool IsWrite) {
  return static_cast<uint16_t>((IsWrite ? HelperSt8 : HelperLd8) +
                               (Size == 1 ? 0 : Size == 2 ? 1 : 2));
}

/// Helper-internal cost constants (host-instruction equivalents).
namespace cost {
/// Two-level page-table walk + TLB refill inside a slow-path load/store.
constexpr uint64_t TlbFill = 40;
/// Device MMIO dispatch inside a slow-path load/store.
constexpr uint64_t IoAccess = 14;
/// Architectural exception delivery (mode switch, banking, vector).
constexpr uint64_t ExceptionEntry = 26;
/// Interpreting one guest instruction in the emulate helper (QEMU's
/// helper bodies for system-level instructions are of this magnitude).
constexpr uint64_t EmulateInstr = 34;
/// Deferred parse of the packed CCR into QEMU's per-flag slots, performed
/// only when emulator-side code actually consumes flags (III-B). Matches
/// the 14-instruction sequence of Fig. 8 minus the 2 already charged for
/// the packed save.
constexpr uint64_t DeferredCcParse = 12;
} // namespace cost

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_HELPERS_H
