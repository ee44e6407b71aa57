//===- support/Cond.h - ARM condition codes over packed NZCV ----*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one evaluation of the 16 ARM condition codes, shared by the
/// interpreter (arm::Cond) and the host machine's Jcc/SetCc (host::HCond,
/// which uses the same numbering): a table of 16-bit masks indexed by
/// condition, with bit NZCV of a mask set when the condition holds for
/// those flags. NV (15) holds always, as AL does.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_SUPPORT_COND_H
#define RDBT_SUPPORT_COND_H

#include <cstdint>

namespace rdbt {

/// Per condition (EQ = 0 ... AL = 14, NV = 15), the NZCV nibbles it holds
/// for (nibble N = bit 3, Z = bit 2, C = bit 1, V = bit 0).
inline constexpr uint16_t CondMask[16] = {
    0xF0F0, // EQ: Z
    0x0F0F, // NE: !Z
    0xCCCC, // CS: C
    0x3333, // CC: !C
    0xFF00, // MI: N
    0x00FF, // PL: !N
    0xAAAA, // VS: V
    0x5555, // VC: !V
    0x0C0C, // HI: C && !Z
    0xF3F3, // LS: !C || Z
    0xAA55, // GE: N == V
    0x55AA, // LT: N != V
    0x0A05, // GT: !Z && N == V
    0xF5FA, // LE: Z || N != V
    0xFFFF, // AL
    0xFFFF, // NV
};

/// Packs four 0/1 flag values into the NZCV nibble CondMask indexes by.
constexpr unsigned nzcvNibble(unsigned N, unsigned Z, unsigned C,
                              unsigned V) {
  return N << 3 | Z << 2 | C << 1 | V;
}

/// Whether ARM condition \p Cond (0..15) holds for the flags \p Nzcv.
constexpr bool condHolds(unsigned Cond, unsigned Nzcv) {
  return (CondMask[Cond] >> Nzcv) & 1;
}

} // namespace rdbt

#endif // RDBT_SUPPORT_COND_H
