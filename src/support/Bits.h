//===- support/Bits.h - Bit manipulation utilities --------------*- C++ -*-===//
//
// Part of RuleDBT, a reproduction of "A System-Level Dynamic Binary
// Translator using Automatically-Learned Translation Rules" (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small bit-twiddling helpers shared by the ISA models, the MMU and the
/// translators. Everything here is allocation-free.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_SUPPORT_BITS_H
#define RDBT_SUPPORT_BITS_H

#include <cassert>
#include <cstdint>
#include <cstring>

namespace rdbt {

/// Extracts bits [Lo, Lo+Len) of \p Value (Lo = 0 is the LSB).
constexpr uint32_t bits(uint32_t Value, unsigned Lo, unsigned Len) {
  return (Value >> Lo) & ((Len >= 32) ? 0xFFFFFFFFu : ((1u << Len) - 1u));
}

/// Extracts a single bit of \p Value.
constexpr uint32_t bit(uint32_t Value, unsigned Pos) {
  return (Value >> Pos) & 1u;
}

/// Rotates \p Value right by \p Amount (mod 32).
constexpr uint32_t rotr32(uint32_t Value, unsigned Amount) {
  Amount &= 31u;
  return Amount == 0 ? Value : (Value >> Amount) | (Value << (32 - Amount));
}

/// Rotates \p Value left by \p Amount (mod 32).
constexpr uint32_t rotl32(uint32_t Value, unsigned Amount) {
  return rotr32(Value, 32u - (Amount & 31u));
}

/// Sign-extends the low \p FromBits bits of \p Value to a full int32_t.
constexpr int32_t signExtend32(uint32_t Value, unsigned FromBits) {
  const uint32_t SignBit = 1u << (FromBits - 1);
  return static_cast<int32_t>((Value ^ SignBit) - SignBit);
}

/// Counts leading zeros; returns 32 for zero input (ARM CLZ semantics).
constexpr unsigned countLeadingZeros32(uint32_t Value) {
  if (Value == 0)
    return 32;
  unsigned N = 0;
  for (uint32_t Probe = 0x80000000u; (Value & Probe) == 0; Probe >>= 1)
    ++N;
  return N;
}

/// Returns true if \p Value is aligned to \p Align (a power of two).
constexpr bool isAligned(uint32_t Value, uint32_t Align) {
  return (Value & (Align - 1)) == 0;
}

/// Tries to express \p Value as an ARM modified immediate (an 8-bit value
/// rotated right by an even amount). On success stores the encoding fields
/// and returns true.
constexpr bool encodeArmImmediate(uint32_t Value, uint8_t &Imm8,
                                  uint8_t &Rot) {
  for (unsigned R = 0; R < 32; R += 2) {
    const uint32_t Rotated = rotl32(Value, R);
    if (Rotated <= 0xFF) {
      Imm8 = static_cast<uint8_t>(Rotated);
      Rot = static_cast<uint8_t>(R / 2);
      return true;
    }
  }
  return false;
}

/// Returns true if \p Value can be encoded as an ARM modified immediate.
constexpr bool isArmImmediate(uint32_t Value) {
  uint8_t Imm8 = 0, Rot = 0;
  return encodeArmImmediate(Value, Imm8, Rot);
}

/// Reads a \p Size-byte (1, 2 or 4) little-endian value at \p P,
/// zero-extended. Guest memory is little endian and so is the host.
inline uint32_t loadLe(const uint8_t *P, unsigned Size) {
  if (Size == 1)
    return *P;
  if (Size == 2) {
    uint16_t V;
    std::memcpy(&V, P, 2);
    return V;
  }
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

/// Writes the low \p Size bytes (1, 2 or 4) of \p Value at \p P.
inline void storeLe(uint8_t *P, unsigned Size, uint32_t Value) {
  if (Size == 1)
    *P = static_cast<uint8_t>(Value);
  else if (Size == 2)
    std::memcpy(P, &Value, 2);
  else
    std::memcpy(P, &Value, 4);
}

} // namespace rdbt

#endif // RDBT_SUPPORT_BITS_H
