//===- rtbench/src/Yardstick.cpp - Fixed host-speed reference kernel ------===//
//
// The optimisation level is pinned here, in the source, so a repository-wide
// flag change moves the emulator but never the yardstick. This file must not
// include anything from the repository's src/ tree (the self-test checks).
//
//===----------------------------------------------------------------------===//

#pragma GCC optimize("O2")

#include "Yardstick.h"

#include <chrono>
#include <cstddef>

namespace rtbench {
namespace {

enum Op : uint8_t { Add, Xor, Rotl, Mul, Load, Store, Sub, Select };

/// One yardstick instruction: an opcode and three register-file indices,
/// decoded from memory on every step like a guest or host instruction in
/// the emulator's own dispatch loops.
struct Inst {
  uint8_t Op, Dst, A, B;
};

// One loop of the kernel. A fixed sequence, so the dispatch branch is
// predictable after the first iteration. Operands live in an in-memory
// register file named by instruction fields, and loads and stores go to
// an 8 KiB table at data-dependent addresses, which gives the kernel the
// emulator's mix of dependent loads, stores and dispatch. Measured against
// rule, qemu and native slices over many minutes of changing host load,
// its time tracks theirs; a kernel of independent register-resident
// chains, or this one over a 512-byte table, drifts two to three times
// further from them (rtbench/README.md has the figures).
constexpr uint8_t Pattern[] = {
    Add, Xor, Load, Rotl, Sub,  Mul, Store, Select, Add,   Load, Xor,
    Sub, Add, Rotl, Load, Mul,  Xor, Store, Add,    Select, Sub, Load,
    Xor, Add, Rotl, Mul,  Load, Sub, Store, Xor,    Add,   Select};
constexpr size_t PatternLen = sizeof(Pattern);
constexpr unsigned NumRegs = 16;
constexpr size_t MemWords = 1024; // 8 KiB: a power of two, L1-resident

volatile uint8_t Zero = 0;
volatile uint64_t Sink = 0;

/// The kernel's whole data: table, register file and program. One
/// page-aligned block, so their addresses relative to each other and to
/// page boundaries (4 KiB store/load aliasing) are the same in every
/// binary that links the yardstick, whatever else it links.
struct alignas(4096) State {
  uint64_t Mem[MemWords];
  uint64_t R[NumRegs];
  Inst Code[PatternLen];
};
State S;

} // namespace

// Aligned, like its data, so the dispatch loop sits at the same offset
// within 64-byte fetch and decode windows in every binary. Unpinned, the
// same source ran at 1.3 ns per op in one binary and 1.8 ns in another.
__attribute__((aligned(64))) uint64_t runYardstick(uint64_t Ops,
                                                   uint64_t Seed) {
  // Build the program through a volatile so the compiler cannot specialise
  // the dispatch loop on a compile-time-constant program.
  Inst *const Code = S.Code;
  const uint8_t Z = Zero;
  for (size_t I = 0; I < PatternLen; ++I)
    Code[I] = {static_cast<uint8_t>(Pattern[I] ^ Z),
               static_cast<uint8_t>((I * 5) % NumRegs),
               static_cast<uint8_t>((I * 3 + 1) % NumRegs),
               static_cast<uint8_t>((I * 7 + 2) % NumRegs)};
  uint64_t *const Mem = S.Mem;
  for (size_t I = 0; I < MemWords; ++I)
    Mem[I] = Seed * 0x9E3779B97F4A7C15ull + I;
  uint64_t *const R = S.R;
  for (unsigned I = 0; I < NumRegs; ++I)
    R[I] = Seed + 7 * I;
  size_t Pc = 0;
  for (uint64_t N = 0; N < Ops; ++N) {
    const Inst In = Code[Pc];
    switch (In.Op) {
    case Add:
      R[In.Dst] = R[In.A] + R[In.B] + 1;
      break;
    case Xor:
      R[In.Dst] = R[In.A] ^ (R[In.B] >> 3);
      break;
    case Rotl:
      R[In.Dst] = (R[In.A] << 13) | (R[In.A] >> 51);
      break;
    case Mul:
      R[In.Dst] = R[In.A] * 0x100000001B3ull + R[In.B];
      break;
    case Load:
      R[In.Dst] = R[In.A] + Mem[R[In.B] & (MemWords - 1)];
      break;
    case Store:
      Mem[R[In.A] & (MemWords - 1)] = R[In.B];
      break;
    case Sub:
      R[In.Dst] = R[In.A] - (R[In.B] | 1);
      break;
    case Select:
      R[In.Dst] = R[In.A] > R[In.B] ? R[In.A] : R[In.B] + 2;
      break;
    }
    Pc = Pc + 1 == PatternLen ? 0 : Pc + 1;
  }
  uint64_t H = 0;
  for (unsigned I = 0; I < NumRegs; ++I)
    H = H * 31 + R[I];
  return H;
}

double yardstickNsPerOp(uint64_t Ops) {
  const auto T0 = std::chrono::steady_clock::now();
  Sink = Sink + runYardstick(Ops, Sink);
  const auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(T1 - T0).count() /
         static_cast<double>(Ops);
}

} // namespace rtbench
