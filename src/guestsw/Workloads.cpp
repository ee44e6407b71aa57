//===- guestsw/Workloads.cpp - Guest benchmark programs --------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "guestsw/Workloads.h"

#include "arm/AsmBuilder.h"
#include "fuzz/ProgramGen.h"
#include "guestsw/MiniKernel.h"
#include "support/Rng.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::guestsw;
using namespace rdbt::arm;

namespace {

enum : uint8_t {
  R0 = 0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12
};

/// Builder wrapper with the common program scaffolding: entry stub,
/// syscall helpers, a hex-print subroutine and the exit path. Convention:
/// r10 accumulates the program checksum; r4/r11 hold data base pointers;
/// r5/r6 loop counters; r0-r3/r7 syscall scratch.
class UserProg {
public:
  UserProg() : U(KernelLayout::UserVirt) {
    PrintHex = U.newLabel();
    U.movImm32(RegSP, KernelLayout::UserStackTop);
    U.movi(R10, 0);
  }

  AsmBuilder U;

  void syscall(uint32_t Num) {
    U.movi(R7, Num);
    U.svc(0);
  }
  void putc(char C) {
    U.movImm32(R0, static_cast<uint32_t>(C));
    syscall(SysPutc);
  }

  /// Prints r10 as hex, a newline, and exits. Emits the print subroutine.
  /// Must be the last emission.
  std::vector<uint32_t> finishProgram() {
    U.mov(R0, Operand2::reg(R10));
    U.bl(PrintHex);
    putc('\n');
    syscall(SysExit);

    // print_hex(r0): prints 8 hex digits. Exercises reg-shifted
    // operands, conditional execution and ldm/stm.
    U.bind(PrintHex);
    U.push((1u << R4) | (1u << R5) | (1u << RegLR));
    U.mov(R4, Operand2::reg(R0));
    U.movi(R5, 28);
    Label Loop = U.hereLabel();
    U.mov(R0, Operand2::regShiftedReg(R4, ShiftKind::LSR, R5));
    U.alu(Opcode::AND, R0, R0, Operand2::imm(0xF));
    U.cmp(R0, Operand2::imm(10));
    U.alu(Opcode::ADD, R0, R0, Operand2::imm('0'), Cond::LT);
    U.alu(Opcode::ADD, R0, R0, Operand2::imm('a' - 10), Cond::GE);
    syscall(SysPutc);
    U.sub(R5, R5, Operand2::imm(4), Cond::AL, /*S=*/true);
    U.b(Loop, Cond::GE);
    U.pop((1u << R4) | (1u << R5) | (1u << RegPC));

    U.pool();
    return U.finish();
  }

  /// Fills Words words at \p Vaddr with LCG values derived from \p Seed
  /// (guest-side initialization loop; exercises stores).
  void fillData(uint32_t Vaddr, uint32_t Words, uint32_t Seed) {
    U.movImm32(R0, Vaddr);
    U.movImm32(R1, Seed);
    U.movImm32(R2, Words);
    U.movImm32(R3, 1103515245);
    Label Loop = U.hereLabel();
    U.mul(R8, R1, R3);
    U.movImm32(R9, 12345);
    U.add(R1, R8, Operand2::reg(R9));
    U.ldrstr(Opcode::STR, R1, R0, 4, Cond::AL, false, /*PostIndex=*/true);
    U.sub(R2, R2, Operand2::imm(1), Cond::AL, true);
    U.b(Loop, Cond::NE);
  }

  /// Emits a counted loop head; returns (label, counterReg must be set
  /// before). Body runs with counter decrementing to zero.
  Label loopHead() { return U.hereLabel(); }
  void loopTail(Label Head, uint8_t Counter) {
    U.sub(Counter, Counter, Operand2::imm(1), Cond::AL, true);
    U.b(Head, Cond::NE);
  }

private:
  Label PrintHex;
};

using Emitter = std::vector<uint32_t> (*)(uint32_t Scale);

//===----------------------------------------------------------------------===//
// SPEC CINT2006 proxies
//===----------------------------------------------------------------------===//

/// perlbench: byte-wise string hashing with a branchy character
/// dispatch (interpreter-style control flow, ~35% memory).
std::vector<uint32_t> emitPerlbench(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 1024, 0x1234);
  U.movImm32(R6, Scale * 60);
  Label Outer = P.loopHead();
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R5, 4096);
  Label Inner = U.hereLabel();
  U.ldrstr(Opcode::LDRB, R8, R4, 1, Cond::AL, false, /*PostIndex=*/true);
  // h = (h << 5) - h + b
  U.alu(Opcode::RSB, R9, R10, Operand2::shiftedReg(R10, ShiftKind::LSL, 5));
  U.add(R10, R9, Operand2::reg(R8));
  // Character-class dispatch.
  U.tst(R8, Operand2::imm(1));
  U.alu(Opcode::EOR, R10, R10, Operand2::imm(0x5B), Cond::NE);
  U.tst(R8, Operand2::imm(2));
  U.add(R10, R10, Operand2::imm(7), Cond::NE);
  U.tst(R8, Operand2::imm(0x80));
  Label NoEsc = U.newLabel();
  U.b(NoEsc, Cond::EQ);
  U.alu(Opcode::EOR, R10, R10, Operand2::shiftedReg(R8, ShiftKind::LSL, 3));
  U.bind(NoEsc);
  P.loopTail(Inner, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// bzip2: run-length encoding over a byte buffer (~40% memory, data-
/// dependent branches).
std::vector<uint32_t> emitBzip2(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 512, 0xBEEF);
  U.movImm32(R6, Scale * 120);
  Label Outer = P.loopHead();
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R11, KernelLayout::UserData + 0x2000); // output
  U.movImm32(R5, 2048);
  U.movi(R8, 0); // prev
  U.movi(R9, 0); // run length
  Label Inner = U.hereLabel();
  U.ldrstr(Opcode::LDRB, R2, R4, 1, Cond::AL, false, true);
  U.cmp(R2, Operand2::reg(R8));
  U.add(R9, R9, Operand2::imm(1), Cond::EQ);
  Label Same = U.newLabel();
  U.b(Same, Cond::EQ);
  // flush run: out byte = prev, out byte = len
  U.ldrstr(Opcode::STRB, R8, R11, 1, Cond::AL, false, true);
  U.ldrstr(Opcode::STRB, R9, R11, 1, Cond::AL, false, true);
  U.add(R10, R10, Operand2::reg(R9));
  U.mov(R8, Operand2::reg(R2));
  U.movi(R9, 1);
  U.bind(Same);
  P.loopTail(Inner, R5);
  U.add(R10, R10, Operand2::reg(R9));
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// gcc: pointer-graph walking with irregular branches (~30% memory).
std::vector<uint32_t> emitGcc(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  // Node table: 512 nodes x 2 words (next-index, value).
  P.fillData(KernelLayout::UserData, 1024, 0xCAFE);
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R6, Scale * 220);
  U.movi(R8, 0); // current node index
  Label Outer = P.loopHead();
  U.movImm32(R5, 1000);
  Label Walk = U.hereLabel();
  // node = base + (idx & 255) * 8 (255 is ARM-immediate encodable)
  U.alu(Opcode::AND, R9, R8, Operand2::imm(255));
  U.add(R9, R4, Operand2::shiftedReg(R9, ShiftKind::LSL, 3));
  U.ldr(R8, R9, 0);  // next
  U.ldr(R2, R9, 4);  // value
  U.tst(R2, Operand2::imm(4));
  U.add(R10, R10, Operand2::reg(R2), Cond::NE);
  U.alu(Opcode::EOR, R10, R10, Operand2::shiftedReg(R2, ShiftKind::LSR, 7),
        Cond::EQ);
  U.cmp(R2, Operand2::imm(0));
  U.alu(Opcode::RSB, R2, R2, Operand2::imm(0), Cond::LT);
  U.add(R8, R8, Operand2::reg(R2));
  P.loopTail(Walk, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// mcf: array-of-structs minimum search with conditional updates
/// (~41% memory).
std::vector<uint32_t> emitMcf(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 2048, 0x4D43);
  U.movImm32(R6, Scale * 110);
  Label Outer = P.loopHead();
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R5, 512); // 512 records x 4 words
  U.mvn(R8, Operand2::imm(0)); // best = UINT_MAX
  Label Scan = U.hereLabel();
  U.ldr(R2, R4, 0);  // cost
  U.ldr(R3, R4, 4);  // flow
  U.cmp(R2, Operand2::reg(R8));
  U.mov(R8, Operand2::reg(R2), Cond::CC);
  U.add(R3, R3, Operand2::imm(1), Cond::CC);
  U.str(R3, R4, 4, Cond::CC);
  U.ldr(R2, R4, 8);
  U.add(R10, R10, Operand2::reg(R2));
  U.add(R4, R4, Operand2::imm(16));
  P.loopTail(Scan, R5);
  U.add(R10, R10, Operand2::reg(R8));
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// gobmk: 2-D board neighbourhood scans (~31% memory, nested loops).
std::vector<uint32_t> emitGobmk(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 512, 0x60);
  U.movImm32(R6, Scale * 130);
  Label Outer = P.loopHead();
  U.movImm32(R4, KernelLayout::UserData + 32);
  U.movImm32(R5, 1900);
  Label Cell = U.hereLabel();
  U.ldrstr(Opcode::LDRB, R2, R4, 0);
  U.ldrstr(Opcode::LDRB, R3, R4, -1);
  U.ldrstr(Opcode::LDRB, R8, R4, 1);
  U.add(R2, R2, Operand2::reg(R3));
  U.add(R2, R2, Operand2::reg(R8));
  U.cmp(R2, Operand2::imm(0x80));
  U.add(R10, R10, Operand2::imm(1), Cond::HI);
  U.alu(Opcode::EOR, R10, R10, Operand2::reg(R2), Cond::LS);
  U.add(R4, R4, Operand2::imm(1));
  P.loopTail(Cell, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// hmmer: dynamic-programming inner loop, two tables with max()
/// selection (~48% memory).
std::vector<uint32_t> emitHmmer(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 2048, 0x4857);
  U.movImm32(R6, Scale * 110);
  Label Outer = P.loopHead();
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R11, KernelLayout::UserData + 0x2000);
  U.movImm32(R5, 1024);
  U.movi(R8, 0); // m[i-1]
  Label Cell = U.hereLabel();
  U.ldr(R2, R4, 0);  // s1[i]
  U.ldr(R3, R4, 4);  // s2[i]
  U.add(R2, R2, Operand2::reg(R8));
  U.add(R3, R3, Operand2::reg(R9));
  U.cmp(R2, Operand2::reg(R3));
  U.ldr(R9, R11, 4); // d[i-1] for the next cell (independent of the cmp)
  U.mov(R8, Operand2::reg(R2), Cond::HI);
  U.mov(R8, Operand2::reg(R3), Cond::LS);
  U.str(R8, R11, 0);
  U.add(R10, R10, Operand2::reg(R8));
  U.add(R4, R4, Operand2::imm(8));
  U.add(R11, R11, Operand2::imm(4));
  P.loopTail(Cell, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// sjeng: bitboard manipulation — shifts, clz, bit tricks, branchy
/// (~34% memory via move tables).
std::vector<uint32_t> emitSjeng(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 1024, 0x534A);
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R6, Scale * 150);
  U.movImm32(R8, 0x9E3779B9);
  Label Outer = P.loopHead();
  U.movImm32(R5, 800);
  Label Move = U.hereLabel();
  // b = table[(x >> 3) & 255]
  U.mov(R9, Operand2::shiftedReg(R8, ShiftKind::LSR, 3));
  U.alu(Opcode::AND, R9, R9, Operand2::imm(255));
  U.ldrstrReg(Opcode::LDR, R2, R4,
              Operand2::shiftedReg(R9, ShiftKind::LSL, 2));
  U.clz(R3, R2);
  U.add(R10, R10, Operand2::reg(R3));
  U.alu(Opcode::EOR, R8, R8, Operand2::shiftedReg(R2, ShiftKind::ROR, 7));
  U.tst(R8, Operand2::imm(1));
  U.alu(Opcode::ORR, R8, R8, Operand2::imm(0x10000), Cond::NE);
  U.alu(Opcode::BIC, R8, R8, Operand2::imm(0xFF), Cond::EQ);
  U.add(R8, R8, Operand2::imm(0x11));
  P.loopTail(Move, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// libquantum: gate application over a state vector with a light memory
/// footprint (~23% memory, ALU/rotation heavy).
std::vector<uint32_t> emitLibquantum(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 1024, 0x7153);
  U.movImm32(R6, Scale * 150);
  Label Outer = P.loopHead();
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R5, 512);
  Label Gate = U.hereLabel();
  U.ldr(R2, R4, 0);
  // Several ALU "phase" steps per load.
  U.alu(Opcode::EOR, R2, R2, Operand2::imm(0x40000));
  U.mov(R3, Operand2::shiftedReg(R2, ShiftKind::ROR, 13));
  U.add(R3, R3, Operand2::shiftedReg(R2, ShiftKind::LSL, 1));
  U.alu(Opcode::EOR, R3, R3, Operand2::shiftedReg(R3, ShiftKind::LSR, 5));
  U.add(R10, R10, Operand2::reg(R3));
  U.alu(Opcode::BIC, R2, R3, Operand2::imm(0xF0));
  U.str(R2, R4, 0);
  U.add(R4, R4, Operand2::imm(8));
  P.loopTail(Gate, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// h264ref: block copy + sum-of-absolute-differences, the most
/// memory-bound of the set (~55% memory).
std::vector<uint32_t> emitH264ref(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 2048, 0x4826);
  U.movImm32(R6, Scale * 110);
  Label Outer = P.loopHead();
  U.movImm32(R4, KernelLayout::UserData);          // ref
  U.movImm32(R11, KernelLayout::UserData + 0x1000); // cur
  U.movImm32(R9, KernelLayout::UserData + 0x2000);  // recon out
  U.movImm32(R5, 1024);
  Label Pix = U.hereLabel();
  U.ldrstr(Opcode::LDR, R2, R4, 4, Cond::AL, false, true);
  U.ldrstr(Opcode::LDR, R3, R11, 4, Cond::AL, false, true);
  U.sub(R8, R2, Operand2::reg(R3), Cond::AL, /*S=*/true);
  U.alu(Opcode::RSB, R8, R8, Operand2::imm(0), Cond::MI);
  U.add(R10, R10, Operand2::reg(R8));
  U.ldrstr(Opcode::STR, R2, R9, 4, Cond::AL, false, true);
  P.loopTail(Pix, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// omnetpp: binary-heap sift-down event scheduling (~23% memory,
/// compare/branch heavy).
std::vector<uint32_t> emitOmnetpp(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 1024, 0x6E65);
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R6, Scale * 90);
  U.movImm32(R8, 0x12345);
  Label Outer = P.loopHead();
  // Insert pseudo-event at root, sift down 512-entry heap.
  U.movi(R5, 1); // index
  U.str(R8, R4, 0);
  Label Sift = U.hereLabel();
  U.mov(R9, Operand2::shiftedReg(R5, ShiftKind::LSL, 1)); // child
  U.cmp(R9, Operand2::imm(512));
  Label Done = U.newLabel();
  U.b(Done, Cond::CS);
  U.ldrstrReg(Opcode::LDR, R2, R4,
              Operand2::shiftedReg(R5, ShiftKind::LSL, 2));
  U.ldrstrReg(Opcode::LDR, R3, R4,
              Operand2::shiftedReg(R9, ShiftKind::LSL, 2));
  U.cmp(R3, Operand2::reg(R2));
  U.b(Done, Cond::CS);
  // swap
  U.ldrstrReg(Opcode::STR, R3, R4,
              Operand2::shiftedReg(R5, ShiftKind::LSL, 2));
  U.ldrstrReg(Opcode::STR, R2, R4,
              Operand2::shiftedReg(R9, ShiftKind::LSL, 2));
  U.mov(R5, Operand2::reg(R9));
  U.b(Sift);
  U.bind(Done);
  U.add(R10, R10, Operand2::reg(R5));
  // next pseudo-event key
  U.alu(Opcode::EOR, R8, R8, Operand2::shiftedReg(R8, ShiftKind::LSL, 7));
  U.alu(Opcode::EOR, R8, R8, Operand2::shiftedReg(R8, ShiftKind::LSR, 9));
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// astar: grid flood traversal whose visited map lives on the demand-
/// paged heap (~31% memory + data aborts).
std::vector<uint32_t> emitAstar(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 1024, 0x4153);
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R11, KernelLayout::HeapVirt); // visited map (demand paged)
  U.movImm32(R6, Scale * 100);
  U.movImm32(R8, 17);
  Label Outer = P.loopHead();
  U.movImm32(R5, 700);
  Label Step = U.hereLabel();
  // pos = (pos * 5 + 3) mod 16384
  U.add(R8, R8, Operand2::shiftedReg(R8, ShiftKind::LSL, 2));
  U.add(R8, R8, Operand2::imm(3));
  U.movImm32(R2, 16383);
  U.alu(Opcode::AND, R8, R8, Operand2::reg(R2));
  // cost = grid[pos & 1023]
  U.alu(Opcode::AND, R9, R8, Operand2::imm(0xFF));
  U.ldrstrReg(Opcode::LDR, R2, R4,
              Operand2::shiftedReg(R9, ShiftKind::LSL, 2));
  // visited[pos]++ on the heap (touches up to 16 KiB of mapped pages)
  U.ldrstrReg(Opcode::LDRB, R3, R11, Operand2::reg(R8));
  U.add(R3, R3, Operand2::imm(1));
  U.ldrstrReg(Opcode::STRB, R3, R11, Operand2::reg(R8));
  U.cmp(R3, Operand2::imm(3));
  U.add(R10, R10, Operand2::reg(R2), Cond::LS);
  P.loopTail(Step, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// xalancbmk: tree traversal with an explicit stack (ldm/stm traffic,
/// dispatchy branches, ~24% memory).
std::vector<uint32_t> emitXalancbmk(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 2048, 0x584C);
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R6, Scale * 110);
  Label Outer = P.loopHead();
  U.movi(R8, 1); // node id
  U.movImm32(R5, 600);
  Label Visit = U.hereLabel();
  U.push((1u << R5) | (1u << R8));
  // node record: 2 words at base + (id & 255) * 8
  U.alu(Opcode::AND, R9, R8, Operand2::imm(255));
  U.add(R9, R4, Operand2::shiftedReg(R9, ShiftKind::LSL, 3));
  U.ldr(R2, R9, 0); // tag
  U.ldr(R3, R9, 4); // child seed
  U.tst(R2, Operand2::imm(3));
  U.add(R10, R10, Operand2::reg(R2), Cond::EQ);
  U.alu(Opcode::EOR, R10, R10, Operand2::reg(R3), Cond::NE);
  U.add(R8, R8, Operand2::shiftedReg(R3, ShiftKind::LSR, 22));
  U.add(R8, R8, Operand2::imm(1));
  U.pop((1u << R5) | (1u << R8));
  U.add(R8, R8, Operand2::imm(1));
  P.loopTail(Visit, R5);
  P.syscall(SysYield); // SPEC-on-Linux enters the kernel too
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

//===----------------------------------------------------------------------===//
// Real-world application proxies
//===----------------------------------------------------------------------===//

/// memcached: hash-table set/get server loop; the table lives on the
/// demand-paged heap.
std::vector<uint32_t> emitMemcached(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  U.movImm32(R11, KernelLayout::HeapVirt);
  U.movImm32(R6, Scale * 160);
  U.movImm32(R8, 0xFEED);
  Label Outer = P.loopHead();
  // key = lcg(); slot = hash(key) & 2047
  U.movImm32(R2, 1103515245);
  U.mul(R8, R8, R2);
  U.add(R8, R8, Operand2::imm(0xC5));
  U.alu(Opcode::EOR, R9, R8, Operand2::shiftedReg(R8, ShiftKind::LSR, 16));
  U.movImm32(R2, 2047);
  U.alu(Opcode::AND, R9, R9, Operand2::reg(R2));
  // bucket = heap + slot * 8 : {key, value}
  U.add(R9, R11, Operand2::shiftedReg(R9, ShiftKind::LSL, 3));
  U.ldr(R2, R9, 0);
  U.cmp(R2, Operand2::reg(R8));
  // hit: bump value; miss: store key, reset value
  U.ldr(R3, R9, 4, Cond::EQ);
  U.add(R3, R3, Operand2::imm(1), Cond::EQ);
  U.str(R8, R9, 0, Cond::NE);
  U.movi(R3, 1, Cond::NE);
  U.str(R3, R9, 4);
  U.add(R10, R10, Operand2::reg(R3));
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// sqlite: sorted-table insert with shifting plus binary search
/// (B-tree page behaviour).
std::vector<uint32_t> emitSqlite(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  // table of up to 256 rows in the data window; r9 = row count
  U.movImm32(R4, KernelLayout::UserData);
  U.movi(R9, 0);
  U.movImm32(R6, Scale * 30);
  U.movImm32(R8, 0x51C3);
  Label Outer = P.loopHead();
  // key = lcg()
  U.movImm32(R2, 69069);
  U.mul(R8, R8, R2);
  U.add(R8, R8, Operand2::imm(1));
  U.mov(R3, Operand2::shiftedReg(R8, ShiftKind::LSR, 20));
  // linear probe for insert position (branchy ldr loop)
  U.movi(R5, 0);
  Label Find = U.hereLabel();
  U.cmp(R5, Operand2::reg(R9));
  Label Insert = U.newLabel();
  U.b(Insert, Cond::CS);
  U.ldrstrReg(Opcode::LDR, R2, R4,
              Operand2::shiftedReg(R5, ShiftKind::LSL, 2));
  U.cmp(R2, Operand2::reg(R3));
  U.b(Insert, Cond::CS);
  U.add(R5, R5, Operand2::imm(1));
  U.b(Find);
  U.bind(Insert);
  // shift rows up from the end to the slot (memmove-style str loop)
  U.mov(R2, Operand2::reg(R9));
  Label Shift = U.hereLabel();
  U.cmp(R2, Operand2::reg(R5));
  Label Place = U.newLabel();
  U.b(Place, Cond::LS);
  U.sub(R2, R2, Operand2::imm(1));
  U.ldrstrReg(Opcode::LDR, R1, R4,
              Operand2::shiftedReg(R2, ShiftKind::LSL, 2));
  U.add(R0, R2, Operand2::imm(1));
  U.ldrstrReg(Opcode::STR, R1, R4,
              Operand2::shiftedReg(R0, ShiftKind::LSL, 2));
  U.b(Shift);
  U.bind(Place);
  U.ldrstrReg(Opcode::STR, R3, R4,
              Operand2::shiftedReg(R5, ShiftKind::LSL, 2));
  U.add(R9, R9, Operand2::imm(1));
  // table full: fold into checksum and restart
  U.cmp(R9, Operand2::imm(256));
  Label NotFull = U.newLabel();
  U.b(NotFull, Cond::NE);
  U.ldr(R2, R4, 128 * 4);
  U.add(R10, R10, Operand2::reg(R2));
  U.movi(R9, 0);
  U.bind(NotFull);
  U.add(R10, R10, Operand2::reg(R5));
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// fileio: sequential block-device read/write with checksumming —
/// I/O-bound through the disk syscalls.
std::vector<uint32_t> emitFileio(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  U.movImm32(R6, Scale * 6);
  U.movi(R9, 0); // sector
  Label Outer = P.loopHead();
  // read 4 sectors into the data window
  U.mov(R0, Operand2::reg(R9));
  U.movImm32(R1, KernelLayout::UserData);
  U.movi(R2, 4);
  P.syscall(SysDiskRead);
  // checksum the 2 KiB
  U.movImm32(R4, KernelLayout::UserData);
  U.movImm32(R5, 512);
  Label Sum = U.hereLabel();
  U.ldrstr(Opcode::LDR, R2, R4, 4, Cond::AL, false, true);
  U.add(R10, R10, Operand2::reg(R2));
  P.loopTail(Sum, R5);
  // write them back one sector further
  U.add(R0, R9, Operand2::imm(64));
  U.movImm32(R1, KernelLayout::UserData);
  U.movi(R2, 4);
  P.syscall(SysDiskWrite);
  U.add(R9, R9, Operand2::imm(4));
  U.alu(Opcode::AND, R9, R9, Operand2::imm(63));
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// untar: reads archive headers from disk and extracts payloads to the
/// heap — I/O plus copy loops.
std::vector<uint32_t> emitUntar(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  U.movImm32(R6, Scale * 5);
  Label Outer = P.loopHead();
  U.movi(R9, 0); // current sector
  Label Entry = U.hereLabel();
  // read header sector
  U.mov(R0, Operand2::reg(R9));
  U.movImm32(R1, KernelLayout::UserData);
  U.movi(R2, 1);
  P.syscall(SysDiskRead);
  U.movImm32(R4, KernelLayout::UserData);
  U.ldr(R5, R4, 0); // payload sectors (0 = end of archive)
  U.cmp(R5, Operand2::imm(0));
  Label ArchiveEnd = U.newLabel();
  U.b(ArchiveEnd, Cond::EQ);
  // read payload
  U.add(R0, R9, Operand2::imm(1));
  U.movImm32(R1, KernelLayout::UserData + 0x1000);
  U.mov(R2, Operand2::reg(R5));
  P.syscall(SysDiskRead);
  // extract: copy payload words to the heap and checksum
  U.movImm32(R4, KernelLayout::UserData + 0x1000);
  U.movImm32(R11, KernelLayout::HeapVirt + 0x8000);
  U.mov(R2, Operand2::shiftedReg(R5, ShiftKind::LSL, 7)); // words
  Label Copy = U.hereLabel();
  U.ldrstr(Opcode::LDR, R3, R4, 4, Cond::AL, false, true);
  U.ldrstr(Opcode::STR, R3, R11, 4, Cond::AL, false, true);
  U.add(R10, R10, Operand2::reg(R3));
  U.sub(R2, R2, Operand2::imm(1), Cond::AL, true);
  U.b(Copy, Cond::NE);
  U.add(R9, R9, Operand2::imm(1));
  U.add(R9, R9, Operand2::reg(R5));
  U.b(Entry);
  U.bind(ArchiveEnd);
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

/// cpu-prime: trial-division primality counting, almost pure
/// ALU/branch (sysbench cpu).
std::vector<uint32_t> emitCpuPrime(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  U.movImm32(R6, Scale * 700 + 3); // upper bound
  U.movi(R4, 3);                   // candidate
  Label Next = P.loopHead();
  U.movi(R5, 2); // divisor
  Label Div = U.hereLabel();
  U.mul(R2, R5, R5);
  U.cmp(R2, Operand2::reg(R4));
  Label Prime = U.newLabel();
  U.b(Prime, Cond::HI);
  // r2 = candidate mod divisor, by repeated subtraction
  U.mov(R2, Operand2::reg(R4));
  Label Mod = U.hereLabel();
  U.cmp(R2, Operand2::reg(R5));
  U.sub(R2, R2, Operand2::reg(R5), Cond::CS);
  U.b(Mod, Cond::CS);
  U.cmp(R2, Operand2::imm(0));
  Label NotPrime = U.newLabel();
  U.b(NotPrime, Cond::EQ);
  U.add(R5, R5, Operand2::imm(1));
  U.b(Div);
  U.bind(Prime);
  U.add(R10, R10, Operand2::imm(1));
  U.bind(NotPrime);
  U.add(R4, R4, Operand2::imm(2));
  U.cmp(R4, Operand2::reg(R6));
  U.b(Next, Cond::CC);
  return P.finishProgram();
}

//===----------------------------------------------------------------------===//
// System-level scenarios
//===----------------------------------------------------------------------===//

/// ctxswitch: CtxSwitchNumProcs processes, one per ASID, yielding to the
/// round-robin scheduler after every slice of compute. The workload that
/// measures what the ASID-aware translation cache buys: every SysYield
/// switches TTBR0 + CONTEXTIDR, and each process's translations must
/// survive the switch under their own ASID key.
std::vector<uint32_t> emitCtxswitch(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  // The loader stores this process's pid at the head of the private data
  // window, so identical code computes per-address-space results.
  U.movImm32(R4, KernelLayout::UserData);
  U.ldr(R9, R4, 0);
  U.movImm32(R6, Scale * 30);
  Label Outer = P.loopHead();
  // One timeslice of compute over the private window.
  U.movImm32(R4, KernelLayout::UserData + 0x100);
  U.movImm32(R5, 48);
  Label Slice = U.hereLabel();
  U.ldr(R2, R4, 0);
  U.add(R2, R2, Operand2::reg(R9));
  U.add(R2, R2, Operand2::reg(R5)); // position-dependent, nonzero ∀ pids
  U.alu(Opcode::EOR, R2, R2, Operand2::shiftedReg(R10, ShiftKind::LSR, 3));
  U.str(R2, R4, 0);
  U.add(R10, R10, Operand2::reg(R2));
  U.add(R4, R4, Operand2::imm(4));
  P.loopTail(Slice, R5);
  P.syscall(SysYield); // hand the CPU to the next process
  P.loopTail(Outer, R6);
  U.add(R10, R10, Operand2::shiftedReg(R9, ShiftKind::LSL, 16));
  return P.finishProgram();
}

/// fuzz: deterministic blocks from the differential-fuzz generator
/// (fuzz/ProgramGen.h, "corpus" profile — the learned-rule instruction
/// shapes), embedded in a kernel user program. This makes the fuzzer's
/// instruction mix a standing scenario-matrix row: every executor kind
/// must print the same checksum, so any divergence rdbt_fuzz would flag
/// also breaks the matrix/perf-gate comparison.
std::vector<uint32_t> emitFuzz(uint32_t Scale) {
  UserProg P;
  auto &U = P.U;
  P.fillData(KernelLayout::UserData, 512, 0xF0DD);
  U.movImm32(R6, Scale * 120);
  Label Outer = P.loopHead();
  const fuzz::Profile *Corpus = fuzz::findProfile("corpus");
  assert(Corpus && "corpus profile must exist");
  // Block I is fuzzer seed index I: reproduce any divergence standalone
  // with `rdbt_fuzz --seed I --profile corpus`.
  for (const uint64_t Index : {0ull, 1ull, 2ull}) {
    const fuzz::GenProgram G = fuzz::generate(0xF0DD + Index * 7919, *Corpus);
    // The generated block clobbers every register except r4 (the
    // generator's data base) — shelter the loop counter and the running
    // checksum, and give the block its seeded inputs so behaviour never
    // depends on what the previous block left behind.
    U.push((1u << R6) | (1u << R10));
    U.movImm32(R4, KernelLayout::UserData);
    for (const uint8_t Reg : {R0, R1, R2, R3, R5, R7, R8, R9, R10, R11, R12})
      U.movImm32(Reg, G.RegInit[Reg]);
    fuzz::emitOps(U, G.Ops);
    // Fold the block's final state into r0 (r4 is excluded: it is the
    // fixed data base, and rdbt_fuzz skips it for the same reason).
    U.alu(Opcode::EOR, R0, R0, Operand2::reg(R1));
    U.add(R0, R0, Operand2::reg(R2));
    U.alu(Opcode::EOR, R0, R0, Operand2::reg(R3));
    U.add(R0, R0, Operand2::reg(R5));
    U.alu(Opcode::EOR, R0, R0, Operand2::reg(R8));
    U.add(R0, R0, Operand2::reg(R9));
    U.alu(Opcode::EOR, R0, R0, Operand2::reg(R10));
    U.add(R0, R0, Operand2::reg(R11));
    U.alu(Opcode::EOR, R0, R0, Operand2::reg(R12));
    U.pop((1u << R6) | (1u << R10));
    U.add(R10, R10, Operand2::reg(R0));
  }
  P.syscall(SysYield); // cross the kernel boundary like the SPEC rows
  P.loopTail(Outer, R6);
  return P.finishProgram();
}

const std::vector<WorkloadInfo> &allWorkloads() {
  static const std::vector<WorkloadInfo> Table = {
      {"perlbench", true, false, "branchy string hashing"},
      {"bzip2", true, false, "run-length encoding"},
      {"gcc", true, false, "pointer-graph walking"},
      {"mcf", true, false, "struct-array minimum search"},
      {"gobmk", true, false, "board neighbourhood scans"},
      {"hmmer", true, false, "dynamic-programming inner loop"},
      {"sjeng", true, false, "bitboard move generation"},
      {"libquantum", true, false, "state-vector gate application"},
      {"h264ref", true, false, "block copy + SAD"},
      {"omnetpp", true, false, "event-heap sift-down"},
      {"astar", true, false, "grid flood with heap visited map"},
      {"xalancbmk", true, false, "tree walk with explicit stack"},
      {"memcached", false, true, "hash-table get/set server loop"},
      {"sqlite", false, true, "sorted-page insert/search"},
      {"fileio", false, true, "sequential disk read/write"},
      {"untar", false, true, "archive extraction from disk"},
      {"cpu-prime", false, true, "trial-division prime counting"},
      {"ctxswitch", false, false,
       "multi-process round-robin context switching (per-ASID spaces)"},
      {"fuzz", false, false,
       "generated corpus-profile blocks from the differential fuzzer"},
  };
  return Table;
}

Emitter emitterFor(const std::string &Name) {
  if (Name == "perlbench") return emitPerlbench;
  if (Name == "bzip2") return emitBzip2;
  if (Name == "gcc") return emitGcc;
  if (Name == "mcf") return emitMcf;
  if (Name == "gobmk") return emitGobmk;
  if (Name == "hmmer") return emitHmmer;
  if (Name == "sjeng") return emitSjeng;
  if (Name == "libquantum") return emitLibquantum;
  if (Name == "h264ref") return emitH264ref;
  if (Name == "omnetpp") return emitOmnetpp;
  if (Name == "astar") return emitAstar;
  if (Name == "xalancbmk") return emitXalancbmk;
  if (Name == "memcached") return emitMemcached;
  if (Name == "sqlite") return emitSqlite;
  if (Name == "fileio") return emitFileio;
  if (Name == "untar") return emitUntar;
  if (Name == "cpu-prime") return emitCpuPrime;
  if (Name == "ctxswitch") return emitCtxswitch;
  if (Name == "fuzz") return emitFuzz;
  return nullptr;
}

} // namespace

const sys::PhysMem::Image &guestsw::seededDisk() {
  using sys::PhysMem;
  constexpr uint32_t SectorSize = sys::DiskDevice::SectorSize;
  constexpr uint32_t Bytes = sys::DiskDevice::DefaultSectors * SectorSize;
  // Process-lifetime pages: the table aliases them with no control block,
  // as PhysMem aliases its zero page, so adopting or forking the image
  // touches no reference count for them.
  static PhysMem::Page Pages[Bytes / PhysMem::PageBytes];
  static const PhysMem::Image Image = [] {
    uint8_t *Media = reinterpret_cast<uint8_t *>(Pages);
    Rng R(0xD15C);
    for (uint32_t I = 0; I < Bytes; ++I)
      Media[I] = static_cast<uint8_t>(R.next32());
    // Archive: 6 entries of 1-4 payload sectors.
    uint32_t Sector = 0;
    for (uint32_t Size : {2, 1, 4, 3, 1, 2}) {
      uint8_t *Header = Media + Sector * SectorSize;
      Header[0] = static_cast<uint8_t>(Size);
      Header[1] = Header[2] = Header[3] = 0;
      Sector += 1 + Size;
    }
    uint8_t *End = Media + Sector * SectorSize;
    End[0] = End[1] = End[2] = End[3] = 0;
    PhysMem::Image Img{Bytes, {}};
    for (const PhysMem::Page &P : Pages)
      Img.Pages.emplace_back(PhysMem::PageRef(), &P);
    return Img;
  }();
  return Image;
}

const std::vector<WorkloadInfo> &guestsw::workloads() {
  return allWorkloads();
}

std::vector<uint32_t> guestsw::buildWorkloadImage(const std::string &Name,
                                                  uint32_t Scale) {
  const Emitter E = emitterFor(Name);
  if (!E)
    return {};
  return E(Scale == 0 ? 1 : Scale);
}

uint32_t guestsw::requiredWorkloadRam(const std::string &Name) {
  if (Name == "ctxswitch")
    return requiredRam(CtxSwitchNumProcs);
  return KernelLayout::MinRam;
}

bool guestsw::setupGuest(sys::Platform &Board, const std::string &Name,
                         uint32_t Scale) {
  std::vector<uint32_t> Image = buildWorkloadImage(Name, Scale);
  if (Image.empty())
    return false;
  Board.disk().adoptMedia(seededDisk());
  if (Name == "ctxswitch")
    installGuestProcs(Board, Image, CtxSwitchNumProcs);
  else
    installGuest(Board, Image);
  return true;
}
