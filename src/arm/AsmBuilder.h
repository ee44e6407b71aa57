//===- arm/AsmBuilder.h - Programmatic ARM assembler ------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small programmatic assembler for building guest binaries (the mini
/// kernel and the benchmark workloads) directly from C++. Supports forward
/// labels, literal pools, and the full modelled instruction set; \ref
/// finish() resolves fixups and returns the encoded words that get loaded
/// into guest physical memory.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_ARM_ASMBUILDER_H
#define RDBT_ARM_ASMBUILDER_H

#include "arm/Isa.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rdbt {
namespace arm {

/// An opaque label handle. Create with AsmBuilder::newLabel(), place with
/// bind(), reference from branches and ldrLit().
struct Label {
  unsigned Id = ~0u;
  bool isValid() const { return Id != ~0u; }
};

/// Builds a contiguous chunk of guest code/data at a fixed base address.
class AsmBuilder {
public:
  explicit AsmBuilder(uint32_t BaseAddr) : Base(BaseAddr) {}

  /// Address the next emitted word will occupy.
  uint32_t here() const {
    return Base + 4u * static_cast<uint32_t>(Words.size());
  }

  uint32_t baseAddr() const { return Base; }

  // --- Labels ------------------------------------------------------------

  Label newLabel();
  /// Binds \p L to the current position. Each label binds exactly once.
  void bind(Label L);
  /// Creates a label already bound to the current position.
  Label hereLabel();
  /// Returns the bound address of \p L; asserts if unbound.
  uint32_t labelAddr(Label L) const;

  // --- Raw emission ------------------------------------------------------

  void word(uint32_t W) { Words.push_back(W); }
  void emit(const Inst &I);
  /// Emits \p Count zero words.
  void zeros(unsigned Count);
  /// Pads with NOP-encoded words until `here()` == \p Addr.
  void padTo(uint32_t Addr);

  // --- Data-processing ---------------------------------------------------

  void mov(uint8_t Rd, Operand2 Src, Cond C = Cond::AL, bool S = false);
  void movi(uint8_t Rd, uint32_t Imm, Cond C = Cond::AL, bool S = false);
  void mvn(uint8_t Rd, Operand2 Src, Cond C = Cond::AL, bool S = false);
  void alu(Opcode Op, uint8_t Rd, uint8_t Rn, Operand2 Src,
           Cond C = Cond::AL, bool S = false);
  void add(uint8_t Rd, uint8_t Rn, Operand2 Src, Cond C = Cond::AL,
           bool S = false) {
    alu(Opcode::ADD, Rd, Rn, Src, C, S);
  }
  void sub(uint8_t Rd, uint8_t Rn, Operand2 Src, Cond C = Cond::AL,
           bool S = false) {
    alu(Opcode::SUB, Rd, Rn, Src, C, S);
  }
  void cmp(uint8_t Rn, Operand2 Src, Cond C = Cond::AL);
  void cmn(uint8_t Rn, Operand2 Src, Cond C = Cond::AL);
  void tst(uint8_t Rn, Operand2 Src, Cond C = Cond::AL);
  void teq(uint8_t Rn, Operand2 Src, Cond C = Cond::AL);
  /// Loads an arbitrary 32-bit constant with a mov/orr sequence (1-4
  /// instructions depending on the value).
  void movImm32(uint8_t Rd, uint32_t Value, Cond C = Cond::AL);
  /// Shift pseudo-instructions (lsl/lsr/asr are MOV with a shifted reg).
  void shift(uint8_t Rd, uint8_t Rm, ShiftKind Kind, uint8_t Amount,
             Cond C = Cond::AL, bool S = false);

  // --- Multiplies --------------------------------------------------------

  void mul(uint8_t Rd, uint8_t Rm, uint8_t Rs, Cond C = Cond::AL,
           bool S = false);
  void mla(uint8_t Rd, uint8_t Rm, uint8_t Rs, uint8_t Ra,
           Cond C = Cond::AL, bool S = false);
  void umull(uint8_t RdLo, uint8_t RdHi, uint8_t Rm, uint8_t Rs,
             Cond C = Cond::AL, bool S = false);
  void smull(uint8_t RdLo, uint8_t RdHi, uint8_t Rm, uint8_t Rs,
             Cond C = Cond::AL, bool S = false);
  void clz(uint8_t Rd, uint8_t Rm, Cond C = Cond::AL);

  // --- Loads and stores --------------------------------------------------

  /// Immediate-offset form; \p Offset in [-4095, 4095] (word/byte) or
  /// [-255, 255] (halfword).
  void ldrstr(Opcode Op, uint8_t Rt, uint8_t Rn, int32_t Offset = 0,
              Cond C = Cond::AL, bool Writeback = false,
              bool PostIndex = false);
  /// Register-offset form.
  void ldrstrReg(Opcode Op, uint8_t Rt, uint8_t Rn, Operand2 Offset,
                 Cond C = Cond::AL);
  void ldr(uint8_t Rt, uint8_t Rn, int32_t Off = 0, Cond C = Cond::AL) {
    ldrstr(Opcode::LDR, Rt, Rn, Off, C);
  }
  void str(uint8_t Rt, uint8_t Rn, int32_t Off = 0, Cond C = Cond::AL) {
    ldrstr(Opcode::STR, Rt, Rn, Off, C);
  }
  void ldm(uint8_t Rn, uint16_t List, BlockMode M = BlockMode::IA,
           bool Writeback = true, Cond C = Cond::AL, bool UserBank = false);
  void stm(uint8_t Rn, uint16_t List, BlockMode M = BlockMode::IA,
           bool Writeback = true, Cond C = Cond::AL, bool UserBank = false);
  /// push/pop = stmdb sp!/ldmia sp! with the given register mask.
  void push(uint16_t List, Cond C = Cond::AL);
  void pop(uint16_t List, Cond C = Cond::AL);
  /// Loads a 32-bit value from a literal pool (`ldr rd, =value`).
  void ldrLit(uint8_t Rt, uint32_t Value, Cond C = Cond::AL);
  /// Dumps pending literal-pool entries here. Must not be reachable as
  /// fall-through code. Called automatically by finish().
  void pool();

  // --- Branches ----------------------------------------------------------

  void b(Label Target, Cond C = Cond::AL);
  void bl(Label Target, Cond C = Cond::AL);
  void bx(uint8_t Rm, Cond C = Cond::AL);

  // --- Status register and system ----------------------------------------

  void mrs(uint8_t Rd, bool Spsr = false, Cond C = Cond::AL);
  void msr(uint8_t Rm, bool Spsr = false, uint8_t Mask = 0x9,
           Cond C = Cond::AL);
  void svc(uint32_t Imm, Cond C = Cond::AL);
  void cps(bool DisableIrq);
  void mcr(Cp15Reg Reg, uint8_t Rt, Cond C = Cond::AL);
  void mrc(Cp15Reg Reg, uint8_t Rt, Cond C = Cond::AL);
  void vmrs(uint8_t Rt, Cond C = Cond::AL);
  void vmsr(uint8_t Rt, Cond C = Cond::AL);
  void wfi(Cond C = Cond::AL);
  void nop(Cond C = Cond::AL);
  void udf(uint32_t Imm = 0);
  /// Exception return: subs pc, lr, #Adjust (restores CPSR from SPSR).
  void eret(uint32_t Adjust);
  /// movs pc, lr — return from SVC.
  void movsPcLr();

  /// Resolves all fixups and literal pools and returns the image words.
  /// The builder must not be reused afterwards.
  std::vector<uint32_t> finish();

private:
  struct Fixup {
    size_t WordIndex;
    unsigned LabelId;
  };
  struct PoolRef {
    size_t WordIndex; ///< the ldr instruction to patch
    uint32_t Value;   ///< literal value
  };

  uint32_t Base;
  std::vector<uint32_t> Words;
  std::vector<int64_t> LabelAddrs; ///< -1 = unbound
  std::vector<Fixup> BranchFixups;
  std::vector<PoolRef> PendingPool;
  bool Finished = false;

  void flushPool();
};

} // namespace arm
} // namespace rdbt

#endif // RDBT_ARM_ASMBUILDER_H
