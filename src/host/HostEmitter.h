//===- host/HostEmitter.h - Host code emission helper -----------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small builder over \ref HostBlock used by both translators. It keeps
/// a current \ref CostClass so whole regions (a sync sequence, an inline
/// TLB probe) are attributed without per-instruction noise, and offers
/// patchable forward jumps for the diamond-shaped sequences.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_HOST_HOSTEMITTER_H
#define RDBT_HOST_HOSTEMITTER_H

#include "host/HostInst.h"

#include <cassert>

namespace rdbt {
namespace host {

class HostEmitter {
public:
  explicit HostEmitter(HostBlock &Block) : B(Block) {}

  HostBlock &block() { return B; }
  int here() const { return static_cast<int>(B.Code.size()); }

  /// Default attribution class for subsequently emitted instructions.
  CostClass Cls = CostClass::User;
  /// Guest PC attached to faulting ops / helper calls.
  uint32_t GuestPc = 0;

  /// RAII-free scoped class change: returns the previous class.
  CostClass setClass(CostClass NewCls) {
    CostClass Old = Cls;
    Cls = NewCls;
    return Old;
  }

  int emit(HInst H) {
    H.Cls = Cls;
    H.GuestPc = GuestPc;
    B.Code.push_back(H);
    return here() - 1;
  }

  // --- Moves and env access ----------------------------------------------

  int movRR(uint8_t Dst, uint8_t Src) {
    HInst H;
    H.Op = HOp::Mov;
    H.Dst = Dst;
    H.Src = Src;
    return emit(H);
  }
  int movRI(uint8_t Dst, uint32_t Imm) {
    HInst H;
    H.Op = HOp::Mov;
    H.Dst = Dst;
    H.UseImm = true;
    H.Imm = static_cast<int32_t>(Imm);
    return emit(H);
  }
  int ldEnv(uint8_t Dst, uint16_t Slot) {
    HInst H;
    H.Op = HOp::LdEnv;
    H.Dst = Dst;
    H.Slot = Slot;
    return emit(H);
  }
  int stEnv(uint16_t Slot, uint8_t Src) {
    HInst H;
    H.Op = HOp::StEnv;
    H.Src = Src;
    H.Slot = Slot;
    return emit(H);
  }
  int stEnvI(uint16_t Slot, uint32_t Imm) {
    HInst H;
    H.Op = HOp::StEnvI;
    H.Slot = Slot;
    H.UseImm = true;
    H.Imm = static_cast<int32_t>(Imm);
    return emit(H);
  }

  // --- ALU -----------------------------------------------------------------

  int alu(HOp Op, uint8_t Dst, uint8_t Src, bool SetFlags = false) {
    HInst H;
    H.Op = Op;
    H.Dst = Dst;
    H.Src = Src;
    H.SetFlags = SetFlags;
    return emit(H);
  }
  int aluI(HOp Op, uint8_t Dst, uint32_t Imm, bool SetFlags = false) {
    HInst H;
    H.Op = Op;
    H.Dst = Dst;
    H.UseImm = true;
    H.Imm = static_cast<int32_t>(Imm);
    H.SetFlags = SetFlags;
    return emit(H);
  }
  int cmpRR(uint8_t A, uint8_t Br) { return alu(HOp::Cmp, A, Br); }
  int testRR(uint8_t A, uint8_t Bs) { return alu(HOp::Test, A, Bs); }
  int mull(bool Signed, uint8_t Lo, uint8_t Src, uint8_t Hi,
           bool SetFlags = false) {
    HInst H;
    H.Op = Signed ? HOp::MulLS : HOp::MulLU;
    H.Dst = Lo;
    H.Src = Src;
    H.Src2 = Hi;
    H.SetFlags = SetFlags;
    return emit(H);
  }

  // --- Flags ---------------------------------------------------------------

  int setCc(uint8_t Dst, HCond Cc) {
    HInst H;
    H.Op = HOp::SetCc;
    H.Dst = Dst;
    H.Cc = Cc;
    return emit(H);
  }
  int packF(uint8_t Dst) {
    HInst H;
    H.Op = HOp::PackF;
    H.Dst = Dst;
    return emit(H);
  }
  int unpackF(uint8_t Src) {
    HInst H;
    H.Op = HOp::UnpackF;
    H.Dst = Src;
    return emit(H);
  }

  // --- Control flow ----------------------------------------------------------

  /// Emits a conditional jump with an unresolved target; patch with
  /// \ref patchTarget.
  int jcc(HCond Cc) {
    HInst H;
    H.Op = HOp::Jcc;
    H.Cc = Cc;
    return emit(H);
  }
  int jmp() {
    HInst H;
    H.Op = HOp::Jmp;
    return emit(H);
  }
  void patchTarget(int JumpIdx, int Target) {
    assert(B.Code[JumpIdx].Op == HOp::Jcc || B.Code[JumpIdx].Op == HOp::Jmp);
    B.Code[JumpIdx].Target = Target;
  }
  void patchHere(int JumpIdx) { patchTarget(JumpIdx, here()); }

  // --- Softmmu / guest memory -------------------------------------------------

  /// The inline softmmu probe; the caller emits the miss path's helper
  /// call right after it.
  int probe(uint8_t AddrReg, uint8_t DataReg, uint8_t Size, bool IsWrite) {
    HInst H;
    H.Op = HOp::Probe;
    H.Dst = DataReg;
    H.Src = AddrReg;
    H.Size = Size;
    H.AccIsWrite = IsWrite;
    return emit(H);
  }

  // --- Engine ops ----------------------------------------------------------

  int callHelper(uint16_t Helper, uint8_t A0 = 0, uint8_t A1 = 0,
                 uint8_t Dst = 0) {
    HInst H;
    H.Op = HOp::CallHelper;
    H.Helper = Helper;
    H.Src = A0;
    H.Src2 = A1;
    H.Dst = Dst;
    return emit(H);
  }
  int chainSlot(int Slot, uint32_t GuestTarget) {
    B.Chains[Slot].GuestTarget = GuestTarget;
    HInst H;
    H.Op = HOp::ChainSlot;
    H.Imm = Slot;
    return emit(H);
  }
  int exitTb(ExitReason Reason) {
    HInst H;
    H.Op = HOp::ExitTb;
    H.Imm = static_cast<int32_t>(Reason);
    return emit(H);
  }
  /// Exit requesting translation of the guest PC stored in env (by the
  /// preceding exit glue), to be chained into \p Slot.
  int exitTbNeedTranslate(int Slot) {
    HInst H;
    H.Op = HOp::ExitTb;
    H.Imm = static_cast<int32_t>(ExitReason::NeedTranslate);
    H.Src = static_cast<uint8_t>(Slot);
    return emit(H);
  }
  int marker(MarkerKind Kind) {
    HInst H;
    H.Op = HOp::Marker;
    H.Imm = static_cast<int32_t>(Kind);
    return emit(H);
  }

private:
  HostBlock &B;
};

} // namespace host
} // namespace rdbt

#endif // RDBT_HOST_HOSTEMITTER_H
