//===- dbt/SoftmmuEmit.h - Shared inline-TLB emission -----------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the QEMU-style inline softmmu probe both translators use for
/// guest memory accesses: a direct-mapped TLB lookup (~10 host
/// instructions on the hit path, attributed to CostClass::MmuInline) with
/// a helper call on the miss path. This is the "address translation"
/// machinery whose context switches §II-C identifies as the dominant
/// coordination source.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_SOFTMMUEMIT_H
#define RDBT_DBT_SOFTMMUEMIT_H

#include "dbt/Helpers.h"
#include "host/HostEmitter.h"
#include "sys/Env.h"

namespace rdbt {
namespace dbt {

/// Emits an inline guest memory access.
///
/// \p AddrReg holds the guest virtual address (preserved; must not be t0
/// or t1). For loads the value lands in \p DataReg; for stores \p DataReg
/// supplies it (and is preserved). The probe clobbers t0 and t1 and the
/// host flags. \p Size is 1, 2 or 4.
inline void emitInlineAccess(host::HostEmitter &E, uint8_t AddrReg,
                             uint8_t DataReg, uint8_t Size, bool IsLoad) {
  using namespace host;
  assert(AddrReg != ScratchReg0 && AddrReg != ScratchReg1 &&
         "probe clobbers t0/t1");
  const CostClass Saved = E.setClass(CostClass::MmuInline);

  E.movRR(ScratchReg0, AddrReg);
  E.aluI(HOp::Shr, ScratchReg0, 12); // t0 = vpn
  E.movRR(ScratchReg1, ScratchReg0);
  E.aluI(HOp::And, ScratchReg1, sys::TlbSize - 1); // t1 = index
  E.tlbCmp(ScratchReg1, ScratchReg0, AddrReg, Size, /*IsWrite=*/!IsLoad);
  const int JccSlow = E.jcc(HCond::Ne);
  E.tlbPhys(ScratchReg1, ScratchReg1); // t1 = phys page | flags
  E.movRR(ScratchReg0, AddrReg);
  E.aluI(HOp::And, ScratchReg0, 0xFFF);
  E.alu(HOp::Or, ScratchReg1, ScratchReg0); // t1 = phys address
  if (IsLoad)
    E.gLoad(DataReg, ScratchReg1, Size);
  else
    E.gStore(DataReg, ScratchReg1, Size);
  const int JmpDone = E.jmp();

  E.patchHere(JccSlow);
  E.setClass(CostClass::Helper);
  if (IsLoad) {
    const uint16_t Id = Size == 1   ? HelperLd8
                        : Size == 2 ? HelperLd16
                                    : HelperLd32;
    E.callHelper(Id, AddrReg, 0, DataReg);
  } else {
    const uint16_t Id = Size == 1   ? HelperSt8
                        : Size == 2 ? HelperSt16
                                    : HelperSt32;
    E.callHelper(Id, AddrReg, DataReg);
  }
  E.patchHere(JmpDone);
  E.setClass(Saved);
}

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_SOFTMMUEMIT_H
