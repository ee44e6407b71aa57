//===- dbt/SoftmmuEmit.h - Shared inline-TLB emission -----------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the QEMU-style inline softmmu probe both translators use for
/// guest memory accesses: a direct-mapped TLB lookup with a helper call on
/// the miss path, the "address translation" machinery whose context
/// switches §II-C identifies as the dominant coordination source. The
/// probe is one host::HOp::Probe, charged (CostClass::MmuInline) as the
/// x86 sequence it stands for; a miss stops at the jne, after 6:
///
///     mov addr,t0; shr $12,t0; mov t0,t1; and $0xff,t1  t0=vpn t1=index
///     cmp vpn|align,tlb_<r|w>(env,t1); jne .miss        misaligned: miss
///     mov tlb_phys(env,t1),t1; mov addr,t0; and $0xfff,t0; or t0,t1
///     mov (t1),data | mov data,(t1); jmp .done
///   .miss: call helper_ld/st<size>  (CostClass::Helper)     .done:
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_SOFTMMUEMIT_H
#define RDBT_DBT_SOFTMMUEMIT_H

#include "dbt/Helpers.h"
#include "host/HostEmitter.h"

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
  E.probe(AddrReg, DataReg, Size, /*IsWrite=*/!IsLoad);
  E.setClass(CostClass::Helper);
  const uint16_t Id = memHelperId(Size, /*IsWrite=*/!IsLoad);
  if (IsLoad)
    E.callHelper(Id, AddrReg, 0, DataReg);
  else
    E.callHelper(Id, AddrReg, DataReg);
  E.setClass(Saved);
}

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_SOFTMMUEMIT_H
