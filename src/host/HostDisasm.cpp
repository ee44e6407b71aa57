//===- host/HostDisasm.cpp - Host code disassembler ------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "host/HostDisasm.h"

#include "support/Format.h"

using namespace rdbt;
using namespace rdbt::host;

static std::string hreg(uint8_t R) {
  if (R == ScratchReg0)
    return "%t0";
  if (R == ScratchReg1)
    return "%t1";
  if (R == ScratchReg2)
    return "%t2";
  return format("%%h%u", R);
}

static const char *classTag(CostClass Cls) {
  switch (Cls) {
  case CostClass::User: return "user";
  case CostClass::Sync: return "sync";
  case CostClass::MmuInline: return "mmu ";
  case CostClass::IrqCheck: return "irq ";
  case CostClass::Glue: return "glue";
  case CostClass::Helper: return "help";
  }
  return "????";
}

std::string host::disassemble(const HInst &H) {
  const std::string Operand =
      H.UseImm ? format("$0x%x", static_cast<uint32_t>(H.Imm))
               : hreg(H.Src);
  const char *SuffixS = H.SetFlags ? "s" : "";
  switch (H.Op) {
  case HOp::Nop:
    return "nop";
  case HOp::Marker:
    return static_cast<MarkerKind>(H.Imm) == MarkerKind::SyncOp
               ? ";; sync-op"
               : ";; tb-prolog";
  case HOp::Mov:
    return format("mov %s, %s", Operand.c_str(), hreg(H.Dst).c_str());
  case HOp::LdEnv:
    return format("mov env[%u], %s", H.Slot, hreg(H.Dst).c_str());
  case HOp::StEnv:
    return format("mov %s, env[%u]", hreg(H.Src).c_str(), H.Slot);
  case HOp::StEnvI:
    return format("movl $0x%x, env[%u]", static_cast<uint32_t>(H.Imm),
                  H.Slot);
  case HOp::Add:
  case HOp::Adc:
  case HOp::Sub:
  case HOp::Sbc:
  case HOp::Rsb:
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Bic:
  case HOp::Shl:
  case HOp::Shr:
  case HOp::Sar:
  case HOp::Ror:
  case HOp::Mul:
    return format("%s%s %s, %s", hopName(H.Op), SuffixS, Operand.c_str(),
                  hreg(H.Dst).c_str());
  case HOp::Neg:
  case HOp::Not:
    return format("%s %s", hopName(H.Op), hreg(H.Dst).c_str());
  case HOp::MulLU:
  case HOp::MulLS:
    return format("%s %s, %s:%s", hopName(H.Op), hreg(H.Src).c_str(),
                  hreg(H.Src2).c_str(), hreg(H.Dst).c_str());
  case HOp::Clz:
    return format("lzcnt %s, %s", hreg(H.Src).c_str(),
                  hreg(H.Dst).c_str());
  case HOp::Cmp:
  case HOp::Cmn:
  case HOp::Test:
    return format("%s %s, %s", hopName(H.Op), Operand.c_str(),
                  hreg(H.Dst).c_str());
  case HOp::SetCc:
    return format("set%s %s", hcondName(H.Cc), hreg(H.Dst).c_str());
  case HOp::PackF:
    return format("lahf/seto -> %s", hreg(H.Dst).c_str());
  case HOp::UnpackF:
    return format("sahf/addo <- %s", hreg(H.Dst).c_str());
  case HOp::Jcc:
    return format("j%s .L%d", hcondName(H.Cc), H.Target);
  case HOp::Jmp:
    return format("jmp .L%d", H.Target);
  case HOp::Probe:
    return format("probe.%s%u (%s), %s ; tlb hit: 12 cycles, miss: 6 + call",
                  H.AccIsWrite ? "st" : "ld", H.Size, hreg(H.Src).c_str(),
                  hreg(H.Dst).c_str());
  case HOp::CallHelper:
    return format("call helper_%u(%s, %s)", H.Helper, hreg(H.Src).c_str(),
                  hreg(H.Src2).c_str());
  case HOp::ChainSlot:
    return format("jmp chain_slot_%d", H.Imm);
  case HOp::ExitTb:
    return format("exit_tb(%d)", H.Imm);
  case HOp::CoordRun:
    return format(";; coord-run of %u: %d sync + %d glue cycles", H.Slot,
                  H.Imm, H.Target);
  }
  return "<bad>";
}

std::string host::disassembleBlock(const HostBlock &B) {
  std::string Text;
  Text += format("; TB @ guest 0x%08x, %u guest instrs%s\n", B.GuestPc,
                 B.NumGuestInstrs,
                 B.DefinesFlagsBeforeUse ? ", defines-flags-before-use" : "");
  for (size_t I = 0; I < B.Code.size(); ++I) {
    const HInst &H = B.Code[I];
    Text += format("%4zu  [%s] %s\n", I, classTag(H.Cls),
                   disassemble(H).c_str());
  }
  return Text;
}
