//===- host/HostInst.h - Simulated host instruction set ---------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured host instruction set that both translators emit and the
/// \ref HostMachine executes. It models a 32-bit x86-like machine:
///
///  * 16 general-purpose registers h0..h15 plus two translator scratch
///    registers t0/t1 (the paper's host is IA-32 with 8 GPRs; we widen the
///    file so guest r0-r14 can stay pinned without building a spilling
///    register allocator — the coordination traffic under study does not
///    depend on spills, see DESIGN.md §2);
///  * an implicit env pointer (QEMU reserves a host register for it) used
///    by the LdEnv/StEnv instructions and the softmmu probe;
///  * NZCV condition flags with ARM carry polarity, updated only by
///    instructions with the SetFlags bit (x86 equivalents exist for every
///    case: flag-setting ALU ops, lea/mov for the non-setting ones);
///  * engine ops: the inline softmmu probe, helper calls, patchable chain
///    slots, TB exits.
///
/// A block is translated into Code, its IR. lower() turns Code into the
/// executed form (Exec) that HostMachine runs: Dead instructions dropped
/// and each run of coordination instructions behind one CoordRun op,
/// charged exactly as the instructions it stands for.
///
/// Every instruction carries a \ref CostClass so executed host
/// instructions can be attributed to user code, CPU-state coordination
/// (sync), inline MMU code, interrupt checks, glue, or helpers — the
/// categories behind the paper's Figures 15 and 17.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_HOST_HOSTINST_H
#define RDBT_HOST_HOSTINST_H

#include <cstdint>
#include <vector>

namespace rdbt {
namespace host {

/// Host register file geometry.
enum : uint8_t {
  NumHostGprs = 16,
  ScratchReg0 = 16, ///< t0 (softmmu probe scratch)
  ScratchReg1 = 17, ///< t1 (softmmu probe scratch)
  ScratchReg2 = 18, ///< t2 (address computation scratch)
  NumHostRegs = 19,
};

/// Host condition codes over NZCV (ARM polarity and numbering, evaluated
/// by support/Cond.h; the disassembler prints the x86 jcc aliases).
enum class HCond : uint8_t {
  Eq = 0,
  Ne,
  Cs,
  Cc,
  Mi,
  Pl,
  Vs,
  Vc,
  Hi,
  Ls,
  Ge,
  Lt,
  Gt,
  Le,
  Al,
};

/// Host opcodes.
enum class HOp : uint8_t {
  Nop,
  Marker, ///< zero-cost bookkeeping (MarkerKind in Imm)

  Mov,    ///< Dst = Src/Imm (never sets flags; x86 mov)
  LdEnv,  ///< Dst = env[Slot]
  StEnv,  ///< env[Slot] = Src
  StEnvI, ///< env[Slot] = Imm

  // Two-address ALU: Dst = Dst op (Src|Imm). SetFlags optional.
  Add,
  Adc,
  Sub,
  Sbc,
  Rsb, ///< Dst = (Src|Imm) - Dst (x86: neg+add or 3-op lea; cost 1)
  And,
  Or,
  Xor,
  Bic, ///< Dst = Dst & ~(Src|Imm) (x86 BMI andn)
  Shl,
  Shr,
  Sar,
  Ror,
  Neg,
  Not,
  Mul,    ///< Dst = Dst * Src (low 32)
  MulLU,  ///< Src2:Dst = Dst * Src unsigned (x86 mul)
  MulLS,  ///< Src2:Dst = Dst * Src signed (x86 imul)
  Clz,    ///< Dst = clz(Src) (x86 lzcnt)

  Cmp,  ///< flags = Dst - (Src|Imm), sub polarity
  Cmn,  ///< flags = Dst + (Src|Imm), add polarity
  Test, ///< flags = Dst & (Src|Imm), NZ only

  SetCc,   ///< Dst = Cc ? 1 : 0 (x86 setcc+movzx folded, cost 1)
  PackF,   ///< Dst = NZCV << 28 (x86 lahf+seto shuffle, cost 2)
  UnpackF, ///< flags = Dst >> 28 (x86 sahf+add, cost 2)

  Jcc, ///< conditional jump to Target (instruction index in block)
  Jmp, ///< unconditional jump to Target

  /// Inline softmmu access of Size bytes at guest virtual R[Src] into (or,
  /// if AccIsWrite, from) Dst: the TLB probe of dbt/SoftmmuEmit.h. A hit
  /// skips the load/store CallHelper that always follows; a miss runs it.
  Probe,

  CallHelper, ///< call Helper with args R[Src], R[Src2]; result to Dst
  ChainSlot,  ///< patchable direct jump: chain slot index in Imm
  ExitTb,     ///< leave the code cache; ExitReason in Imm

  /// Executed form only (see lower()): the Slot coordination instructions
  /// that follow it run as one op. Imm holds their Sync cycles, Target
  /// their Glue cycles and Helper their SyncOp markers.
  CoordRun,
};

/// Host instructions (and cycles) of the sequence HOp::Probe stands for:
/// all 12 on a hit (RAM at the 11th), the first 6 before a miss's call.
constexpr unsigned ProbeHitCycles = 12;

/// Instruction cost/attribution classes (Fig. 15 / Fig. 17 accounting).
enum class CostClass : uint8_t {
  User = 0,  ///< translated guest computation
  Sync = 1,  ///< CPU state coordination (sync-save / sync-restore)
  MmuInline = 2, ///< inline softmmu probe
  IrqCheck = 3,  ///< TB-head interrupt check
  Glue = 4,      ///< block linking, PC bookkeeping, exits
  Helper = 5,    ///< helper call overhead + helper-internal cost
};
constexpr unsigned NumCostClasses = 6;

/// Marker kinds (HOp::Marker, zero cost).
enum class MarkerKind : uint8_t {
  SyncOp = 0,    ///< start of one coordination operation (sync_num)
  TbProlog = 1,  ///< TB entry point (retires the TB's guest instructions)
};

/// Reasons a run of translated code returns to the engine.
enum class ExitReason : uint8_t {
  Lookup = 0,    ///< continue at env.Regs[15] (indirect branch, fallthru)
  NeedTranslate, ///< chain slot unresolved; target PC in RunResult
  Interrupt,     ///< TB-head check observed ExitRequest
  Exception,     ///< a helper delivered a guest exception
  Halt,          ///< WFI
  Shutdown,      ///< guest requested stop (test bench hook)
};

/// One structured host instruction. Field use depends on Op.
struct HInst {
  HOp Op = HOp::Nop;
  HCond Cc = HCond::Al;
  CostClass Cls = CostClass::User;
  bool SetFlags = false;
  bool UseImm = false;
  bool AccIsWrite = false; ///< Probe: a store (probes the write tag)
  bool Dead = false;       ///< elided by inter-TB chain patching
  uint8_t Size = 4;        ///< Probe access size
  uint8_t Dst = 0;
  uint8_t Src = 0;
  uint8_t Src2 = 0;
  uint16_t Slot = 0;  ///< env word slot (LdEnv/StEnv)
  uint16_t Helper = 0;
  int32_t Imm = 0;
  int32_t Target = -1; ///< Jcc/Jmp destination index
  uint32_t GuestPc = 0; ///< metadata: guest PC for faulting ops/helpers
};

/// Host code for one translation block plus its two patchable chain exits.
struct HostBlock {
  // What HostMachine::run reads on every block entry comes first, so
  // those fields share cache lines: behind Code and GuestWords, the entry
  // counters cost native 3 % and qemu 5 % (EXPERIMENTS.md).

  /// What HostMachine::run executes, built from Code by lower(): no Dead
  /// instruction, and each coordination run behind one CoordRun.
  std::vector<HInst> Exec;

  /// A direct-branch exit that can be chained to a successor TB.
  struct Chain {
    int TargetTb = -1;       ///< resolved successor, or -1
    uint32_t GuestTarget = 0; ///< guest PC this exit branches to
    /// Host-code range [Begin, End) of the flag sync-save belonging to
    /// this exit; the inter-TB optimization marks it Dead at chain time.
    int FlagSaveBegin = -1;
    int FlagSaveEnd = -1;
  };
  Chain Chains[2];

  uint32_t GuestPc = 0;       ///< guest address this TB translates
  uint32_t NumGuestInstrs = 0;
  // Guest instruction category counts (Table I accounting; the host
  // machine accumulates them blindly on every TB entry).
  uint32_t NumMemInstrs = 0;
  uint32_t NumSysInstrs = 0;
  uint32_t NumIrqChecks = 0;
  /// True if every path through the TB writes the NZCV flags before any
  /// instruction reads them (the III-C inter-TB elimination predicate).
  bool DefinesFlagsBeforeUse = false;

  /// The block as translated: what cache files store, the disassembler
  /// prints and chain-time elision marks Dead.
  std::vector<HInst> Code;
  /// Raw guest words this TB was translated from (filled by the engine
  /// after translation). The persistent code cache re-validates a loaded
  /// block against freshly fetched guest memory through these.
  std::vector<uint32_t> GuestWords;
};

/// True for the instructions of a coordination bracket that lower() fuses:
/// SyncOp markers, Sync-class LdEnv/StEnv/StEnvI/PackF/UnpackF and the
/// Glue-class StEnvI that stores the PC before a helper or an exit.
constexpr bool isCoordination(const HInst &H) {
  switch (H.Op) {
  case HOp::Marker:
    return static_cast<MarkerKind>(H.Imm) == MarkerKind::SyncOp;
  case HOp::LdEnv:
  case HOp::StEnv:
  case HOp::PackF:
  case HOp::UnpackF:
    return H.Cls == CostClass::Sync;
  case HOp::StEnvI:
    return H.Cls == CostClass::Sync || H.Cls == CostClass::Glue;
  default:
    return false;
  }
}

/// Cycles a coordination instruction costs (a marker costs none).
constexpr unsigned coordinationCycles(const HInst &H) {
  return H.Op == HOp::Marker ? 0
         : H.Op == HOp::PackF || H.Op == HOp::UnpackF ? 2
                                                       : 1;
}

/// (Re)builds \p B.Exec from \p B.Code: drops Dead instructions, puts a
/// CoordRun before each maximal run of two or more live coordination
/// instructions that no jump lands inside, and remaps jump targets. Call
/// it whenever Code or a Dead bit changes. A block with nothing to drop
/// or fuse costs one copy.
void lower(HostBlock &B);

/// Returns the mnemonic for \p Op.
const char *hopName(HOp Op);

/// x86-style condition suffix for \p Cc ("e", "ne", "ae", ...).
const char *hcondName(HCond Cc);

/// Maps an ARM condition index (same numeric order) to HCond.
constexpr HCond hcondFromArm(uint8_t ArmCond) {
  return static_cast<HCond>(ArmCond);
}

} // namespace host
} // namespace rdbt

#endif // RDBT_HOST_HOSTINST_H
