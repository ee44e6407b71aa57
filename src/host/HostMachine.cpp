//===- host/HostMachine.cpp - Simulated host CPU ---------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "host/HostMachine.h"

#include "support/Bits.h"

#include <cassert>
#include <cstddef>

using std::size_t;

using namespace rdbt;
using namespace rdbt::host;

PhysPort::~PhysPort() = default;
HelperHandler::~HelperHandler() = default;
WallSink::~WallSink() = default;
CodeSource::~CodeSource() = default;

const char *host::hopName(HOp Op) {
  switch (Op) {
  case HOp::Nop: return "nop";
  case HOp::Marker: return "marker";
  case HOp::Mov: return "mov";
  case HOp::LdEnv: return "ldenv";
  case HOp::StEnv: return "stenv";
  case HOp::StEnvI: return "stenvi";
  case HOp::Add: return "add";
  case HOp::Adc: return "adc";
  case HOp::Sub: return "sub";
  case HOp::Sbc: return "sbb";
  case HOp::Rsb: return "rsb";
  case HOp::And: return "and";
  case HOp::Or: return "or";
  case HOp::Xor: return "xor";
  case HOp::Bic: return "andn";
  case HOp::Shl: return "shl";
  case HOp::Shr: return "shr";
  case HOp::Sar: return "sar";
  case HOp::Ror: return "ror";
  case HOp::Neg: return "neg";
  case HOp::Not: return "not";
  case HOp::Mul: return "imul";
  case HOp::MulLU: return "mull";
  case HOp::MulLS: return "imull";
  case HOp::Clz: return "lzcnt";
  case HOp::Cmp: return "cmp";
  case HOp::Cmn: return "cmn";
  case HOp::Test: return "test";
  case HOp::SetCc: return "set";
  case HOp::PackF: return "lahf";
  case HOp::UnpackF: return "sahf";
  case HOp::Jcc: return "j";
  case HOp::Jmp: return "jmp";
  case HOp::Probe: return "probe";
  case HOp::CallHelper: return "call";
  case HOp::ChainSlot: return "chain";
  case HOp::ExitTb: return "exit_tb";
  case HOp::CoordRun: return "coord";
  }
  return "<bad>";
}

void host::lower(HostBlock &B) {
  const std::vector<HInst> &Code = B.Code;
  std::vector<HInst> &Exec = B.Exec;
  const size_t N = Code.size();
  bool Work = false, PrevCoordination = false;
  for (const HInst &H : Code) {
    const bool Coordination = isCoordination(H);
    if (H.Dead || (PrevCoordination && Coordination)) {
      Work = true;
      break;
    }
    PrevCoordination = Coordination;
  }
  if (!Work) {
    Exec = Code;
    return;
  }

  // NewIndex[I] is where Code[I] lands in Exec (a Dead one: where the next
  // live one does). Before the pass reaches I it holds 1 if a jump lands
  // on I, and a run does not grow across such an instruction. Reused
  // across calls, so a lowering allocates nothing but Exec.
  static thread_local std::vector<int32_t> NewIndex;
  NewIndex.assign(N + 1, 0);
  for (const HInst &H : Code)
    if ((H.Op == HOp::Jcc || H.Op == HOp::Jmp) && H.Target >= 0) {
      assert(static_cast<size_t>(H.Target) < N && "jump out of the block");
      NewIndex[static_cast<size_t>(H.Target)] = 1;
    }

  Exec.clear();
  Exec.reserve(N);
  for (size_t I = 0; I < N;) {
    const bool Landing = NewIndex[I] != 0;
    NewIndex[I] = static_cast<int32_t>(Exec.size());
    const HInst &H = Code[I];
    if (H.Dead) {
      NewIndex[I + 1] |= Landing; // the jump lands on the next live one
      ++I;
      continue;
    }
    size_t End = I + 1, Live = 1;
    if (isCoordination(H))
      for (; End < N && !NewIndex[End] && Live < UINT16_MAX; ++End) {
        if (Code[End].Dead)
          continue;
        if (!isCoordination(Code[End]))
          break;
        ++Live;
      }
    if (Live < 2) {
      Exec.push_back(H);
      ++I;
      continue;
    }
    const size_t Head = Exec.size();
    Exec.emplace_back();
    unsigned Cycles[NumCostClasses] = {}, Markers = 0;
    for (; I < End; ++I) {
      const HInst &Item = Code[I];
      NewIndex[I] = static_cast<int32_t>(Head);
      if (Item.Dead)
        continue;
      Cycles[static_cast<unsigned>(Item.Cls)] += coordinationCycles(Item);
      Markers += Item.Op == HOp::Marker;
      Exec.push_back(Item);
    }
    HInst &Run = Exec[Head];
    Run.Op = HOp::CoordRun;
    Run.Cls = CostClass::Sync;
    Run.Slot = static_cast<uint16_t>(Live);
    Run.Imm = static_cast<int32_t>(Cycles[unsigned(CostClass::Sync)]);
    Run.Target = static_cast<int32_t>(Cycles[unsigned(CostClass::Glue)]);
    Run.Helper = static_cast<uint16_t>(Markers);
  }
  NewIndex[N] = static_cast<int32_t>(Exec.size());
  for (HInst &H : Exec)
    if ((H.Op == HOp::Jcc || H.Op == HOp::Jmp) && H.Target >= 0)
      H.Target = NewIndex[static_cast<size_t>(H.Target)];
}

const char *host::hcondName(HCond Cc) {
  switch (Cc) {
  case HCond::Eq: return "e";
  case HCond::Ne: return "ne";
  case HCond::Cs: return "ae";
  case HCond::Cc: return "b";
  case HCond::Mi: return "s";
  case HCond::Pl: return "ns";
  case HCond::Vs: return "o";
  case HCond::Vc: return "no";
  case HCond::Hi: return "a";
  case HCond::Ls: return "be";
  case HCond::Ge: return "ge";
  case HCond::Lt: return "l";
  case HCond::Gt: return "g";
  case HCond::Le: return "le";
  case HCond::Al: return "mp";
  }
  return "?";
}

HostMachine::HostMachine(uint32_t *EnvWords, uint32_t Size, PhysPort &M,
                         HelperHandler &H, WallSink &W, uint16_t MmuSlot,
                         uint32_t TlbBase, uint32_t EntryWords,
                         uint32_t HalfEntries)
    : Env(EnvWords), EnvSize(Size), Mem(M), Helpers(H), Wall(W),
      MmuIdxSlot(MmuSlot), TlbBaseSlot(TlbBase), TlbEntryWords(EntryWords),
      TlbHalfEntries(HalfEntries) {
  assert((HalfEntries & (HalfEntries - 1)) == 0 && "TLB index is a mask");
}

uint32_t HostMachine::packedFlags() const {
  return (FN ? 1u << 31 : 0) | (FZ ? 1u << 30 : 0) | (FC ? 1u << 29 : 0) |
         (FV ? 1u << 28 : 0);
}

void HostMachine::setPackedFlags(uint32_t Nzcv) {
  FN = (Nzcv >> 31) & 1;
  FZ = (Nzcv >> 30) & 1;
  FC = (Nzcv >> 29) & 1;
  FV = (Nzcv >> 28) & 1;
}

void HostMachine::charge(const HInst &H, uint64_t Cost) {
  Counters.Wall += Cost;
  Counters.ByClass[static_cast<unsigned>(H.Cls)] += Cost;
  if (Counters.Wall >= NextDeadline)
    NextDeadline = Wall.onWall(Counters.Wall);
}

uint32_t HostMachine::tlbWord(uint32_t Index, uint32_t FieldWord) const {
  const uint32_t MmuIdx = Env[MmuIdxSlot];
  const uint32_t Slot = TlbBaseSlot +
                        MmuIdx * TlbHalfEntries * TlbEntryWords +
                        Index * TlbEntryWords + FieldWord;
  assert(Slot < EnvSize && "TLB slot out of env");
  return Env[Slot];
}

// The probe's RAM access at t1. It runs only after a TLB hit, and the TLB
// tags whole RAM pages only, so the page pointers cover every address it
// sees; a misaligned access never hits, so none crosses a page end.
inline void HostMachine::probeAccess(const HInst &H) {
  const uint32_t Pa = R_[ScratchReg1];
  assert(Pa >> PhysPort::PageShift < Mem.NumPages &&
         (Pa & PhysPort::PageMask) + H.Size <= PhysPort::PageMask + 1 &&
         "a probe hit must stay inside one RAM page");
  const uint32_t Page = Pa >> PhysPort::PageShift;
  const uint32_t Offset = Pa & PhysPort::PageMask;
  if (!H.AccIsWrite)
    R_[H.Dst] = loadLe(Mem.ReadPages[Page] + Offset, H.Size);
  else if (uint8_t *Bytes = Mem.WritePages[Page])
    storeLe(Bytes + Offset, H.Size, R_[H.Dst]);
  else
    Mem.write(Pa, H.Size, R_[H.Dst]);
}

// The probe one instruction at a time, for a miss and for a hit that a
// device deadline or the runaway guard lands inside: each instruction of
// the sequence in SoftmmuEmit.h is counted, charged and applied where it
// stood, so onWall sees the same Now, and RAM the same order, as with 12
// separate ops.
#if defined(__GNUC__)
__attribute__((noinline, cold))
#endif
HostMachine::ProbeEnd HostMachine::probeStepwise(const HInst &H,
                                                 uint64_t &Executed) {
  uint32_t &T0 = R_[ScratchReg0], &T1 = R_[ScratchReg1];
  for (unsigned Step = 1; Step <= ProbeHitCycles; ++Step) {
    if (Step > 1 && ++Executed > MaxInstrsPerRun)
      return ProbeEnd::Runaway;
    charge(H, 1);
    switch (Step) {
    case 1: T0 = R_[H.Src]; break;
    case 2: T0 >>= PhysPort::PageShift; break;
    case 3: T1 = T0; break;
    case 4: T1 &= TlbHalfEntries - 1; break;
    case 5: { // cmp vpn|align, tag: flags = tag - key, as x86 sets them
      const uint32_t Tag = tlbWord(T1, H.AccIsWrite);
      const uint32_t Key = T0 | (R_[H.Src] & (H.Size - 1u)) << 20;
      const uint32_t Diff = Tag - Key;
      FN = Diff >> 31;
      FZ = Diff == 0;
      FC = Tag >= Key;
      FV = (((Tag ^ Key) & (Tag ^ Diff)) >> 31) & 1;
      break;
    }
    case 6:
      if (!FZ)
        return ProbeEnd::Miss;
      break;
    case 7: T1 = tlbWord(T1, 2); break;
    case 8: T0 = R_[H.Src]; break;
    case 9: T0 &= PhysPort::PageMask; break;
    case 10: T1 |= T0; break;
    case 11: probeAccess(H); break;
    }
  }
  return ProbeEnd::Hit;
}

// A coordination run one instruction at a time, for a run that a device
// deadline or the runaway guard lands inside: each instruction is
// counted, charged and applied where it stood, so onWall sees the same
// Now and env as with separate ops. The caller counted the first one.
#if defined(__GNUC__)
__attribute__((noinline, cold))
#endif
bool HostMachine::coordStepwise(const HInst *Run, unsigned N,
                                uint64_t &Executed) {
  for (unsigned K = 0; K < N; ++K) {
    const HInst &H = Run[K];
    if (K > 0 && ++Executed > MaxInstrsPerRun)
      return false;
    if (H.Op == HOp::Marker)
      ++Counters.SyncOps;
    else
      charge(H, coordinationCycles(H));
    applyCoordination(H);
  }
  return true;
}

// Aligned so the dispatch loop keeps its offset within 64-byte fetch
// windows when unrelated code changes size: an 80-byte shift of this
// function alone cost the qemu and rule kinds 4-12% ns per guest
// instruction.
#if defined(__GNUC__)
__attribute__((aligned(64)))
#endif
RunResult HostMachine::run(const CodeSource &Src, int StartTb) {
  const HostBlock *B = Src.block(StartTb);
  int CurTb = StartTb;
  assert(B && "starting TB not in code cache");
  // B's executed form. A local, so the compiler keeps it in a register:
  // loading B->Exec's data pointer on every dispatch instead cost qemu 9%.
  const HInst *Ops = B->Exec.data();
  size_t I = 0;
  uint64_t Executed = 0;

  auto EnterBlock = [this](const HostBlock *Blk, int Tb) {
    ++Counters.TbEntries;
    Counters.GuestInstrs += Blk->NumGuestInstrs;
    Counters.GuestMemInstrs += Blk->NumMemInstrs;
    Counters.GuestSysInstrs += Blk->NumSysInstrs;
    Counters.IrqChecks += Blk->NumIrqChecks;
    if (TbExecs) {
      if (static_cast<size_t>(Tb) >= TbExecs->size())
        TbExecs->resize(Tb + 1, 0);
      ++(*TbExecs)[Tb];
    }
  };
  EnterBlock(B, StartTb);

  while (true) {
    assert(I < B->Exec.size() && "fell off the end of a host block");
    const HInst &H = Ops[I];
    if (++Executed > MaxInstrsPerRun)
      return {ExitReason::Shutdown, 0, CurTb, 0};

    switch (H.Op) {
    case HOp::Nop:
      charge(H, 1);
      break;
    case HOp::Marker:
      if (static_cast<MarkerKind>(H.Imm) == MarkerKind::SyncOp)
        ++Counters.SyncOps;
      break;
    case HOp::Mov:
      charge(H, 1);
      R_[H.Dst] = aluOperand(H);
      break;
    case HOp::LdEnv:
      charge(H, 1);
      assert(H.Slot < EnvSize);
      R_[H.Dst] = Env[H.Slot];
      break;
    case HOp::StEnv:
      charge(H, 1);
      assert(H.Slot < EnvSize);
      Env[H.Slot] = R_[H.Src];
      break;
    case HOp::StEnvI:
      charge(H, 1);
      assert(H.Slot < EnvSize);
      Env[H.Slot] = static_cast<uint32_t>(H.Imm);
      break;

    case HOp::Add:
    case HOp::Adc:
    case HOp::Sub:
    case HOp::Sbc:
    case HOp::Rsb:
    case HOp::Cmp:
    case HOp::Cmn: {
      charge(H, 1);
      const uint32_t A = R_[H.Dst];
      const uint32_t Bv = aluOperand(H);
      uint32_t Lhs = A, Rhs = Bv, CarryIn = 0;
      switch (H.Op) {
      case HOp::Add:
      case HOp::Cmn:
        break;
      case HOp::Adc:
        CarryIn = FC;
        break;
      case HOp::Sub:
      case HOp::Cmp:
        Rhs = ~Bv;
        CarryIn = 1;
        break;
      case HOp::Sbc:
        Rhs = ~Bv;
        CarryIn = FC;
        break;
      case HOp::Rsb:
        Lhs = Bv;
        Rhs = ~A;
        CarryIn = 1;
        break;
      default:
        break;
      }
      const uint64_t Wide =
          static_cast<uint64_t>(Lhs) + static_cast<uint64_t>(Rhs) + CarryIn;
      const uint32_t Result = static_cast<uint32_t>(Wide);
      if (H.SetFlags || H.Op == HOp::Cmp || H.Op == HOp::Cmn) {
        FN = Result >> 31;
        FZ = Result == 0;
        FC = Wide != Result;
        const int64_t SWide =
            static_cast<int64_t>(static_cast<int32_t>(Lhs)) +
            static_cast<int64_t>(static_cast<int32_t>(Rhs)) + CarryIn;
        FV = SWide != static_cast<int32_t>(Result);
      }
      if (H.Op != HOp::Cmp && H.Op != HOp::Cmn)
        R_[H.Dst] = Result;
      break;
    }

    case HOp::And:
    case HOp::Or:
    case HOp::Xor:
    case HOp::Bic:
    case HOp::Test: {
      charge(H, 1);
      const uint32_t A = R_[H.Dst];
      const uint32_t Bv = aluOperand(H);
      uint32_t Result = 0;
      switch (H.Op) {
      case HOp::And:
      case HOp::Test:
        Result = A & Bv;
        break;
      case HOp::Or:
        Result = A | Bv;
        break;
      case HOp::Xor:
        Result = A ^ Bv;
        break;
      case HOp::Bic:
        Result = A & ~Bv;
        break;
      default:
        break;
      }
      if (H.SetFlags || H.Op == HOp::Test) {
        FN = Result >> 31;
        FZ = Result == 0;
      }
      if (H.Op != HOp::Test)
        R_[H.Dst] = Result;
      break;
    }

    case HOp::Shl:
    case HOp::Shr:
    case HOp::Sar:
    case HOp::Ror: {
      charge(H, 1);
      const uint32_t A = R_[H.Dst];
      const uint32_t Amount = aluOperand(H) & 0xFF;
      uint32_t Result = A;
      bool CarryOut = FC;
      if (Amount != 0) {
        const unsigned Amt = Amount > 32 ? 32 : Amount;
        switch (H.Op) {
        case HOp::Shl:
          Result = Amount >= 32 ? 0 : A << Amount;
          CarryOut = Amount > 32 ? 0 : (A >> (32 - Amt)) & 1;
          break;
        case HOp::Shr:
          Result = Amount >= 32 ? 0 : A >> Amount;
          CarryOut = Amount > 32 ? 0 : (A >> (Amt - 1)) & 1;
          break;
        case HOp::Sar: {
          const unsigned Eff = Amount >= 32 ? 31 : Amount;
          Result = static_cast<uint32_t>(static_cast<int32_t>(A) >>
                                         static_cast<int32_t>(Eff));
          if (Amount >= 32)
            Result = A >> 31 ? 0xFFFFFFFFu : 0;
          CarryOut = Amount >= 32 ? (A >> 31) & 1 : (A >> (Amount - 1)) & 1;
          break;
        }
        case HOp::Ror:
          Result = rotr32(A, Amount);
          CarryOut = (Result >> 31) & 1;
          break;
        default:
          break;
        }
        if (H.SetFlags) {
          FN = Result >> 31;
          FZ = Result == 0;
          FC = CarryOut;
        }
      }
      R_[H.Dst] = Result;
      break;
    }

    case HOp::Neg:
      charge(H, 1);
      R_[H.Dst] = 0u - R_[H.Dst];
      if (H.SetFlags) {
        FN = R_[H.Dst] >> 31;
        FZ = R_[H.Dst] == 0;
      }
      break;
    case HOp::Not:
      charge(H, 1);
      R_[H.Dst] = ~R_[H.Dst];
      break;
    case HOp::Mul: {
      charge(H, 1);
      const uint32_t Result = R_[H.Dst] * aluOperand(H);
      R_[H.Dst] = Result;
      if (H.SetFlags) {
        FN = Result >> 31;
        FZ = Result == 0;
      }
      break;
    }
    case HOp::MulLU:
    case HOp::MulLS: {
      charge(H, 1);
      uint64_t Wide;
      if (H.Op == HOp::MulLU)
        Wide = static_cast<uint64_t>(R_[H.Dst]) *
               static_cast<uint64_t>(R_[H.Src]);
      else
        Wide = static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int32_t>(R_[H.Dst])) *
            static_cast<int64_t>(static_cast<int32_t>(R_[H.Src])));
      R_[H.Dst] = static_cast<uint32_t>(Wide);
      R_[H.Src2] = static_cast<uint32_t>(Wide >> 32);
      if (H.SetFlags) {
        FN = (Wide >> 63) & 1;
        FZ = Wide == 0;
      }
      break;
    }
    case HOp::Clz:
      charge(H, 1);
      R_[H.Dst] = countLeadingZeros32(R_[H.Src]);
      break;

    case HOp::SetCc:
      charge(H, 1);
      R_[H.Dst] = holds(H.Cc) ? 1u : 0u;
      break;
    case HOp::PackF:
      charge(H, 2);
      R_[H.Dst] = packedFlags();
      break;
    case HOp::UnpackF:
      charge(H, 2);
      setPackedFlags(R_[H.Dst]);
      break;

    case HOp::Jcc:
      charge(H, 1);
      if (holds(H.Cc)) {
        assert(H.Target >= 0 && "unresolved jump target");
        I = static_cast<size_t>(H.Target);
        continue;
      }
      break;
    case HOp::Jmp:
      charge(H, 1);
      assert(H.Target >= 0 && "unresolved jump target");
      I = static_cast<size_t>(H.Target);
      continue;

    // A hit is charged in bulk unless a deadline or the runaway guard
    // lands inside it; that, and every miss, runs probeStepwise.
    // Alignment bits land above any VPN: a misaligned access never hits.
    case HOp::Probe: {
      const uint32_t Addr = R_[H.Src];
      const uint32_t Vpn = Addr >> PhysPort::PageShift;
      const uint32_t Index = Vpn & (TlbHalfEntries - 1);
      if (tlbWord(Index, H.AccIsWrite) !=
              (Vpn | (Addr & (H.Size - 1u)) << 20) ||
          Counters.Wall + ProbeHitCycles >= NextDeadline ||
          Executed + (ProbeHitCycles - 1) > MaxInstrsPerRun) {
        const ProbeEnd End = probeStepwise(H, Executed);
        if (End == ProbeEnd::Runaway)
          return {ExitReason::Shutdown, 0, CurTb, 0};
        I += End == ProbeEnd::Hit ? 2 : 1; // a hit skips the CallHelper
        continue;
      }
      Counters.Wall += ProbeHitCycles;
      Counters.ByClass[static_cast<unsigned>(H.Cls)] += ProbeHitCycles;
      Executed += ProbeHitCycles - 1;
      FN = FV = false; // tag == key
      FZ = FC = true;
      R_[ScratchReg0] = Addr & PhysPort::PageMask;
      R_[ScratchReg1] = tlbWord(Index, 2) | R_[ScratchReg0];
      probeAccess(H); // writes a loaded data register last
      I += 2;
      continue;
    }

    case HOp::CallHelper: {
      charge(H, 3); // call + ret + argument setup
      ++Counters.HelperCalls;
      HelperHandler::Outcome Out =
          Helpers.call(H.Helper, R_[H.Src], R_[H.Src2], H.GuestPc);
      charge(H, Out.Cost);
      if (Out.HasResult)
        R_[H.Dst] = Out.Result;
      if (Out.Exit)
        return {Out.Reason, 0, CurTb, 0};
      break;
    }

    case HOp::ChainSlot: {
      charge(H, 1); // the direct jump (patched, or falls to the epilogue)
      const int Slot = H.Imm;
      const HostBlock::Chain &Ch = B->Chains[Slot];
      if (Ch.TargetTb < 0)
        break; // unresolved: fall through into the exit epilogue
      CurTb = Ch.TargetTb;
      B = Src.block(CurTb);
      assert(B && "chained to a flushed TB");
      Ops = B->Exec.data();
      I = 0;
      ++Counters.ChainFollows;
      EnterBlock(B, CurTb);
      continue;
    }

    case HOp::ExitTb: {
      charge(H, 1);
      const auto Reason = static_cast<ExitReason>(H.Imm);
      // For NeedTranslate exits the chain slot to patch rides in Src and
      // the target guest PC was stored to the env PC by the exit glue.
      return {Reason, 0, CurTb, H.Src};
    }

    // A run is charged in bulk unless a deadline or the runaway guard
    // lands inside it; then coordStepwise runs it.
    case HOp::CoordRun: {
      const uint32_t Sync = static_cast<uint32_t>(H.Imm);
      const uint32_t Glue = static_cast<uint32_t>(H.Target);
      if (Counters.Wall + Sync + Glue >= NextDeadline ||
          Executed + (H.Slot - 1u) > MaxInstrsPerRun) {
        if (!coordStepwise(&H + 1, H.Slot, Executed))
          return {ExitReason::Shutdown, 0, CurTb, 0};
      } else {
        Counters.Wall += Sync + Glue;
        Counters.ByClass[static_cast<unsigned>(CostClass::Sync)] += Sync;
        Counters.ByClass[static_cast<unsigned>(CostClass::Glue)] += Glue;
        Counters.SyncOps += H.Helper;
        Executed += H.Slot - 1u;
        for (const HInst *It = &H + 1, *End = It + H.Slot; It != End; ++It)
          applyCoordination(*It);
      }
      I += H.Slot + 1u;
      continue;
    }
    }
    ++I;
  }
}
