//===- rules/Learner.cpp - Automatic rule learning pipeline ----------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "rules/Learner.h"

#include "arm/Disasm.h"
#include "host/HostDisasm.h"
#include "rules/SymExec.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <cassert>
#include <map>

using namespace rdbt;
using namespace rdbt::rules;
using arm::Inst;
using arm::Opcode;
using host::HInst;
using host::HOp;

namespace {

/// Variable i lives in guest register i+1 / host register i+1 (the pinned
/// convention); host register 9 is the host compiler's scratch.
constexpr uint8_t varReg(uint8_t V) { return static_cast<uint8_t>(V + 1); }
constexpr uint8_t HostScratch = 9;

HOp hostOpFor(Opcode Op) {
  switch (Op) {
  case Opcode::ADD: return HOp::Add;
  case Opcode::SUB: return HOp::Sub;
  case Opcode::RSB: return HOp::Rsb;
  case Opcode::AND: return HOp::And;
  case Opcode::ORR: return HOp::Or;
  case Opcode::EOR: return HOp::Xor;
  case Opcode::BIC: return HOp::Bic;
  case Opcode::ADC: return HOp::Adc;
  case Opcode::SBC: return HOp::Sbc;
  case Opcode::CMP: return HOp::Cmp;
  case Opcode::CMN: return HOp::Cmn;
  case Opcode::TST: return HOp::Test;
  case Opcode::TEQ: return HOp::Xor;
  case Opcode::MUL: return HOp::Mul;
  case Opcode::MOV: return HOp::Mov;
  case Opcode::MVN: return HOp::Not;
  case Opcode::MLA: return HOp::Mul;
  default: return HOp::Nop;
  }
}

bool isCommutative(Opcode Op) {
  return Op == Opcode::ADD || Op == Opcode::AND || Op == Opcode::ORR ||
         Op == Opcode::EOR || Op == Opcode::ADC || Op == Opcode::MUL;
}

HOp shiftHostOp(arm::ShiftKind K) {
  switch (K) {
  case arm::ShiftKind::LSL: return HOp::Shl;
  case arm::ShiftKind::LSR: return HOp::Shr;
  case arm::ShiftKind::ASR: return HOp::Sar;
  case arm::ShiftKind::ROR: return HOp::Ror;
  }
  return HOp::Shl;
}

/// The guest-side toy compiler: one ARM instruction per statement.
bool compileGuest(const TrainStmt &S, std::vector<Inst> &Out) {
  Inst I;
  I.SetFlags = S.SetFlags;
  switch (S.K) {
  case TrainStmt::Kind::MovImm:
    if (!isArmImmediate(S.Imm))
      return false;
    I.Op = Opcode::MOV;
    I.Rd = varReg(S.D);
    I.Op2 = arm::Operand2::imm(S.Imm);
    break;
  case TrainStmt::Kind::MovVar:
    I.Op = Opcode::MOV;
    I.Rd = varReg(S.D);
    I.Op2 = arm::Operand2::reg(varReg(S.A));
    break;
  case TrainStmt::Kind::MovNot:
    I.Op = Opcode::MVN;
    I.Rd = varReg(S.D);
    I.Op2 = arm::Operand2::reg(varReg(S.A));
    break;
  case TrainStmt::Kind::Bin:
    I.Op = S.Op;
    I.Rd = varReg(S.D);
    I.Rn = varReg(S.A);
    I.Op2 = arm::Operand2::reg(varReg(S.B));
    break;
  case TrainStmt::Kind::BinImm:
    if (!isArmImmediate(S.Imm))
      return false;
    I.Op = S.Op;
    I.Rd = varReg(S.D);
    I.Rn = varReg(S.A);
    I.Op2 = arm::Operand2::imm(S.Imm);
    break;
  case TrainStmt::Kind::BinShift:
    I.Op = S.Op;
    I.Rd = varReg(S.D);
    I.Rn = varReg(S.A);
    I.Op2 = arm::Operand2::shiftedReg(varReg(S.B), S.Shift, S.ShAmt);
    break;
  case TrainStmt::Kind::Cmp:
    I.Op = S.Op;
    I.SetFlags = true;
    I.Rn = varReg(S.A);
    I.Op2 = arm::Operand2::reg(varReg(S.B));
    break;
  case TrainStmt::Kind::CmpImm:
    if (!isArmImmediate(S.Imm))
      return false;
    I.Op = S.Op;
    I.SetFlags = true;
    I.Rn = varReg(S.A);
    I.Op2 = arm::Operand2::imm(S.Imm);
    break;
  case TrainStmt::Kind::Mul:
    I.Op = Opcode::MUL;
    I.Rd = varReg(S.D);
    I.Rm = varReg(S.A);
    I.Rs = varReg(S.B);
    break;
  case TrainStmt::Kind::Mla:
    if (S.SetFlags)
      return false;
    I.Op = Opcode::MLA;
    I.Rd = varReg(S.D);
    I.Rm = varReg(S.A);
    I.Rs = varReg(S.B);
    I.Rn = varReg(S.C);
    break;
  case TrainStmt::Kind::MovShift:
    // Amount 0 is the LSR/ASR #32 encoding; outside the language.
    if (S.ShAmt == 0 || S.ShAmt > 31)
      return false;
    I.Op = Opcode::MOV;
    I.Rd = varReg(S.D);
    I.Op2 = arm::Operand2::shiftedReg(varReg(S.A), S.Shift, S.ShAmt);
    break;
  case TrainStmt::Kind::CmpShift:
    // Only the arithmetic compares: tst/teq-with-shift need the shifter
    // carry and stay on the fallback path (like the reference set).
    if (S.Op != Opcode::CMP && S.Op != Opcode::CMN)
      return false;
    if (S.ShAmt == 0 || S.ShAmt > 31)
      return false;
    I.Op = S.Op;
    I.SetFlags = true;
    I.Rn = varReg(S.A);
    I.Op2 = arm::Operand2::shiftedReg(varReg(S.B), S.Shift, S.ShAmt);
    break;
  }
  Out.push_back(I);
  return true;
}

/// The host-side toy compiler: what an optimizing x86-flavoured compiler
/// emits for the same statement (two-address form with mov elision).
bool compileHost(const TrainStmt &S, std::vector<HInst> &Out) {
  const auto Emit = [&Out](HOp Op, uint8_t Dst, uint8_t Src, bool Imm,
                           uint32_t ImmV, bool SetFlags) {
    HInst H;
    H.Op = Op;
    H.Dst = Dst;
    H.Src = Src;
    H.UseImm = Imm;
    H.Imm = static_cast<int32_t>(ImmV);
    H.SetFlags = SetFlags;
    Out.push_back(H);
  };
  const uint8_t D = varReg(S.D), A = varReg(S.A), B = varReg(S.B);

  switch (S.K) {
  case TrainStmt::Kind::MovImm:
    Emit(HOp::Mov, D, 0, true, S.Imm, false);
    if (S.SetFlags)
      Emit(HOp::Test, D, D, false, 0, false);
    return true;
  case TrainStmt::Kind::MovVar:
    if (D != A)
      Emit(HOp::Mov, D, A, false, 0, false);
    if (S.SetFlags)
      Emit(HOp::Test, D, D, false, 0, false);
    return true;
  case TrainStmt::Kind::MovNot:
    if (D != A)
      Emit(HOp::Mov, D, A, false, 0, false);
    Emit(HOp::Not, D, 0, false, 0, false);
    if (S.SetFlags)
      Emit(HOp::Test, D, D, false, 0, false);
    return true;
  case TrainStmt::Kind::Bin: {
    const HOp Op = hostOpFor(S.Op);
    if (D == A) {
      Emit(Op, D, B, false, 0, S.SetFlags);
    } else if (D == B && isCommutative(S.Op)) {
      Emit(Op, D, A, false, 0, S.SetFlags);
    } else if (D == B && S.Op == Opcode::SUB) {
      Emit(HOp::Rsb, D, A, false, 0, S.SetFlags);
    } else if (D == B) {
      Emit(HOp::Mov, HostScratch, A, false, 0, false);
      Emit(Op, HostScratch, B, false, 0, S.SetFlags);
      Emit(HOp::Mov, D, HostScratch, false, 0, false);
    } else {
      Emit(HOp::Mov, D, A, false, 0, false);
      Emit(Op, D, B, false, 0, S.SetFlags);
    }
    return true;
  }
  case TrainStmt::Kind::BinImm: {
    const HOp Op = hostOpFor(S.Op);
    if (D != A)
      Emit(HOp::Mov, D, A, false, 0, false);
    Emit(Op, D, 0, true, S.Imm, S.SetFlags);
    return true;
  }
  case TrainStmt::Kind::BinShift: {
    // mov scratch, b ; shift scratch ; mov d, a ; op d, scratch.
    const bool Logical = S.Op == Opcode::AND || S.Op == Opcode::ORR ||
                         S.Op == Opcode::EOR || S.Op == Opcode::BIC;
    if (S.SetFlags && !Logical && S.Op != Opcode::ADD &&
        S.Op != Opcode::SUB)
      return false; // adc/sbc-with-shift: compilers avoid, helper covers
    // b goes to the scratch first, so d == b clobbers nothing.
    Emit(HOp::Mov, HostScratch, B, false, 0, false);
    Emit(shiftHostOp(S.Shift), HostScratch, 0, true, S.ShAmt,
         S.SetFlags && Logical);
    if (D != A)
      Emit(HOp::Mov, D, A, false, 0, false);
    Emit(hostOpFor(S.Op), D, HostScratch, false, 0, S.SetFlags);
    return true;
  }
  case TrainStmt::Kind::Cmp:
    if (S.Op == Opcode::TEQ) {
      Emit(HOp::Mov, HostScratch, A, false, 0, false);
      Emit(HOp::Xor, HostScratch, B, false, 0, true);
      return true;
    }
    Emit(hostOpFor(S.Op), A, B, false, 0, false);
    return true;
  case TrainStmt::Kind::CmpImm:
    if (S.Op == Opcode::TEQ) {
      Emit(HOp::Mov, HostScratch, A, false, 0, false);
      Emit(HOp::Xor, HostScratch, 0, true, S.Imm, true);
      return true;
    }
    Emit(hostOpFor(S.Op), A, 0, true, S.Imm, false);
    return true;
  case TrainStmt::Kind::Mul:
    if (D == A) {
      Emit(HOp::Mul, D, B, false, 0, S.SetFlags);
    } else if (D == B) {
      Emit(HOp::Mul, D, A, false, 0, S.SetFlags);
    } else {
      Emit(HOp::Mov, D, A, false, 0, false);
      Emit(HOp::Mul, D, B, false, 0, S.SetFlags);
    }
    return true;
  case TrainStmt::Kind::Mla: {
    const uint8_t Acc = varReg(S.C);
    Emit(HOp::Mov, HostScratch, A, false, 0, false);
    Emit(HOp::Mul, HostScratch, B, false, 0, false);
    if (D != Acc)
      Emit(HOp::Mov, D, Acc, false, 0, false);
    Emit(HOp::Add, D, HostScratch, false, 0, false);
    return true;
  }
  case TrainStmt::Kind::MovShift:
    // The flag-setting host shift reproduces ARM's NZ + shifter carry.
    if (S.ShAmt == 0 || S.ShAmt > 31)
      return false;
    if (D != A)
      Emit(HOp::Mov, D, A, false, 0, false);
    Emit(shiftHostOp(S.Shift), D, 0, true, S.ShAmt, S.SetFlags);
    return true;
  case TrainStmt::Kind::CmpShift:
    if (S.Op != Opcode::CMP && S.Op != Opcode::CMN)
      return false;
    if (S.ShAmt == 0 || S.ShAmt > 31)
      return false;
    Emit(HOp::Mov, HostScratch, B, false, 0, false);
    Emit(shiftHostOp(S.Shift), HostScratch, 0, true, S.ShAmt, false);
    Emit(hostOpFor(S.Op), A, HostScratch, false, 0, false);
    return true;
  }
  return false;
}

/// Verifies guest/host fragments of one statement symbolically.
bool verifyPair(const std::vector<Inst> &Guest,
                const std::vector<HInst> &Host) {
  SymState G = SymState::initial();
  SymState H = SymState::initial();
  uint16_t Written = 0;
  bool DefsFlags = false;
  for (const Inst &I : Guest) {
    if (!symExecGuest(I, G))
      return false;
    Written |= arm::regsWritten(I);
    DefsFlags |= I.definesFlags();
  }
  for (const HInst &HI : Host)
    if (!symExecHost(HI, H))
      return false;
  // The pinned contract: every guest register below the scratch must
  // agree (rules may not corrupt registers they do not define), and the
  // flags must agree whether or not the guest defines them.
  const uint16_t Mask = 0x01FF; // r0..r8 (vars live in r1..r8)
  (void)Written;
  (void)DefsFlags;
  return statesEquivalent(G, H, Mask, /*CheckFlags=*/true);
}

/// Builds the parameterized rule from a verified statement. Register
/// parameters are assigned in order of first appearance; aliasing
/// variants are re-verified to derive Distinct constraints.
bool parameterize(const TrainStmt &S, Rule &Out) {
  std::vector<Inst> Guest;
  std::vector<HInst> Host;
  if (!compileGuest(S, Guest) || !compileHost(S, Host))
    return false;
  const Inst &I = Guest[0];

  // Parameter assignment by first appearance over (D, A, B, C).
  int8_t ParamOf[16];
  for (auto &P : ParamOf)
    P = -1;
  int8_t NextParam = 0;
  const auto ParamFor = [&](uint8_t GuestReg) -> int8_t {
    if (ParamOf[GuestReg] < 0)
      ParamOf[GuestReg] = NextParam++;
    return ParamOf[GuestReg];
  };

  RulePattern Pat;
  Pat.SetFlags = I.SetFlags || I.isCompare();
  const bool HasImm = S.K == TrainStmt::Kind::MovImm ||
                      S.K == TrainStmt::Kind::BinImm ||
                      S.K == TrainStmt::Kind::CmpImm;
  switch (S.K) {
  case TrainStmt::Kind::MovImm:
  case TrainStmt::Kind::BinImm:
  case TrainStmt::Kind::CmpImm:
    Pat.Shape = PatShape::DpImm;
    Pat.ImmP = 0;
    break;
  case TrainStmt::Kind::BinShift:
  case TrainStmt::Kind::MovShift:
  case TrainStmt::Kind::CmpShift:
    Pat.Shape = PatShape::DpRegShiftImm;
    Pat.Shift = S.Shift;
    Pat.ShAmtP = 0;
    break;
  case TrainStmt::Kind::Mul:
    Pat.Shape = PatShape::Mul;
    break;
  case TrainStmt::Kind::Mla:
    Pat.Shape = PatShape::Mla;
    break;
  default:
    Pat.Shape = PatShape::DpReg;
    break;
  }
  // Field parameters, in the matcher's binding order (Rd, Rn, Rm, Rs).
  if (!I.isCompare() &&
      !(S.K == TrainStmt::Kind::Cmp || S.K == TrainStmt::Kind::CmpImm))
    Pat.Rd = ParamFor(I.Rd);
  if (I.isDataProcessing()) {
    if (I.Op != Opcode::MOV && I.Op != Opcode::MVN)
      Pat.Rn = ParamFor(I.Rn);
    if (!I.Op2.IsImm)
      Pat.Rm = ParamFor(I.Op2.Rm);
  } else if (S.K == TrainStmt::Kind::Mul || S.K == TrainStmt::Kind::Mla) {
    Pat.Rm = ParamFor(I.Rm);
    Pat.Rs = ParamFor(I.Rs);
    if (S.K == TrainStmt::Kind::Mla)
      Pat.Rn = ParamFor(I.Rn);
  }

  Out = Rule();
  Out.Name = format("learned_%s_%d", arm::opcodeName(I.Op),
                    static_cast<int>(S.K));
  Out.Classes = {{{I.Op, hostOpFor(I.Op)}}};
  if (S.K == TrainStmt::Kind::BinShift ||
      S.K == TrainStmt::Kind::MovShift)
    Out.Classes = {{{I.Op, shiftHostOp(S.Shift)}}};
  Out.Guest = {Pat};
  Out.DefinesFlags = I.definesFlags();
  Out.Verified = true;

  // Host template: map concrete host registers back to parameters.
  for (const HInst &H : Host) {
    HostTemplateOp T;
    T.Op = H.Op;
    T.SetFlags = H.SetFlags;
    const auto MapReg = [&](uint8_t R) -> int8_t {
      if (R == HostScratch)
        return OperandScratch;
      assert(ParamOf[R] >= 0 && "host register outside the statement");
      return ParamOf[R];
    };
    if (H.Op != HOp::Not && H.Op != HOp::Neg) {
      T.Dst = MapReg(H.Dst);
      if (!H.UseImm)
        T.Src = MapReg(H.Src);
    } else {
      T.Dst = MapReg(H.Dst);
    }
    if (H.UseImm) {
      T.UseImm = true;
      if (HasImm && static_cast<uint32_t>(H.Imm) == S.Imm)
        T.ImmP = 0;
      else if ((S.K == TrainStmt::Kind::BinShift ||
                S.K == TrainStmt::Kind::MovShift ||
                S.K == TrainStmt::Kind::CmpShift) &&
               static_cast<uint32_t>(H.Imm) == S.ShAmt)
        T.ImmP = 0;
      else
        T.ImmExact = static_cast<uint32_t>(H.Imm);
    }
    Out.Host.push_back(T);
  }
  // The BinShift class host op rides in the class entry; the shift
  // itself is the literal template op, so fix the class-op user:
  if (S.K == TrainStmt::Kind::BinShift) {
    // Template: mov, shift, [mov], op — the final op uses the class.
    Out.Classes = {{{I.Op, hostOpFor(I.Op)}}};
  }

  // Aliasing audit: the learned *template* must be re-verified under
  // every binding where two register parameters collapse onto one guest
  // register (an aliased source program would have compiled to different
  // host code, so the template's safety there is not implied by the
  // original verification). Failures become Distinct constraints — the
  // learning-time counterpart of the constrained-rule conditions.
  uint8_t Vars[4] = {S.D, S.A, S.B, S.C};
  const unsigned NumVars = S.K == TrainStmt::Kind::Mla ? 4u : 3u;
  for (unsigned X = 0; X < NumVars; ++X) {
    for (unsigned Y = X + 1; Y < NumVars; ++Y) {
      if (Vars[X] == Vars[Y])
        continue;
      const int8_t Px = ParamOf[varReg(Vars[X])];
      const int8_t Py = ParamOf[varReg(Vars[Y])];
      if (Px < 0 || Py < 0 || Px == Py)
        continue;
      // Aliased guest instruction + the template instantiated with the
      // aliased binding.
      TrainStmt Alias = S;
      uint8_t *Fields[4] = {&Alias.D, &Alias.A, &Alias.B, &Alias.C};
      *Fields[Y] = *Fields[X];
      std::vector<Inst> AliasGuest;
      if (!compileGuest(Alias, AliasGuest))
        continue;
      Binding B;
      if (!matchRule(Out, AliasGuest.data(), 1, B))
        continue; // some earlier constraint already refuses it
      host::HostBlock HB;
      host::HostEmitter HE(HB);
      emitRule(Out, B, HE);
      SymState G = SymState::initial(), H = SymState::initial();
      bool Ok = true;
      for (const Inst &GI : AliasGuest)
        Ok = Ok && symExecGuest(GI, G);
      for (const HInst &HI : HB.Code)
        Ok = Ok && symExecHost(HI, H);
      Ok = Ok && statesEquivalent(G, H, 0x01FF, /*CheckFlags=*/true);
      if (!Ok)
        Out.Distinct.push_back({Px, Py});
    }
  }
  return true;
}

/// Signature for merging rules that differ only in their opcode pair.
std::string classSignature(const Rule &R) {
  std::string Sig;
  const RulePattern &P = R.Guest[0];
  Sig += format("shape%d S%d rd%d rn%d rm%d rs%d imm%d sh%d amt%d|",
                static_cast<int>(P.Shape), P.SetFlags, P.Rd, P.Rn, P.Rm,
                P.Rs, P.ImmP, static_cast<int>(P.Shift), P.ShAmtP);
  for (const HostTemplateOp &T : R.Host) {
    // The class-op position is the op matching the class entry (mov/not
    // templates stay literal so mov-rules never merge with ALU rules).
    const bool IsClassOp = !R.Classes[0].empty() &&
                           T.Op == R.Classes[0][0].Host &&
                           T.Op != HOp::Mov && T.Op != HOp::Not;
    Sig += format("[%d %d %d %d i%d %u s%d c%d]",
                  IsClassOp ? -1 : static_cast<int>(T.Op), T.Dst, T.Src,
                  T.UseImm, T.ImmP, T.ImmExact, T.SetFlags, IsClassOp);
  }
  for (const auto &D : R.Distinct)
    Sig += format("d%d-%d", D.first, D.second);
  return Sig;
}

} // namespace

LearnOutcome rules::learnFromStatement(const TrainStmt &S,
                                       std::vector<Rule> &Out) {
  LearnOutcome O;
  std::vector<Inst> Guest;
  std::vector<HInst> Host;
  if (!compileGuest(S, Guest) || !compileHost(S, Host))
    return O;
  O.Compiled = true;
  if (!verifyPair(Guest, Host))
    return O;
  O.Verified = true;
  Rule R;
  if (!parameterize(S, R))
    return O;
  O.Parameterized = true;
  Out.push_back(std::move(R));
  return O;
}

std::vector<TrainStmt> rules::buildTrainingCorpus(unsigned Count,
                                                  uint64_t Seed) {
  Rng R(Seed);
  std::vector<TrainStmt> Corpus;
  const Opcode BinOps[] = {Opcode::ADD, Opcode::SUB, Opcode::RSB,
                           Opcode::AND, Opcode::ORR, Opcode::EOR,
                           Opcode::BIC, Opcode::ADC, Opcode::SBC};
  const Opcode CmpOps[] = {Opcode::CMP, Opcode::CMN, Opcode::TST,
                           Opcode::TEQ};
  const arm::ShiftKind Shifts[] = {arm::ShiftKind::LSL, arm::ShiftKind::LSR,
                                   arm::ShiftKind::ASR,
                                   arm::ShiftKind::ROR};
  for (unsigned N = 0; N < Count; ++N) {
    TrainStmt S;
    S.K = static_cast<TrainStmt::Kind>(R.below(10));
    S.Op = BinOps[R.below(9)];
    S.SetFlags = R.chance(40);
    S.D = static_cast<uint8_t>(R.below(8));
    S.A = static_cast<uint8_t>(R.below(8));
    S.B = static_cast<uint8_t>(R.below(8));
    S.C = static_cast<uint8_t>(R.below(8));
    S.Imm = R.chance(50) ? R.below(256) : (R.below(256) << 8);
    S.Shift = Shifts[R.below(4)];
    S.ShAmt = static_cast<uint8_t>(R.range(1, 31));
    if (S.K == TrainStmt::Kind::Cmp || S.K == TrainStmt::Kind::CmpImm)
      S.Op = CmpOps[R.below(4)];
    Corpus.push_back(S);
  }
  return Corpus;
}

RuleSet rules::learnRuleSet(unsigned CorpusSize, uint64_t Seed,
                            LearnStats *Stats) {
  const std::vector<TrainStmt> Corpus = buildTrainingCorpus(CorpusSize, Seed);
  std::vector<Rule> Learned;
  LearnStats Local;
  Local.Statements = CorpusSize;
  for (const TrainStmt &S : Corpus) {
    const LearnOutcome O = learnFromStatement(S, Learned);
    if (O.Verified)
      ++Local.VerifiedPairs;
    else if (O.Compiled)
      ++Local.RejectedPairs;
  }
  Local.RulesBeforeMerge = static_cast<unsigned>(Learned.size());

  RuleSet RS = mergeLearnedRules(Learned);
  Local.RulesAfterMerge = static_cast<unsigned>(RS.size());
  if (Stats)
    *Stats = Local;
  return RS;
}

RuleSet rules::mergeLearnedRules(const std::vector<Rule> &Learned) {
  // Parameterization phase 2: merge rules identical modulo the opcode
  // pair into opcode classes, drop duplicates.
  std::map<std::string, Rule> Merged;
  for (const Rule &R : Learned) {
    const std::string Sig = classSignature(R);
    auto It = Merged.find(Sig);
    if (It == Merged.end()) {
      Merged.emplace(Sig, R);
      continue;
    }
    // Same shape: add the opcode pair to the class if new.
    bool Known = false;
    for (const OpClassEntry &CE : It->second.Classes[0])
      Known |= CE.Guest == R.Classes[0][0].Guest;
    if (!Known) {
      It->second.Classes[0].push_back(R.Classes[0][0]);
      It->second.Name += format("+%s",
                                arm::opcodeName(R.Classes[0][0].Guest));
      // Point the class-op template entries at the merged class by
      // rewriting them to UseClassHostOp.
    }
  }

  RuleSet RS;
  for (auto &[Sig, R] : Merged) {
    // Rewrite the host ops that equal the first class entry's host op to
    // UseClassHostOp so every class member instantiates correctly.
    for (HostTemplateOp &T : R.Host) {
      if (T.Op == R.Classes[0][0].Host && T.Op != HOp::Mov &&
          T.Op != HOp::Not) {
        T.UseClassHostOp = true;
      }
    }
    RS.add(R);
  }
  return RS;
}

RuleSet rules::learnFromGapSequences(
    const std::vector<std::vector<arm::Inst>> &Seqs, LearnStats *Stats,
    unsigned *Unlearnable) {
  LearnStats Local;
  unsigned Outside = 0;
  std::vector<Rule> Learned;
  for (const std::vector<arm::Inst> &Seq : Seqs) {
    for (const arm::Inst &I : Seq) {
      TrainStmt S;
      if (!statementFromInst(I, S)) {
        ++Outside;
        continue;
      }
      ++Local.Statements;
      const LearnOutcome O = learnFromStatement(S, Learned);
      if (O.Verified)
        ++Local.VerifiedPairs;
      else
        ++Local.RejectedPairs;
    }
  }
  Local.RulesBeforeMerge = static_cast<unsigned>(Learned.size());
  RuleSet RS = mergeLearnedRules(Learned);
  Local.RulesAfterMerge = static_cast<unsigned>(RS.size());
  if (Stats)
    *Stats = Local;
  if (Unlearnable)
    *Unlearnable = Outside;
  return RS;
}

bool rules::statementFromInst(const arm::Inst &I, TrainStmt &Out) {
  if (!I.isValid() || I.isSystemLevel())
    return false;

  // Register -> variable mapping by first use; the training language has
  // eight variables and never touches the PC.
  int8_t VarOf[16];
  for (int8_t &V : VarOf)
    V = -1;
  uint8_t Next = 0;
  bool Ok = true;
  const auto Var = [&](uint8_t Reg) -> uint8_t {
    if (Reg >= arm::RegPC) {
      Ok = false;
      return 0;
    }
    if (VarOf[Reg] < 0) {
      if (Next >= 8) {
        Ok = false;
        return 0;
      }
      VarOf[Reg] = static_cast<int8_t>(Next++);
    }
    return static_cast<uint8_t>(VarOf[Reg]);
  };

  TrainStmt S;
  if (I.isDataProcessing()) {
    if (I.Op2.RegShift)
      return false; // register-shifted-by-register: helper territory
    const bool Imm = I.Op2.IsImm;
    const bool Shifted = !Imm && (I.Op2.ShiftImm != 0 ||
                                  I.Op2.Shift != arm::ShiftKind::LSL);
    S.Op = I.Op;
    S.SetFlags = I.SetFlags;
    S.Shift = I.Op2.Shift;
    S.ShAmt = I.Op2.ShiftImm;
    switch (I.Op) {
    case Opcode::MOV:
      S.D = Var(I.Rd);
      if (Imm) {
        S.K = TrainStmt::Kind::MovImm;
        S.Imm = I.Op2.immValue();
      } else if (!Shifted) {
        S.K = TrainStmt::Kind::MovVar;
        S.A = Var(I.Op2.Rm);
      } else {
        S.K = TrainStmt::Kind::MovShift;
        S.A = Var(I.Op2.Rm);
      }
      break;
    case Opcode::MVN:
      if (Imm || Shifted)
        return false;
      S.K = TrainStmt::Kind::MovNot;
      S.D = Var(I.Rd);
      S.A = Var(I.Op2.Rm);
      break;
    case Opcode::CMP:
    case Opcode::CMN:
    case Opcode::TST:
    case Opcode::TEQ:
      S.SetFlags = true;
      S.A = Var(I.Rn);
      if (Imm) {
        S.K = TrainStmt::Kind::CmpImm;
        S.Imm = I.Op2.immValue();
      } else if (!Shifted) {
        S.K = TrainStmt::Kind::Cmp;
        S.B = Var(I.Op2.Rm);
      } else {
        S.K = TrainStmt::Kind::CmpShift;
        S.B = Var(I.Op2.Rm);
      }
      break;
    case Opcode::RSC:
      return false; // no host pairing in the toy compiler
    default: // the two-operand ALU group
      S.D = Var(I.Rd);
      S.A = Var(I.Rn);
      if (Imm) {
        S.K = TrainStmt::Kind::BinImm;
        S.Imm = I.Op2.immValue();
      } else if (!Shifted) {
        S.K = TrainStmt::Kind::Bin;
        S.B = Var(I.Op2.Rm);
      } else {
        S.K = TrainStmt::Kind::BinShift;
        S.B = Var(I.Op2.Rm);
      }
      break;
    }
  } else if (I.Op == Opcode::MUL) {
    S.K = TrainStmt::Kind::Mul;
    S.SetFlags = I.SetFlags;
    S.D = Var(I.Rd);
    S.A = Var(I.Rm);
    S.B = Var(I.Rs);
  } else if (I.Op == Opcode::MLA) {
    if (I.SetFlags)
      return false;
    S.K = TrainStmt::Kind::Mla;
    S.D = Var(I.Rd);
    S.A = Var(I.Rm);
    S.B = Var(I.Rs);
    S.C = Var(I.Rn);
  } else {
    // Long multiplies, CLZ, memory, branches: outside the language.
    return false;
  }
  if (!Ok)
    return false;
  Out = S;
  return true;
}

std::string rules::describeStatement(const TrainStmt &S) {
  std::vector<Inst> Guest;
  std::vector<HInst> Host;
  std::string Text;
  if (!compileGuest(S, Guest) || !compileHost(S, Host))
    return "<does not compile>";
  Text += "  guest:\n";
  for (const Inst &I : Guest)
    Text += "    " + arm::disassemble(I) + "\n";
  Text += "  host:\n";
  for (const HInst &H : Host)
    Text += "    " + host::disassemble(H) + "\n";
  return Text;
}
