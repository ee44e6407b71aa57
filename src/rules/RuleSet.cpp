//===- rules/RuleSet.cpp - Rule collection and matcher ---------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "rules/RuleSet.h"

#include "dbt/CodeCacheIo.h"
#include "rules/RuleIo.h"

#include <algorithm>
#include <cassert>

using namespace rdbt;
using namespace rdbt::rules;
using arm::Opcode;
using host::HOp;

namespace {

/// The fine-index shape of a probed instruction: which PatShape a first
/// pattern must have to possibly match it. Mirrors the shapeMatches()
/// dispatch in Rule.cpp; -1 means no PatShape covers the instruction
/// (memory ops, branches, reg-shifted-by-reg operands, ...) so no rule
/// can match and the indexed path answers without touching any bucket.
int shapeOfInst(const arm::Inst &I) {
  using arm::Opcode;
  if (I.isDataProcessing()) {
    if (I.Op2.IsImm)
      return static_cast<int>(PatShape::DpImm);
    if (I.Op2.RegShift)
      return -1; // reg-shifted-by-reg: no rule shape exists
    if (I.Op2.ShiftImm == 0 && I.Op2.Shift == arm::ShiftKind::LSL)
      return static_cast<int>(PatShape::DpReg);
    return static_cast<int>(PatShape::DpRegShiftImm);
  }
  switch (I.Op) {
  case Opcode::MUL: return static_cast<int>(PatShape::Mul);
  case Opcode::MLA: return static_cast<int>(PatShape::Mla);
  case Opcode::UMULL:
  case Opcode::SMULL: return static_cast<int>(PatShape::MulLong);
  case Opcode::CLZ: return static_cast<int>(PatShape::Clz);
  default: return -1;
  }
}

/// The S key of a probed instruction (matchRule: compares count as S).
bool instSetFlags(const arm::Inst &I) {
  return I.SetFlags || I.isCompare();
}

/// Inserts \p Idx into \p Order keeping longest-pattern-first, stable
/// within equal lengths (new entries go after existing peers).
void insertByPriority(std::vector<int> &Order, int Idx,
                      const std::vector<Rule> &Rules) {
  const size_t Len = Rules[Idx].Guest.size();
  const auto Pos = std::upper_bound(
      Order.begin(), Order.end(), Len, [&Rules](size_t L, int I) {
        return L > Rules[I].Guest.size();
      });
  Order.insert(Pos, Idx);
}

} // namespace

void RuleSet::add(Rule R) {
  assert(!R.Guest.empty() && "rule without a guest pattern");
  const int Idx = static_cast<int>(Rules.size());
  Rules.push_back(std::move(R));
  const Rule &Added = Rules.back();
  insertByPriority(Priority, Idx, Rules);
  // A rule whose leading pattern is an opcode class registers under every
  // class member's fine key.
  const RulePattern &P = Added.Guest[0];
  for (const OpClassEntry &CE : Added.Classes[P.ClassIdx])
    insertByPriority(Fine[fineKey(CE.Guest, P.Shape, P.SetFlags)], Idx,
                     Rules);
  Crc.V.store(0);
}

uint32_t RuleSet::contentCrc() const {
  constexpr uint64_t Known = uint64_t{1} << 32;
  uint64_t V = Crc.V.load();
  if (!(V & Known)) {
    const std::string Text = writeRuleSet(*this);
    V = Known | dbt::crc32c(Text.data(), Text.size());
    Crc.V.store(V);
  }
  return static_cast<uint32_t>(V);
}

size_t RuleSet::match(const arm::Inst *Insts, size_t Count,
                      const Rule **MatchedRule, Binding &B,
                      MatchStats *Stats) const {
  if (Stats)
    ++Stats->Attempts;
  if (Count == 0 || !Insts[0].isValid())
    return 0;
  const int Shape = shapeOfInst(Insts[0]);
  if (Shape < 0)
    return 0;
  const auto &Bucket = Fine[fineKey(Insts[0].Op, static_cast<PatShape>(Shape),
                                    instSetFlags(Insts[0]))];
  for (const int Idx : Bucket) {
    const Rule &R = Rules[Idx];
    if (matchRule(R, Insts, Count, B)) {
      *MatchedRule = &R;
      if (Stats)
        ++Stats->Hits;
      return R.Guest.size();
    }
  }
  return 0;
}

size_t RuleSet::matchLinear(const arm::Inst *Insts, size_t Count,
                            const Rule **MatchedRule, Binding &B,
                            MatchStats *Stats) const {
  if (Stats)
    ++Stats->Attempts;
  if (Count == 0 || !Insts[0].isValid())
    return 0;
  for (const int Idx : Priority) {
    const Rule &R = Rules[Idx];
    if (matchRule(R, Insts, Count, B)) {
      *MatchedRule = &R;
      if (Stats)
        ++Stats->Hits;
      return R.Guest.size();
    }
  }
  return 0;
}

RuleSet rules::filterRuleSetByShape(const RuleSet &RS, PatShape Drop) {
  RuleSet Out;
  for (size_t I = 0; I < RS.size(); ++I)
    if (RS.rule(I).Guest[0].Shape != Drop)
      Out.add(RS.rule(I));
  return Out;
}

//===----------------------------------------------------------------------===//
// Reference rule set
//===----------------------------------------------------------------------===//

namespace {

/// Shorthand builders for the table below.
HostTemplateOp tMov(int8_t Dst, int8_t Src, bool SkipIfEq = true) {
  HostTemplateOp T;
  T.Op = HOp::Mov;
  T.Dst = Dst;
  T.Src = Src;
  T.SkipIfDstEqSrc = SkipIfEq;
  return T;
}
HostTemplateOp tMovImmP(int8_t Dst, int8_t ImmP) {
  HostTemplateOp T;
  T.Op = HOp::Mov;
  T.Dst = Dst;
  T.UseImm = true;
  T.ImmP = ImmP;
  return T;
}
HostTemplateOp tClassOp(int8_t Dst, int8_t Src, bool SFromGuest = true) {
  HostTemplateOp T;
  T.UseClassHostOp = true;
  T.Dst = Dst;
  T.Src = Src;
  T.SetFlagsFromGuest = SFromGuest;
  return T;
}
HostTemplateOp tClassOpImm(int8_t Dst, int8_t ImmP, bool SFromGuest = true) {
  HostTemplateOp T;
  T.UseClassHostOp = true;
  T.Dst = Dst;
  T.UseImm = true;
  T.ImmP = ImmP;
  T.SetFlagsFromGuest = SFromGuest;
  return T;
}
HostTemplateOp tOp(HOp Op, int8_t Dst, int8_t Src, bool SetFlags = false) {
  HostTemplateOp T;
  T.Op = Op;
  T.Dst = Dst;
  T.Src = Src;
  T.SetFlags = SetFlags;
  return T;
}
HostTemplateOp tOpImm(HOp Op, int8_t Dst, int8_t ImmP,
                      bool SetFlags = false) {
  HostTemplateOp T;
  T.Op = Op;
  T.Dst = Dst;
  T.UseImm = true;
  T.ImmP = ImmP;
  T.SetFlags = SetFlags;
  return T;
}

RulePattern pat(PatShape Shape, bool S, int8_t Rd, int8_t Rn, int8_t Rm,
                int8_t ImmP = -1) {
  RulePattern P;
  P.Shape = Shape;
  P.SetFlags = S;
  P.Rd = Rd;
  P.Rn = Rn;
  P.Rm = Rm;
  P.ImmP = ImmP;
  return P;
}

/// The shift-kind to host-opcode mapping for shifted operands.
HOp shiftHostOp(arm::ShiftKind K) {
  switch (K) {
  case arm::ShiftKind::LSL: return HOp::Shl;
  case arm::ShiftKind::LSR: return HOp::Shr;
  case arm::ShiftKind::ASR: return HOp::Sar;
  case arm::ShiftKind::ROR: return HOp::Ror;
  }
  return HOp::Shl;
}

} // namespace

const std::shared_ptr<const RuleSet> &rules::referenceRuleSet() {
  static const std::shared_ptr<const RuleSet> Shared =
      std::make_shared<const RuleSet>(buildReferenceRuleSet());
  return Shared;
}

RuleSet rules::buildReferenceRuleSet() {
  RuleSet RS;
  // Parameter conventions: P0 = rd, P1 = rn, P2 = rm, P3 = rs.

  const std::vector<OpClassEntry> AluClass = {
      {Opcode::ADD, HOp::Add}, {Opcode::SUB, HOp::Sub},
      {Opcode::AND, HOp::And}, {Opcode::ORR, HOp::Or},
      {Opcode::EOR, HOp::Xor}, {Opcode::BIC, HOp::Bic},
      {Opcode::ADC, HOp::Adc}, {Opcode::SBC, HOp::Sbc},
  };
  const std::vector<OpClassEntry> CommutativeClass = {
      {Opcode::ADD, HOp::Add},
      {Opcode::AND, HOp::And},
      {Opcode::ORR, HOp::Or},
      {Opcode::EOR, HOp::Xor},
      {Opcode::ADC, HOp::Adc},
  };
  const std::vector<OpClassEntry> CmpClass = {
      {Opcode::CMP, HOp::Cmp},
      {Opcode::CMN, HOp::Cmn},
      {Opcode::TST, HOp::Test},
  };

  for (const bool S : {false, true}) {
    // alu{s} rd, rn, rd (commutative, accumulate form) -> op rd, rn.
    {
      Rule R;
      R.Name = S ? "alu_s_acc_rr" : "alu_acc_rr";
      R.Classes = {CommutativeClass};
      R.Guest = {pat(PatShape::DpReg, S, 0, 1, 0)};
      R.Host = {tClassOp(0, 1)};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // sub{s} rd, rn, rd -> rsb-style: rd = rn - rd.
    {
      Rule R;
      R.Name = S ? "subs_acc_rr" : "sub_acc_rr";
      R.Classes = {{{Opcode::SUB, HOp::Rsb}}};
      R.Guest = {pat(PatShape::DpReg, S, 0, 1, 0)};
      R.Host = {tClassOp(0, 1)};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // alu{s} rd, rn, rm (rd != rm) -> mov rd, rn (skipped when rd == rn);
    // op rd, rm.
    {
      Rule R;
      R.Name = S ? "alu_s_rrr" : "alu_rrr";
      R.Classes = {AluClass};
      R.Guest = {pat(PatShape::DpReg, S, 0, 1, 2)};
      R.Host = {tMov(0, 1), tClassOp(0, 2)};
      R.Distinct = {{0, 2}};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // rsb{s} rd, rn, rm (rd != rm) -> mov rd, rn; rsb rd, rm.
    {
      Rule R;
      R.Name = S ? "rsbs_rrr" : "rsb_rrr";
      R.Classes = {{{Opcode::RSB, HOp::Rsb}}};
      R.Guest = {pat(PatShape::DpReg, S, 0, 1, 2)};
      R.Host = {tMov(0, 1), tClassOp(0, 2)};
      R.Distinct = {{0, 2}};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // Generic aliased fallback through the scratch register:
    // mov t2, rn; op t2, rm; mov rd, t2. Covers rd == rm for the
    // non-commutative cases the rules above reject.
    {
      Rule R;
      R.Name = S ? "alu_s_rrr_alias" : "alu_rrr_alias";
      R.Classes = {AluClass};
      R.Guest = {pat(PatShape::DpReg, S, 0, 1, 2)};
      R.Host = {tMov(OperandScratch, 1, /*SkipIfEq=*/false),
                tClassOp(OperandScratch, 2),
                tMov(0, OperandScratch, /*SkipIfEq=*/false)};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // alu{s} rd, rn, #imm -> mov rd, rn; op rd, #imm.
    {
      Rule R;
      R.Name = S ? "alu_s_rri" : "alu_rri";
      R.Classes = {AluClass};
      R.Guest = {pat(PatShape::DpImm, S, 0, 1, -1, /*ImmP=*/0)};
      R.Host = {tMov(0, 1), tClassOpImm(0, 0)};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // rsb{s} rd, rn, #imm -> mov rd, rn; rsb rd, #imm (imm - rd).
    {
      Rule R;
      R.Name = S ? "rsbs_rri" : "rsb_rri";
      R.Classes = {{{Opcode::RSB, HOp::Rsb}}};
      R.Guest = {pat(PatShape::DpImm, S, 0, 1, -1, 0)};
      R.Host = {tMov(0, 1), tClassOpImm(0, 0)};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // mov{s} rd, rm / mov{s} rd, #imm / mvn variants.
    {
      Rule R;
      R.Name = S ? "movs_rr" : "mov_rr";
      R.Classes = {{{Opcode::MOV, HOp::Mov}}};
      R.Guest = {pat(PatShape::DpReg, S, 0, -1, 1)};
      R.Host = {tMov(0, 1)};
      if (S)
        R.Host.push_back(tOp(HOp::Test, 0, 0)); // NZ only, like ARM movs
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    {
      Rule R;
      R.Name = S ? "movs_ri" : "mov_ri";
      R.Classes = {{{Opcode::MOV, HOp::Mov}}};
      R.Guest = {pat(PatShape::DpImm, S, 0, -1, -1, 0)};
      R.Host = {tMovImmP(0, 0)};
      if (S)
        R.Host.push_back(tOp(HOp::Test, 0, 0));
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    {
      Rule R;
      R.Name = S ? "mvns_rr" : "mvn_rr";
      R.Classes = {{{Opcode::MVN, HOp::Not}}};
      R.Guest = {pat(PatShape::DpReg, S, 0, -1, 1)};
      R.Host = {tMov(0, 1), tOp(HOp::Not, 0, OperandNone)};
      if (S)
        R.Host.push_back(tOp(HOp::Test, 0, 0));
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // mov{s} rd, rm, <shift> #amt -> mov rd, rm; shiftop rd, #amt.
    for (const arm::ShiftKind K :
         {arm::ShiftKind::LSL, arm::ShiftKind::LSR, arm::ShiftKind::ASR,
          arm::ShiftKind::ROR}) {
      Rule R;
      R.Name = std::string(S ? "movs_shift_" : "mov_shift_") +
               std::to_string(static_cast<int>(K));
      R.Classes = {{{Opcode::MOV, shiftHostOp(K)}}};
      RulePattern P = pat(PatShape::DpRegShiftImm, S, 0, -1, 1);
      P.Shift = K;
      P.ShAmtP = 0;
      R.Guest = {P};
      // The flag-setting host shift reproduces ARM's NZ + shifter carry.
      R.Host = {tMov(0, 1), tClassOpImm(0, 0)};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    // alu{s} rd, rn, rm <shift> #amt -> mov t2, rm; shift t2; mov rd, rn;
    // op rd, t2. For the flag-setting *logical* ops the host shift also
    // sets flags, supplying the ARM shifter carry (the final op's NZ
    // wins and its C is untouched). For flag-setting ADD/SUB the shifter
    // carry is discarded by the arithmetic flags, so the shift must not
    // set flags; ADC/SBC-with-shift consume the incoming carry and get
    // no S-form rule at all (emulate-helper fallback, as in the paper's
    // constrained-rule handling).
    const std::vector<OpClassEntry> ShiftLogical = {
        {Opcode::AND, HOp::And},
        {Opcode::ORR, HOp::Or},
        {Opcode::EOR, HOp::Xor},
        {Opcode::BIC, HOp::Bic},
    };
    const std::vector<OpClassEntry> ShiftArith = {
        {Opcode::ADD, HOp::Add},
        {Opcode::SUB, HOp::Sub},
    };
    for (const arm::ShiftKind K :
         {arm::ShiftKind::LSL, arm::ShiftKind::LSR, arm::ShiftKind::ASR,
          arm::ShiftKind::ROR}) {
      const std::vector<std::vector<OpClassEntry>> Variants =
          S ? std::vector<std::vector<OpClassEntry>>{ShiftLogical,
                                                     ShiftArith}
            : std::vector<std::vector<OpClassEntry>>{AluClass};
      unsigned V = 0;
      for (const auto &Class : Variants) {
        Rule R;
        R.Name = std::string(S ? "alu_s_shift_" : "alu_shift_") +
                 std::to_string(static_cast<int>(K)) + "_" +
                 std::to_string(V++);
        R.Classes = {Class};
        RulePattern P = pat(PatShape::DpRegShiftImm, S, 0, 1, 2);
        P.Shift = K;
        P.ShAmtP = 0;
        R.Guest = {P};
        const bool ShiftSetsFlags = S && &Class == &Variants[0] &&
                                    Variants.size() == 2;
        HostTemplateOp Shift =
            tOpImm(shiftHostOp(K), OperandScratch, 0, ShiftSetsFlags);
        R.Host = {tMov(OperandScratch, 2, /*SkipIfEq=*/false), Shift,
                  tMov(0, 1), tClassOp(0, OperandScratch)};
        R.Distinct = {{0, 2}};
        R.DefinesFlags = S;
        R.Verified = true;
        RS.add(R);
      }
    }
  }

  // Compares: cmp/cmn/tst rn, rm and rn, #imm.
  {
    Rule R;
    R.Name = "cmp_rr";
    R.Classes = {CmpClass};
    RulePattern P = pat(PatShape::DpReg, true, -1, 0, 1);
    R.Guest = {P};
    R.Host = {tClassOp(0, 1, /*SFromGuest=*/false)};
    R.DefinesFlags = true;
    R.Verified = true;
    RS.add(R);
  }
  {
    Rule R;
    R.Name = "cmp_ri";
    R.Classes = {CmpClass};
    RulePattern P = pat(PatShape::DpImm, true, -1, 0, -1, 0);
    R.Guest = {P};
    R.Host = {tClassOpImm(0, 0, /*SFromGuest=*/false)};
    R.DefinesFlags = true;
    R.Verified = true;
    RS.add(R);
  }
  // cmp/cmn rn, rm <shift> #amt (tst-with-shift needs the shifter carry
  // and stays on the fallback path).
  const std::vector<OpClassEntry> CmpShiftClass = {
      {Opcode::CMP, HOp::Cmp},
      {Opcode::CMN, HOp::Cmn},
  };
  for (const arm::ShiftKind K :
       {arm::ShiftKind::LSL, arm::ShiftKind::LSR, arm::ShiftKind::ASR}) {
    Rule R;
    R.Name = "cmp_shift_" + std::to_string(static_cast<int>(K));
    R.Classes = {CmpShiftClass};
    RulePattern P = pat(PatShape::DpRegShiftImm, true, -1, 0, 1);
    P.Shift = K;
    P.ShAmtP = 0;
    R.Guest = {P};
    R.Host = {tMov(OperandScratch, 1, false),
              tOpImm(shiftHostOp(K), OperandScratch, 0),
              tClassOp(0, OperandScratch, false)};
    R.DefinesFlags = true;
    R.Verified = true;
    RS.add(R);
  }
  // teq rn, rm -> mov t2, rn; xor t2, rm (flag-setting).
  {
    Rule R;
    R.Name = "teq_rr";
    R.Classes = {{{Opcode::TEQ, HOp::Xor}}};
    R.Guest = {pat(PatShape::DpReg, true, -1, 0, 1)};
    HostTemplateOp X = tClassOp(OperandScratch, 1, false);
    X.SetFlags = true;
    R.Host = {tMov(OperandScratch, 0, false), X};
    R.DefinesFlags = true;
    R.Verified = true;
    RS.add(R);
  }

  // Multiplies.
  for (const bool S : {false, true}) {
    {
      Rule R;
      R.Name = S ? "muls_acc" : "mul_acc"; // mul rd, rm, rd
      R.Classes = {{{Opcode::MUL, HOp::Mul}}};
      RulePattern P;
      P.Shape = PatShape::Mul;
      P.SetFlags = S;
      P.Rd = 0;
      P.Rm = 1;
      P.Rs = 0;
      R.Guest = {P};
      R.Host = {tClassOp(0, 1)};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
    {
      Rule R;
      R.Name = S ? "muls_rrr" : "mul_rrr"; // rd != rs
      R.Classes = {{{Opcode::MUL, HOp::Mul}}};
      RulePattern P;
      P.Shape = PatShape::Mul;
      P.SetFlags = S;
      P.Rd = 0;
      P.Rm = 1;
      P.Rs = 2;
      R.Guest = {P};
      R.Host = {tMov(0, 1), tClassOp(0, 2)};
      R.Distinct = {{0, 2}};
      R.DefinesFlags = S;
      R.Verified = true;
      RS.add(R);
    }
  }
  // mla rd, rm, rs, ra (non-flag-setting) via scratch.
  {
    Rule R;
    R.Name = "mla_rrrr";
    R.Classes = {{{Opcode::MLA, HOp::Mul}}};
    RulePattern P;
    P.Shape = PatShape::Mla;
    P.Rd = 0;
    P.Rm = 1;
    P.Rs = 2;
    P.Rn = 3; // accumulator
    R.Guest = {P};
    R.Host = {tMov(OperandScratch, 1, false),
              tClassOp(OperandScratch, 2, false), tMov(0, 3),
              tOp(HOp::Add, 0, OperandScratch)};
    R.Verified = true;
    RS.add(R);
  }
  // umull/smull rdlo, rdhi, rm, rs (rdlo != rs, rdlo != rm handled by
  // the mov).
  {
    Rule R;
    R.Name = "mull";
    R.Classes = {{{Opcode::UMULL, HOp::MulLU}, {Opcode::SMULL, HOp::MulLS}}};
    RulePattern P;
    P.Shape = PatShape::MulLong;
    P.Rd = 0; // rdlo
    P.Rn = 1; // rdhi
    P.Rm = 2;
    P.Rs = 3;
    R.Guest = {P};
    HostTemplateOp M;
    M.UseClassHostOp = true;
    M.Dst = 0;  // lo
    M.Src = 3;  // multiplier
    M.Src2 = 1; // hi
    R.Host = {tMov(0, 2), M};
    R.Distinct = {{0, 3}, {0, 1}};
    R.Verified = true;
    RS.add(R);
  }
  // clz rd, rm.
  {
    Rule R;
    R.Name = "clz";
    R.Classes = {{{Opcode::CLZ, HOp::Clz}}};
    RulePattern P;
    P.Shape = PatShape::Clz;
    P.Rd = 0;
    P.Rm = 1;
    R.Guest = {P};
    HostTemplateOp C;
    C.Op = HOp::Clz;
    C.Dst = 0;
    C.Src = 1;
    R.Host = {C};
    R.Verified = true;
    RS.add(R);
  }

  return RS;
}
