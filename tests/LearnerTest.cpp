//===- tests/LearnerTest.cpp - Rule learning pipeline tests ----------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// Tests the automatic learning pipeline end to end: verification accepts
/// only semantically equivalent pairs, aliasing audits produce the right
/// Distinct constraints, parameterization covers the reference rules'
/// territory, and — the acid test — entire workloads run correctly with
/// *learned rules only*.
///
//===----------------------------------------------------------------------===//

#include "host/HostEmitter.h"
#include "rules/Learner.h"
#include "rules/SymExec.h"
#include "support/Rng.h"
#include "sys/Interpreter.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace rdbt;
using namespace rdbt::rules;

namespace {

TEST(SymExec, AddsFlagSemanticsMatchInterpreter) {
  // adds r3, r1, r2 symbolically == concrete interpreter semantics.
  arm::Inst I;
  I.Op = arm::Opcode::ADD;
  I.SetFlags = true;
  I.Rd = 3;
  I.Rn = 1;
  I.Op2 = arm::Operand2::reg(2);

  SymState S = SymState::initial();
  ASSERT_TRUE(symExecGuest(I, S));

  std::vector<uint32_t> V(NumSymVars, 0);
  V[1] = 0xFFFFFFFF;
  V[2] = 1;
  EXPECT_EQ(evalExpr(*S.Regs[3], V), 0u);
  EXPECT_EQ(evalExpr(*S.Z, V), 1u);
  EXPECT_EQ(evalExpr(*S.C, V), 1u); // carry out
  EXPECT_EQ(evalExpr(*S.V, V), 0u);

  V[1] = 0x7FFFFFFF;
  V[2] = 1;
  EXPECT_EQ(evalExpr(*S.Regs[3], V), 0x80000000u);
  EXPECT_EQ(evalExpr(*S.V, V), 1u); // signed overflow
  EXPECT_EQ(evalExpr(*S.N, V), 1u);
}

TEST(Learner, AcceptsEquivalentPair) {
  TrainStmt S;
  S.K = TrainStmt::Kind::Bin;
  S.Op = arm::Opcode::ADD;
  S.SetFlags = true;
  S.D = 2;
  S.A = 0;
  S.B = 1;
  std::vector<Rule> Out;
  const LearnOutcome O = learnFromStatement(S, Out);
  EXPECT_TRUE(O.Compiled);
  EXPECT_TRUE(O.Verified);
  EXPECT_TRUE(O.Parameterized);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(Out[0].Verified);
  EXPECT_TRUE(Out[0].DefinesFlags);
}

TEST(Learner, RejectsBrokenHostSequence) {
  // Verify the verifier: a subtraction compiled as an addition must be
  // rejected by symbolic execution.
  TrainStmt S;
  S.K = TrainStmt::Kind::Bin;
  S.Op = arm::Opcode::SUB;
  S.D = 2;
  S.A = 0;
  S.B = 1;
  std::vector<arm::Inst> Guest;
  std::vector<host::HInst> Host;
  // Compile the guest side normally, fake the host side.
  arm::Inst I;
  I.Op = arm::Opcode::SUB;
  I.Rd = 3;
  I.Rn = 1;
  I.Op2 = arm::Operand2::reg(2);
  Guest.push_back(I);
  host::HInst H;
  H.Op = host::HOp::Mov;
  H.Dst = 3;
  H.Src = 1;
  Host.push_back(H);
  H = host::HInst();
  H.Op = host::HOp::Add; // wrong op
  H.Dst = 3;
  H.Src = 2;
  Host.push_back(H);
  SymState G = SymState::initial(), Hs = SymState::initial();
  for (const arm::Inst &GI : Guest)
    ASSERT_TRUE(symExecGuest(GI, G));
  for (const host::HInst &HI : Host)
    ASSERT_TRUE(symExecHost(HI, Hs));
  EXPECT_FALSE(statesEquivalent(G, Hs, 0x1FF, true));
}

TEST(Learner, AliasingAuditAddsDistinctConstraint) {
  // sub v2 = v0 - v1 learns "mov d,a; sub d,b" which is wrong when the
  // bound d equals b; the audit must forbid that binding.
  TrainStmt S;
  S.K = TrainStmt::Kind::Bin;
  S.Op = arm::Opcode::SUB;
  S.D = 2;
  S.A = 0;
  S.B = 1;
  std::vector<Rule> Out;
  ASSERT_TRUE(learnFromStatement(S, Out).Parameterized);
  const Rule &R = Out[0];
  bool FoundDB = false;
  for (const auto &[Pa, Pb] : R.Distinct) {
    const int8_t DP = R.Guest[0].Rd, BP = R.Guest[0].Rm;
    if ((Pa == DP && Pb == BP) || (Pa == BP && Pb == DP))
      FoundDB = true;
  }
  EXPECT_TRUE(FoundDB) << "missing Distinct(rd, rm) on the sub rule";

  arm::Inst I;
  I.Op = arm::Opcode::SUB;
  I.Rd = 4;
  I.Rn = 5;
  I.Op2 = arm::Operand2::reg(4); // rd == rm
  Binding B;
  EXPECT_FALSE(matchRule(R, &I, 1, B))
      << "rule must refuse the aliased binding";
}

// add r0, r1, r0, lsl #3 writes the register it shifts. The learned
// sequence copies that register to the scratch before it writes the
// destination, so the statement learns. Its rule takes rd and rm as one
// parameter, and is right under every binding of that parameter and rn,
// aliased or not.
TEST(Learner, ShiftedOperandLearnsWhenItIsTheDestination) {
  arm::Inst I;
  I.Op = arm::Opcode::ADD;
  I.Rd = 0;
  I.Rn = 1;
  I.Op2 = arm::Operand2::shiftedReg(0, arm::ShiftKind::LSL, 3);
  TrainStmt S;
  ASSERT_TRUE(statementFromInst(I, S));
  ASSERT_TRUE(S.K == TrainStmt::Kind::BinShift);
  std::vector<Rule> Out;
  const LearnOutcome O = learnFromStatement(S, Out);
  EXPECT_TRUE(O.Compiled);
  EXPECT_TRUE(O.Verified);
  ASSERT_TRUE(O.Parameterized);
  ASSERT_EQ(1u, Out.size());
  const Rule &R = Out[0];

  unsigned Matched = 0;
  for (uint8_t Rd = 0; Rd < 3; ++Rd)
    for (uint8_t Rn = 0; Rn < 3; ++Rn)
      for (uint8_t Rm = 0; Rm < 3; ++Rm) {
        arm::Inst G = I;
        G.Rd = Rd;
        G.Rn = Rn;
        G.Op2 = arm::Operand2::shiftedReg(Rm, arm::ShiftKind::LSL, 3);
        const std::string Where = "add r" + std::to_string(Rd) + ", r" +
                                  std::to_string(Rn) + ", r" +
                                  std::to_string(Rm) + ", lsl #3";
        Binding B;
        const bool Match = matchRule(R, &G, 1, B);
        EXPECT_EQ(Rd == Rm, Match) << Where;
        if (!Match)
          continue;
        ++Matched;
        host::HostBlock HB;
        host::HostEmitter E(HB);
        emitRule(R, B, E);
        SymState Gs = SymState::initial(), Hs = SymState::initial();
        ASSERT_TRUE(symExecGuest(G, Gs)) << Where;
        for (const host::HInst &HI : HB.Code)
          ASSERT_TRUE(symExecHost(HI, Hs)) << Where;
        EXPECT_TRUE(statesEquivalent(Gs, Hs, 0x01FF, /*CheckFlags=*/true))
            << Where;
      }
  EXPECT_EQ(9u, Matched);
}

TEST(Learner, PipelineProducesMergedClasses) {
  LearnStats Stats;
  const RuleSet RS = learnRuleSet(600, 0xABCDE, &Stats);
  EXPECT_GT(Stats.VerifiedPairs, 100u);
  EXPECT_GT(Stats.RulesBeforeMerge, Stats.RulesAfterMerge)
      << "parameterization should merge opcode variants into classes";
  EXPECT_GT(RS.size(), 10u);
  // At least one rule must have grown a multi-opcode class.
  bool HasClass = false;
  for (size_t I = 0; I < RS.size(); ++I)
    HasClass = HasClass || RS.rule(I).Classes[0].size() > 1;
  EXPECT_TRUE(HasClass);
}

TEST(Learner, LearnedCoverageApproachesReference) {
  // Sample instructions that the reference set matches; the learned set
  // should cover the overwhelming majority.
  const RuleSet Ref = buildReferenceRuleSet();
  const RuleSet Learned = learnRuleSet(1200, 0x5EED1, nullptr);
  Rng R(42);
  unsigned RefHit = 0, BothHit = 0;
  for (unsigned N = 0; N < 4000; ++N) {
    arm::Inst I;
    const arm::Opcode Ops[] = {arm::Opcode::ADD, arm::Opcode::SUB,
                               arm::Opcode::AND, arm::Opcode::ORR,
                               arm::Opcode::EOR, arm::Opcode::MOV,
                               arm::Opcode::CMP, arm::Opcode::MUL};
    I.Op = Ops[R.below(8)];
    I.SetFlags = R.chance(30);
    I.Rd = static_cast<uint8_t>(R.below(8));
    I.Rn = static_cast<uint8_t>(R.below(8));
    if (I.Op == arm::Opcode::MUL) {
      I.Rm = static_cast<uint8_t>(R.below(8));
      I.Rs = static_cast<uint8_t>(R.below(8));
    } else if (R.chance(50)) {
      I.Op2 = arm::Operand2::imm(R.below(255));
    } else {
      I.Op2 = arm::Operand2::reg(static_cast<uint8_t>(R.below(8)));
    }
    Binding B;
    const rules::Rule *Rule = nullptr;
    if (Ref.match(&I, 1, &Rule, B) == 0)
      continue;
    ++RefHit;
    if (Learned.match(&I, 1, &Rule, B) != 0)
      ++BothHit;
  }
  ASSERT_GT(RefHit, 1000u);
  EXPECT_GT(BothHit * 100, RefHit * 85)
      << "learned set covers < 85% of the reference set's matches";
}

TEST(Learner, WorkloadsRunOnLearnedRulesOnly) {
  const RuleSet Learned = learnRuleSet(1200, 0x5EED1, nullptr);
  for (const char *Name : {"cpu-prime", "mcf", "sjeng"}) {
    vm::Vm Ref(vm::VmConfig()
                   .workload(Name)
                   .translator("native")
                   .wallBudget(400u * 1000 * 1000));
    ASSERT_TRUE(Ref.valid()) << Ref.error();
    const vm::RunReport RefRun = Ref.run();

    vm::Vm V(vm::VmConfig()
                 .workload(Name)
                 .translator("rule:scheduling")
                 .rules(&Learned)
                 .wallBudget(40ull * 1000 * 1000 * 1000));
    ASSERT_TRUE(V.valid()) << V.error();
    const vm::RunReport R = V.run();
    EXPECT_EQ(R.Stop, dbt::StopReason::GuestShutdown);
    EXPECT_EQ(RefRun.Console, R.Console)
        << Name << " diverged on learned rules";
    EXPECT_GT(R.RuleCoveredInstrs, R.FallbackInstrs)
        << "learned rules should cover most instructions";
  }
}

} // namespace
