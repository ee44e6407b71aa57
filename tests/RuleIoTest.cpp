//===- tests/RuleIoTest.cpp - Rule persistence and gap mining tests ---------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The learn -> persist -> deploy loop's contracts: rule files round-trip
/// both byte-identically (canonical writer) and semantically (same match
/// results over a randomized instruction corpus), gap reports round-trip,
/// the GapMiner normalizes and aggregates miss sequences and accumulates
/// dynamic weight through the Vm facade, mined gaps feed back through the
/// learner, and the "rule:file=<path>" kind deploys a persisted corpus.
///
//===----------------------------------------------------------------------===//

#include "ProbeStream.h"
#include "profile/GapMiner.h"
#include "rules/Learner.h"
#include "rules/RuleIo.h"
#include "support/Rng.h"
#include "vm/Vm.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace rdbt;
using namespace rdbt::rules;
using arm::Opcode;

namespace {

//===----------------------------------------------------------------------===//
// Rule-file round-trips
//===----------------------------------------------------------------------===//

TEST(RuleIo, ReferenceCorpusRoundTripsByteIdentically) {
  const RuleSet Ref = buildReferenceRuleSet();
  const std::string Text = writeRuleSet(Ref);

  RuleSet Back;
  std::string Err;
  ASSERT_TRUE(readRuleSet(Text, Back, &Err)) << Err;
  EXPECT_EQ(Back.size(), Ref.size());
  EXPECT_EQ(writeRuleSet(Back), Text)
      << "re-serialization must be byte-identical";
}

TEST(RuleIo, LearnedCorpusRoundTripsByteIdentically) {
  // The learned set exercises merged multi-opcode classes, Distinct
  // constraints, and UseClassHostOp templates.
  const RuleSet Learned = learnRuleSet(800, 0x5EED1, nullptr);
  ASSERT_GT(Learned.size(), 10u);
  const std::string Text = writeRuleSet(Learned);
  RuleSet Back;
  std::string Err;
  ASSERT_TRUE(readRuleSet(Text, Back, &Err)) << Err;
  EXPECT_EQ(writeRuleSet(Back), Text);
}

/// Random single instructions in the shapes rules can cover — the same
/// sampling the differential-fuzz generator uses for its ALU mix.
arm::Inst randomCoverableInst(Rng &R) {
  arm::Inst I;
  const Opcode Ops[] = {Opcode::ADD, Opcode::SUB, Opcode::RSB,
                        Opcode::AND, Opcode::ORR, Opcode::EOR,
                        Opcode::BIC, Opcode::ADC, Opcode::SBC,
                        Opcode::MOV, Opcode::MVN, Opcode::CMP,
                        Opcode::CMN, Opcode::TST, Opcode::TEQ,
                        Opcode::MUL, Opcode::MLA, Opcode::CLZ};
  I.Op = Ops[R.below(18)];
  I.SetFlags = R.chance(40);
  I.Rd = static_cast<uint8_t>(R.below(13));
  I.Rn = static_cast<uint8_t>(R.below(13));
  I.Rm = static_cast<uint8_t>(R.below(13));
  I.Rs = static_cast<uint8_t>(R.below(13));
  switch (R.below(3)) {
  case 0:
    I.Op2 = arm::Operand2::imm(R.below(256));
    break;
  case 1:
    I.Op2 = arm::Operand2::reg(static_cast<uint8_t>(R.below(13)));
    break;
  default:
    I.Op2 = arm::Operand2::shiftedReg(
        static_cast<uint8_t>(R.below(13)),
        static_cast<arm::ShiftKind>(R.below(4)),
        static_cast<uint8_t>(R.range(1, 31)));
    break;
  }
  return I;
}

TEST(RuleIo, ReloadedCorpusMatchesIdentically) {
  const RuleSet Ref = buildReferenceRuleSet();
  RuleSet Back;
  std::string Err;
  ASSERT_TRUE(readRuleSet(writeRuleSet(Ref), Back, &Err)) << Err;

  Rng R(0xD1FF);
  unsigned Matches = 0;
  for (unsigned N = 0; N < 6000; ++N) {
    const arm::Inst I = randomCoverableInst(R);
    const Rule *RuleA = nullptr, *RuleB = nullptr;
    Binding BA, BB;
    const size_t A = Ref.match(&I, 1, &RuleA, BA);
    const size_t B = Back.match(&I, 1, &RuleB, BB);
    ASSERT_EQ(A, B) << "consumed count diverged";
    if (A == 0)
      continue;
    ++Matches;
    ASSERT_EQ(RuleA->Name, RuleB->Name);
    EXPECT_EQ(BA.ClassEntry, BB.ClassEntry);
    EXPECT_EQ(BA.SetFlags, BB.SetFlags);
    for (unsigned P = 0; P < MaxRegParams; ++P)
      EXPECT_EQ(BA.Reg[P], BB.Reg[P]);
    for (unsigned P = 0; P < MaxImmParams; ++P)
      EXPECT_EQ(BA.Imm[P], BB.Imm[P]);
  }
  EXPECT_GT(Matches, 2000u) << "sampling should exercise the corpus";
}

TEST(RuleIo, HeaderProvenanceRoundTrips) {
  RuleSet RS;
  {
    Rule R;
    R.Name = "probe rule +with spaces";
    R.Classes = {{{Opcode::ADD, host::HOp::Add}}};
    RulePattern P;
    P.Shape = PatShape::DpReg;
    P.Rd = 0;
    P.Rn = 1;
    P.Rm = 2;
    R.Guest = {P};
    HostTemplateOp T;
    T.UseClassHostOp = true;
    T.Dst = 0;
    T.Src = 2;
    R.Host = {T};
    R.Distinct = {{0, 2}};
    R.SourceLine = 17;
    R.Verified = true;
    RS.add(R);
  }
  RuleFileInfo Info;
  Info.Origin = "rdbt_rulegen learn gaps.txt (mined from rule/mcf@2)";
  Info.HasStats = true;
  Info.Stats.Statements = 12;
  Info.Stats.VerifiedPairs = 9;
  Info.Stats.RejectedPairs = 3;
  Info.Stats.RulesBeforeMerge = 9;
  Info.Stats.RulesAfterMerge = 4;

  const std::string Text = writeRuleSet(RS, &Info);
  RuleSet Back;
  RuleFileInfo InfoBack;
  std::string Err;
  ASSERT_TRUE(readRuleSet(Text, Back, &Err, &InfoBack)) << Err;
  EXPECT_EQ(InfoBack.Origin, Info.Origin);
  ASSERT_TRUE(InfoBack.HasStats);
  EXPECT_EQ(InfoBack.Stats.Statements, 12u);
  EXPECT_EQ(InfoBack.Stats.VerifiedPairs, 9u);
  EXPECT_EQ(InfoBack.Stats.RejectedPairs, 3u);
  EXPECT_EQ(InfoBack.Stats.RulesBeforeMerge, 9u);
  EXPECT_EQ(InfoBack.Stats.RulesAfterMerge, 4u);
  EXPECT_EQ(Back.rule(0).Name, "probe rule +with spaces");
  EXPECT_EQ(Back.rule(0).SourceLine, 17);
  EXPECT_EQ(writeRuleSet(Back, &InfoBack), Text);
}

TEST(RuleIo, RejectsMalformedInput) {
  RuleSet RS;
  std::string Err;

  EXPECT_FALSE(readRuleSet("", RS, &Err));
  EXPECT_FALSE(readRuleSet("ruledbt-rules v999\n", RS, &Err));
  EXPECT_NE(Err.find("v1"), std::string::npos) << Err;

  // Unterminated rule.
  EXPECT_FALSE(readRuleSet("ruledbt-rules v1\nrule x\n", RS, &Err));
  EXPECT_NE(Err.find("end"), std::string::npos) << Err;

  // Unknown opcode in a class.
  EXPECT_FALSE(readRuleSet("ruledbt-rules v1\nrule x\nclass zzz:add\n"
                           "pat shape=dp-reg\nend\n",
                           RS, &Err));

  // Pattern without a class (RuleSet::add's assert must stay unreachable).
  EXPECT_FALSE(
      readRuleSet("ruledbt-rules v1\nrule x\npat shape=dp-reg\nend\n", RS,
                  &Err));

  // Class index out of range.
  EXPECT_FALSE(readRuleSet("ruledbt-rules v1\nrule x\nclass add:add\n"
                           "pat shape=dp-reg cls=3\nend\n",
                           RS, &Err));

  // Register parameter out of range.
  EXPECT_FALSE(readRuleSet("ruledbt-rules v1\nrule x\nclass add:add\n"
                           "pat shape=dp-reg rd=9\nend\n",
                           RS, &Err));

  // A distinct pair outside the parameter range must be rejected, not
  // narrowed into a different constraint.
  EXPECT_FALSE(readRuleSet("ruledbt-rules v1\nrule x\nclass sub:sub\n"
                           "distinct 256:2\npat shape=dp-reg rd=0 rn=1 "
                           "rm=2\nend\n",
                           RS, &Err));
  EXPECT_NE(Err.find("distinct"), std::string::npos) << Err;

  // A skip-eq template compares its bound dst and src registers, so both
  // must name one; -1 (none) would index the binding at -1 when emitted.
  EXPECT_FALSE(readRuleSet("ruledbt-rules v1\nrule bad_skip\nclass add:add\n"
                           "pat shape=dp-reg rd=0 rn=1 rm=2\n"
                           "tpl op=mov dst=-1 src=1 skip-eq=1\nend\n",
                           RS, &Err));
  EXPECT_NE(Err.find("bad_skip"), std::string::npos) << Err;
  EXPECT_NE(Err.find("skip-eq"), std::string::npos) << Err;
  EXPECT_FALSE(readRuleSet("ruledbt-rules v1\nrule x\nclass add:add\n"
                           "pat shape=dp-reg rd=0 rn=1 rm=2\n"
                           "tpl op=mov dst=0 skip-eq=1\nend\n",
                           RS, &Err));

  // Odd-whitespace lines (form feed, vertical tab) are blank, not UB.
  RuleSet Odd;
  EXPECT_TRUE(readRuleSet("ruledbt-rules v1\n\f\n\v\n", Odd, &Err)) << Err;
  EXPECT_EQ(Odd.size(), 0u);

  // A failed parse must leave the output untouched.
  const RuleSet Ref = buildReferenceRuleSet();
  RuleSet Keep;
  ASSERT_TRUE(readRuleSet(writeRuleSet(Ref), Keep, &Err));
  const size_t Size = Keep.size();
  EXPECT_FALSE(readRuleSet("garbage", Keep, &Err));
  EXPECT_EQ(Keep.size(), Size);
}

/// The mutation corpus: every key=value token of the written reference
/// corpus, set in turn to each edge value. A mutant must either be
/// rejected, or load and then match and emit the probe stream cleanly
/// (the sanitizer builds turn any out-of-range access into a failure).
/// Each mutant is one rule block under the file header — a token only
/// ever changes its own rule — which keeps the sweep fast.
TEST(RuleIo, MutatedRuleFilesRejectOrEmitCleanly) {
  const RuleSet Ref = buildReferenceRuleSet();
  const std::string Text = writeRuleSet(Ref);
  const std::string Header = Text.substr(0, Text.find('\n') + 1);
  std::vector<std::string> Blocks;
  for (size_t At = Text.find("rule "); At != std::string::npos;) {
    const size_t End = Text.find("end\n", At) + 4;
    Blocks.push_back(Text.substr(At, End - At));
    At = Text.find("rule ", End);
  }
  ASSERT_EQ(Blocks.size(), Ref.size());

  const std::vector<arm::Inst> &Insts = tests::probeStream();
  const char *const Edges[] = {"-2", "-1", "0", "1", "5", "6", "31", "32",
                               "255", "256"};
  unsigned Mutants = 0, Rejected = 0, Emitted = 0;
  for (const std::string &Block : Blocks) {
    for (size_t Eq = Block.find('='); Eq != std::string::npos;
         Eq = Block.find('=', Eq + 1)) {
      const size_t ValEnd = Block.find_first_of(" \n", Eq);
      for (const char *Edge : Edges) {
        const std::string Mutant = Header + Block.substr(0, Eq + 1) + Edge +
                                   Block.substr(ValEnd);
        ++Mutants;
        RuleSet RS;
        std::string Err;
        if (!readRuleSet(Mutant, RS, &Err)) {
          EXPECT_FALSE(Err.empty());
          ++Rejected;
          continue;
        }
        ASSERT_EQ(RS.size(), 1u);
        for (size_t I = 0; I < Insts.size(); ++I) {
          const Rule *R = nullptr;
          Binding B;
          if (!RS.match(Insts.data() + I, Insts.size() - I, &R, B))
            continue;
          host::HostBlock HB;
          host::HostEmitter E(HB);
          emitRule(*R, B, E);
          EXPECT_LE(HB.Code.size(), R->Host.size());
          ++Emitted;
        }
      }
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(Rejected, Mutants / 10);
  EXPECT_GT(Emitted, 1000u);
}

//===----------------------------------------------------------------------===//
// Gap mining
//===----------------------------------------------------------------------===//

TEST(GapMiner, NormalizesRegistersAndConditionsIntoOneGap) {
  profile::GapMiner M;
  // The same code shape in two register allocations and two conditions
  // must aggregate into a single normalized gap.
  arm::Inst A;
  A.Op = Opcode::ADD;
  A.Rd = 3;
  A.Rn = 4;
  A.Op2 = arm::Operand2::regShiftedReg(5, arm::ShiftKind::LSL, 6);
  arm::Inst B = A;
  B.Rd = 7;
  B.Rn = 8;
  B.Op2 = arm::Operand2::regShiftedReg(9, arm::ShiftKind::LSL, 10);
  B.C = arm::Cond::NE;

  M.recordMiss(&A, 1, 0x1000);
  M.recordMiss(&B, 1, 0x2000);
  EXPECT_EQ(M.distinctGaps(), 1u);
  EXPECT_EQ(M.missObservations(), 2u);

  const profile::GapReport R = M.report();
  ASSERT_EQ(R.Gaps.size(), 1u);
  EXPECT_EQ(R.Gaps[0].TransOccurrences, 2u);
  EXPECT_EQ(static_cast<int>(R.Gaps[0].Seq[0].C),
            static_cast<int>(arm::Cond::AL));
  EXPECT_EQ(R.Gaps[0].Seq[0].Rd, 0u) << "registers renamed from zero";

  // Dynamic feedback lands on the recorded PCs only.
  M.noteExecution(0x1000);
  M.noteExecution(0x1000);
  M.noteExecution(0x2000);
  M.noteExecution(0xDEAD);
  EXPECT_EQ(M.gapExecutions(), 3u);
  EXPECT_EQ(M.report().Gaps[0].DynExecs, 3u);
}

TEST(GapMiner, WindowStopsAtStructuralInstructions) {
  profile::GapMiner M;
  arm::Inst Seq[3];
  Seq[0].Op = Opcode::ADD; // the miss
  Seq[0].Rd = 1;
  Seq[0].Rn = 2;
  Seq[0].Op2 = arm::Operand2::regShiftedReg(3, arm::ShiftKind::LSR, 4);
  Seq[1].Op = Opcode::EOR;
  Seq[1].Rd = 1;
  Seq[1].Rn = 1;
  Seq[1].Op2 = arm::Operand2::reg(2);
  Seq[2].Op = Opcode::LDR; // memory: never part of a gap window
  Seq[2].Rd = 0;
  Seq[2].Rn = 1;

  M.recordMiss(Seq, 3, 0x4000);
  const profile::GapReport R = M.report();
  ASSERT_EQ(R.Gaps.size(), 1u);
  EXPECT_EQ(R.Gaps[0].Seq.size(), 2u)
      << "window must stop before the memory access";
}

TEST(GapMiner, ReportRoundTripsByteIdentically) {
  profile::GapMiner M;
  arm::Inst A;
  A.Op = Opcode::ADD;
  A.Rd = 1;
  A.Rn = 2;
  A.Op2 = arm::Operand2::regShiftedReg(3, arm::ShiftKind::LSL, 4);
  arm::Inst B;
  B.Op = Opcode::MOV;
  B.Rd = 5;
  B.Op2 = arm::Operand2::shiftedReg(6, arm::ShiftKind::ROR, 13);
  M.recordMiss(&A, 1, 0x100);
  M.recordMiss(&B, 1, 0x200);
  M.noteExecution(0x200);

  profile::GapReport Report = M.report();
  Report.Origin = "rule:scheduling/libquantum@1";
  const std::string Text = profile::writeGapReport(Report);

  profile::GapReport Back;
  std::string Err;
  ASSERT_TRUE(profile::readGapReport(Text, Back, &Err)) << Err;
  EXPECT_EQ(Back.Origin, Report.Origin);
  EXPECT_EQ(Back.Misses, Report.Misses);
  ASSERT_EQ(Back.Gaps.size(), Report.Gaps.size());
  EXPECT_EQ(profile::writeGapReport(Back), Text);

  EXPECT_FALSE(profile::readGapReport("not a report", Back, &Err));
  EXPECT_FALSE(profile::readGapReport("ruledbt-gaps v1\ngap trans=1\n",
                                      Back, &Err));
}

TEST(GapMiner, MinedGapFeedsBackThroughTheLearner) {
  // add r2, r1, r3 lsl #3 misses on a shift-thinned corpus; the mined
  // statement must learn into a rule that matches the original.
  arm::Inst I;
  I.Op = Opcode::ADD;
  I.Rd = 2;
  I.Rn = 1;
  I.Op2 = arm::Operand2::shiftedReg(3, arm::ShiftKind::LSL, 3);

  TrainStmt S;
  ASSERT_TRUE(statementFromInst(I, S));
  EXPECT_EQ(static_cast<int>(S.K), static_cast<int>(TrainStmt::Kind::BinShift));

  std::vector<Rule> Learned;
  const LearnOutcome O = learnFromStatement(S, Learned);
  EXPECT_TRUE(O.Verified);
  ASSERT_TRUE(O.Parameterized);

  const RuleSet RS = mergeLearnedRules(Learned);
  const Rule *Matched = nullptr;
  Binding B;
  EXPECT_EQ(RS.match(&I, 1, &Matched, B), 1u)
      << "the learned rule must close the very gap it was mined from";

  // Register-shifted-by-register stays unlearnable by design.
  arm::Inst RegShift = I;
  RegShift.Op2 = arm::Operand2::regShiftedReg(3, arm::ShiftKind::LSL, 4);
  EXPECT_FALSE(statementFromInst(RegShift, S));
}

TEST(GapMiner, VmSessionMinesAndReportsProfile) {
  // End to end through the facade: a shift-thinned corpus on libquantum
  // must surface gaps in RunReport::Profile with dynamic weight.
  const RuleSet Thinned = filterRuleSetByShape(buildReferenceRuleSet(),
                                               PatShape::DpRegShiftImm);
  profile::GapMiner Miner;
  vm::Vm V(vm::VmConfig::fromSpec("rule:scheduling/libquantum@1")
               .rules(&Thinned)
               .gapMiner(&Miner));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Profile.GapSeqs, 0u);
  EXPECT_GT(R.Profile.GapTranslations, 0u);
  EXPECT_GT(R.Profile.GapExecs, 0u) << "dynamic weight must accumulate";
  EXPECT_EQ(R.Profile.GapSeqs, Miner.distinctGaps());

  // The hot gaps rank first.
  const profile::GapReport Report = Miner.report();
  ASSERT_GT(Report.Gaps.size(), 1u);
  EXPECT_GE(Report.Gaps[0].weight(), Report.Gaps[1].weight());
}

TEST(GapMiner, LearnedGapsReloadAndRecoverHitRate) {
  // The whole mine -> learn -> persist -> reload loop: gaps mined from a
  // shift-thinned run learn into verified rules; the thinned corpus plus
  // those rules, reloaded through the rule-file text, must reproduce the
  // guest console and match more often than the thinned corpus did.
  const RuleSet Thinned = filterRuleSetByShape(buildReferenceRuleSet(),
                                               PatShape::DpRegShiftImm);
  profile::GapMiner Miner;
  vm::Vm Mine(vm::VmConfig::fromSpec("rule:scheduling/libquantum@1")
                  .rules(&Thinned)
                  .gapMiner(&Miner));
  ASSERT_TRUE(Mine.valid()) << Mine.error();
  const vm::RunReport Before = Mine.run();
  ASSERT_TRUE(Before.Ok);

  std::vector<std::vector<arm::Inst>> Seqs;
  for (const profile::Gap &G : Miner.report().Gaps)
    Seqs.push_back(G.Seq);
  LearnStats Stats;
  const RuleSet Learned = learnFromGapSequences(Seqs, &Stats);
  EXPECT_GT(Stats.VerifiedPairs, 0u);
  RuleSet Recovered = Thinned;
  for (size_t I = 0; I < Learned.size(); ++I)
    Recovered.add(Learned.rule(I));

  RuleSet Reloaded;
  std::string Err;
  ASSERT_TRUE(readRuleSet(writeRuleSet(Recovered), Reloaded, &Err)) << Err;
  vm::Vm Redeploy(vm::VmConfig::fromSpec("rule:scheduling/libquantum@1")
                      .rules(&Reloaded));
  ASSERT_TRUE(Redeploy.valid()) << Redeploy.error();
  const vm::RunReport After = Redeploy.run();
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.Console, Before.Console);

  ASSERT_GT(Before.RuleMatchAttempts, 0u);
  ASSERT_GT(After.RuleMatchAttempts, 0u);
  const double HitBefore = static_cast<double>(Before.RuleMatchHits) /
                           static_cast<double>(Before.RuleMatchAttempts);
  const double HitAfter = static_cast<double>(After.RuleMatchHits) /
                          static_cast<double>(After.RuleMatchAttempts);
  EXPECT_GT(HitAfter, HitBefore) << "learned rules must close mined gaps";
}

//===----------------------------------------------------------------------===//
// Deploying a persisted corpus (rule:file=)
//===----------------------------------------------------------------------===//

TEST(RuleFileKind, DeploysAPersistedCorpus) {
  const std::string Path = "ruleio_test_corpus.rules";
  RuleFileInfo Info;
  Info.Origin = "reference";
  std::string Err;
  ASSERT_TRUE(
      writeRuleFile(Path, buildReferenceRuleSet(), &Info, &Err))
      << Err;

  vm::Vm Native(vm::VmConfig::fromSpec("native/cpu-prime"));
  ASSERT_TRUE(Native.valid());
  const vm::RunReport Ref = Native.run();
  ASSERT_TRUE(Ref.Ok);

  vm::Vm V(vm::VmConfig::fromSpec("rule:file=" + Path + "/cpu-prime"));
  ASSERT_TRUE(V.valid()) << V.error();
  EXPECT_EQ(V.config().translator(), "rule:file=" + Path);
  const vm::RunReport R = V.run();
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Console, Ref.Console);
  EXPECT_EQ(R.MetricKey, "rule_file");
  EXPECT_GT(R.RuleCoveredInstrs, R.FallbackInstrs);

  std::remove(Path.c_str());
}

TEST(RuleFileKind, MissingParameterOrFileIsAConstructionError) {
  vm::Vm NoParam(vm::VmConfig().workload("cpu-prime").translator(
      "rule:file"));
  EXPECT_FALSE(NoParam.valid());
  EXPECT_NE(NoParam.error().find("rule:file=<rule-file>"),
            std::string::npos)
      << NoParam.error();

  vm::Vm NoFile(vm::VmConfig().workload("cpu-prime").translator(
      "rule:file=does_not_exist.rules"));
  EXPECT_FALSE(NoFile.valid());
  EXPECT_NE(NoFile.error().find("cannot"), std::string::npos)
      << NoFile.error();
  EXPECT_FALSE(NoFile.run().Ok);
}

} // namespace
