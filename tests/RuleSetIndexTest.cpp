//===- tests/RuleSetIndexTest.cpp - Indexed vs linear matcher equivalence --===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Holds the contract the fine-indexed matcher (rules/RuleSet.h) is built
/// on: match() and matchLinear() are bit-identical — same selected rule,
/// same consumed count, same MatchStats counters — across the checked-in
/// reference corpus (bench/baselines/reference.rules), its shape-thinned
/// variants and synthetic corpora of 1k and 10k rules, for
/// multi-instruction windows and for the single-instruction
/// needsHelper-style probes the translator issues. The probe stream comes
/// from the fuzz generator across every profile, so the corpus-stress
/// shapes are all represented.
///
//===----------------------------------------------------------------------===//

#include "ProbeStream.h"
#include "rules/RuleIo.h"
#include "rules/RuleSet.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rdbt;
using tests::probeStream;

namespace {

/// The checked-in deployed corpus (falls back to the built-in reference
/// set if the build did not provide the path).
rules::RuleSet loadCheckedInCorpus() {
  rules::RuleSet RS;
#ifdef RDBT_REFERENCE_RULES
  std::string Err;
  EXPECT_TRUE(rules::readRuleFile(RDBT_REFERENCE_RULES, RS, &Err)) << Err;
#else
  RS = rules::buildReferenceRuleSet();
#endif
  return RS;
}

struct ProbeResult {
  const rules::Rule *Rule;
  size_t Consumed;
};

/// Runs every window of \p Insts through one matcher.
template <typename Fn>
std::vector<ProbeResult> sweep(const std::vector<arm::Inst> &Insts, Fn Match,
                               rules::MatchStats &Stats, size_t MaxWindow) {
  std::vector<ProbeResult> Out;
  for (size_t I = 0; I < Insts.size(); ++I) {
    const rules::Rule *R = nullptr;
    rules::Binding B;
    const size_t Window = std::min(MaxWindow, Insts.size() - I);
    const size_t Len = Match(Insts.data() + I, Window, &R, B, &Stats);
    Out.push_back({R, Len});
  }
  return Out;
}

void expectIdentical(const rules::RuleSet &RS, size_t MaxWindow) {
  const std::vector<arm::Inst> &Insts = probeStream();
  rules::MatchStats IdxStats, LinStats;
  const auto Indexed = sweep(
      Insts,
      [&RS](const arm::Inst *I, size_t N, const rules::Rule **R,
            rules::Binding &B, rules::MatchStats *S) {
        return RS.match(I, N, R, B, S);
      },
      IdxStats, MaxWindow);
  const auto Linear = sweep(
      Insts,
      [&RS](const arm::Inst *I, size_t N, const rules::Rule **R,
            rules::Binding &B, rules::MatchStats *S) {
        return RS.matchLinear(I, N, R, B, S);
      },
      LinStats, MaxWindow);

  ASSERT_EQ(Indexed.size(), Linear.size());
  size_t Hits = 0;
  for (size_t I = 0; I < Indexed.size(); ++I) {
    // Same Rule object, not just an equivalent one.
    EXPECT_EQ(Indexed[I].Rule, Linear[I].Rule) << "probe " << I;
    EXPECT_EQ(Indexed[I].Consumed, Linear[I].Consumed) << "probe " << I;
    Hits += Indexed[I].Rule != nullptr;
  }
  // The stream must actually exercise the matcher.
  EXPECT_GT(Hits, 100u);

  EXPECT_EQ(IdxStats.Attempts, LinStats.Attempts);
  EXPECT_EQ(IdxStats.Hits, LinStats.Hits);
}

TEST(RuleSetIndex, WindowedProbesIdentical) {
  expectIdentical(loadCheckedInCorpus(), ~size_t(0));
}

/// The translator's needsHelper probes are single-instruction matches;
/// multi-pattern rules must lose to them identically on both paths.
TEST(RuleSetIndex, NeedsHelperProbesIdentical) {
  expectIdentical(loadCheckedInCorpus(), 1);
}

/// The corpus-thinned variants (the rulegen loop's --drop sets) must
/// stay equivalent too — a dropped shape empties fine buckets, which is
/// exactly where an indexing bug would hide.
TEST(RuleSetIndex, FilteredSetsIdentical) {
  const rules::RuleSet Full = loadCheckedInCorpus();
  for (const rules::PatShape Drop :
       {rules::PatShape::DpImm, rules::PatShape::DpRegShiftImm,
        rules::PatShape::MulLong}) {
    expectIdentical(rules::filterRuleSetByShape(Full, Drop), ~size_t(0));
  }
}

/// Extends the reference set with exact-immediate single-opcode variants
/// ("learned specializations") until it holds \p Target rules. Each
/// variant registers in exactly one fine bucket, which is how a real
/// learned corpus spreads: thousands of rules, each only in its bucket.
rules::RuleSet buildSyntheticCorpus(size_t Target) {
  const rules::RuleSet Ref = rules::buildReferenceRuleSet();
  // Opcode -> host-op mapping, harvested from the reference classes.
  std::vector<rules::OpClassEntry> AluEntries;
  for (size_t I = 0; I < Ref.size(); ++I)
    for (const auto &Class : Ref.rule(I).Classes)
      for (const rules::OpClassEntry &CE : Class) {
        bool Known = false;
        for (const rules::OpClassEntry &Have : AluEntries)
          Known |= Have.Guest == CE.Guest;
        if (!Known)
          AluEntries.push_back(CE);
      }

  rules::RuleSet RS;
  for (size_t I = 0; I < Ref.size(); ++I)
    RS.add(Ref.rule(I));
  size_t Serial = 0;
  while (RS.size() < Target && !AluEntries.empty()) {
    const rules::OpClassEntry &CE = AluEntries[Serial % AluEntries.size()];
    rules::Rule R;
    R.Name = "syn_" + std::to_string(Serial);
    R.Classes = {{CE}};
    rules::RulePattern P;
    P.Shape = rules::PatShape::DpImm;
    P.SetFlags = (Serial & 1) != 0;
    P.Rd = 0;
    P.Rn = 1;
    P.ImmP = -1;
    P.ImmExact = static_cast<uint32_t>(Serial / AluEntries.size()) % 256;
    R.Guest = {P};
    rules::HostTemplateOp H;
    H.UseClassHostOp = true;
    H.SetFlagsFromGuest = true;
    H.Dst = 0;
    H.Src = 1;
    H.UseImm = true;
    H.ImmExact = P.ImmExact;
    R.Host = {H};
    R.Verified = true;
    RS.add(std::move(R));
    ++Serial;
  }
  return RS;
}

/// At corpus scale most fine buckets hold hundreds of rules; an indexing
/// slip that drops or misorders one (say, past some rule index) only shows
/// here.
TEST(RuleSetIndex, CorpusScaleSetsIdentical) {
  for (const size_t N : {size_t(1000), size_t(10000)}) {
    const rules::RuleSet RS = buildSyntheticCorpus(N);
    ASSERT_EQ(RS.size(), N);
    expectIdentical(RS, ~size_t(0));
  }
}

} // namespace
