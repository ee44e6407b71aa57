//===- tools/rdbt_rulegen.cpp - Offline rule generation driver --------------===//
//
// Part of RuleDBT. The offline half of the learn -> persist -> deploy
// loop: mines translation gaps from a live workload run (profile/GapMiner),
// drives the learning pipeline (rules/Learner) over a mined report, and
// reads/writes the persisted rule files (rules/RuleIo) that the
// "rule:file=<path>" translator kind deploys. See DESIGN.md §8.
//
// Usage:
//   rdbt_rulegen write-reference -o FILE
//       serialize the built-in reference corpus
//   rdbt_rulegen mine SPEC -o FILE [--drop-shift | --rules FILE] [--top N]
//       run SPEC (a VmConfig spec string naming a rule kind) with a gap
//       miner attached and write the gap report (the N heaviest gaps
//       with --top N); --drop-shift thins the reference corpus by every
//       shifted-operand rule first (the deliberate-gap knob behind
//       bench/rulegen_loop), --rules deploys a corpus file instead
//   rdbt_rulegen learn GAPS -o FILE [--base FILE] [--origin TEXT]
//       learn rules from a mined gap report (verifying each candidate via
//       rules/SymExec) and write a rule file; --base appends the learned
//       rules to an existing corpus file
//   rdbt_rulegen reserialize FILE [-o FILE]
//       parse a rule file and re-emit the canonical text (byte-identical
//       for files this tool wrote — the CI round-trip check)
//   rdbt_rulegen show FILE
//       human summary of a rule file
//
//===----------------------------------------------------------------------===//

#include "arm/Disasm.h"
#include "bench/BenchCommon.h"
#include "profile/GapMiner.h"
#include "rules/Learner.h"
#include "rules/RuleIo.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: rdbt_rulegen <command> [args]\n"
      "  write-reference -o FILE\n"
      "  mine SPEC -o FILE [--drop-shift | --rules FILE] [--top N]\n"
      "  learn GAPS -o FILE [--base FILE] [--origin TEXT]\n"
      "  reserialize FILE [-o FILE]\n"
      "  show FILE\n");
  return 2;
}

int fail(const std::string &Why) {
  std::fprintf(stderr, "rdbt_rulegen: %s\n", Why.c_str());
  return 1;
}

/// The mined sequences of a report, as the learner consumes them.
std::vector<std::vector<arm::Inst>> sequencesOf(
    const profile::GapReport &Report) {
  std::vector<std::vector<arm::Inst>> Seqs;
  Seqs.reserve(Report.Gaps.size());
  for (const profile::Gap &G : Report.Gaps)
    Seqs.push_back(G.Seq);
  return Seqs;
}

/// Appends every rule of \p From to \p To (corpus concatenation; the
/// matcher's longest-first/insertion-order policy keeps it well-defined).
void appendRules(rules::RuleSet &To, const rules::RuleSet &From) {
  for (size_t I = 0; I < From.size(); ++I)
    To.add(From.rule(I));
}

int cmdWriteReference(const std::string &OutPath) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  rules::RuleFileInfo Info;
  Info.Origin = "reference";
  std::string Err;
  if (!rules::writeRuleFile(OutPath, RS, &Info, &Err))
    return fail(Err);
  std::printf("wrote %zu reference rules to %s\n", RS.size(),
              OutPath.c_str());
  return 0;
}

int cmdMine(const std::string &Spec, const std::string &OutPath,
            bool DropShift, const std::string &RulesPath, size_t TopN) {
  profile::GapMiner Miner;
  std::string Err;
  vm::VmConfig Cfg = vm::VmConfig::fromSpec(Spec, &Err);
  if (!Err.empty())
    return fail(Err);
  Cfg.gapMiner(&Miner);

  rules::RuleSet Corpus;
  if (DropShift) {
    Corpus = rules::filterRuleSetByShape(rules::buildReferenceRuleSet(),
                                         rules::PatShape::DpRegShiftImm);
    Cfg.rules(&Corpus);
  } else if (!RulesPath.empty()) {
    if (!rules::readRuleFile(RulesPath, Corpus, &Err))
      return fail(Err);
    Cfg.rules(&Corpus);
  }

  vm::Vm V(Cfg);
  if (!V.valid())
    return fail(V.error());
  const vm::RunReport R = V.run();
  std::printf("mined %s: stop '%s', %llu guest instrs\n", Spec.c_str(),
              R.stopName(),
              static_cast<unsigned long long>(R.guestInstrs()));
  if (R.Profile.GapTranslations == 0 && Miner.missObservations() == 0)
    std::printf("note: no rule misses observed (is '%s' a rule kind?)\n",
                Spec.c_str());

  profile::GapReport Report = Miner.report(TopN);
  Report.Origin = Spec;
  if (!profile::writeGapFile(OutPath, Report, &Err))
    return fail(Err);
  std::printf("gaps: %llu miss observations, %zu distinct sequences, "
              "%llu dynamic executions -> %s\n",
              static_cast<unsigned long long>(Miner.missObservations()),
              Report.Gaps.size(),
              static_cast<unsigned long long>(Miner.gapExecutions()),
              OutPath.c_str());
  const size_t Show = Report.Gaps.size() < 5 ? Report.Gaps.size() : 5;
  for (size_t I = 0; I < Show; ++I) {
    const profile::Gap &G = Report.Gaps[I];
    std::printf("  #%zu trans=%llu dyn=%llu  %s\n", I + 1,
                static_cast<unsigned long long>(G.TransOccurrences),
                static_cast<unsigned long long>(G.DynExecs),
                arm::disassemble(G.Seq[0]).c_str());
  }
  return 0;
}

int cmdLearn(const std::string &GapsPath, const std::string &OutPath,
             const std::string &BasePath, std::string Origin) {
  profile::GapReport Report;
  std::string Err;
  if (!profile::readGapFile(GapsPath, Report, &Err))
    return fail(Err);

  rules::LearnStats Stats;
  unsigned Unlearnable = 0;
  const rules::RuleSet Merged =
      rules::learnFromGapSequences(sequencesOf(Report), &Stats, &Unlearnable);

  rules::RuleSet Out;
  if (!BasePath.empty()) {
    if (!rules::readRuleFile(BasePath, Out, &Err))
      return fail(Err);
  }
  appendRules(Out, Merged);

  rules::RuleFileInfo Info;
  if (Origin.empty()) {
    Origin = "rdbt_rulegen learn " + GapsPath;
    if (!Report.Origin.empty())
      Origin += " (mined from " + Report.Origin + ")";
  }
  Info.Origin = Origin;
  Info.HasStats = true;
  Info.Stats = Stats;
  if (!rules::writeRuleFile(OutPath, Out, &Info, &Err))
    return fail(Err);

  std::printf("learned from %zu gaps: %u statements tried, %u verified, "
              "%u rejected, %u unlearnable\n",
              Report.Gaps.size(), Stats.Statements, Stats.VerifiedPairs,
              Stats.RejectedPairs, Unlearnable);
  const std::string Appended =
      BasePath.empty() ? "" : " appended to " + BasePath;
  std::printf("%zu rules after class merge%s -> %s (%zu rules total)\n",
              Merged.size(), Appended.c_str(), OutPath.c_str(), Out.size());
  return 0;
}

int cmdReserialize(const std::string &InPath, const std::string &OutPath) {
  rules::RuleSet RS;
  rules::RuleFileInfo Info;
  std::string Err;
  if (!rules::readRuleFile(InPath, RS, &Err, &Info))
    return fail(Err);
  if (OutPath.empty()) {
    const std::string Text = rules::writeRuleSet(RS, &Info);
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return 0;
  }
  if (!rules::writeRuleFile(OutPath, RS, &Info, &Err))
    return fail(Err);
  std::printf("re-serialized %zu rules to %s\n", RS.size(), OutPath.c_str());
  return 0;
}

int cmdShow(const std::string &InPath) {
  rules::RuleSet RS;
  rules::RuleFileInfo Info;
  std::string Err;
  if (!rules::readRuleFile(InPath, RS, &Err, &Info))
    return fail(Err);
  std::printf("%s: %zu rules\n", InPath.c_str(), RS.size());
  if (!Info.Origin.empty())
    std::printf("origin: %s\n", Info.Origin.c_str());
  if (Info.HasStats)
    std::printf("stats: %u statements, %u verified, %u rejected, "
                "%u rules before merge, %u after\n",
                Info.Stats.Statements, Info.Stats.VerifiedPairs,
                Info.Stats.RejectedPairs, Info.Stats.RulesBeforeMerge,
                Info.Stats.RulesAfterMerge);
  for (size_t I = 0; I < RS.size(); ++I)
    std::printf("%s", rules::ruleToString(RS.rule(I)).c_str());
  return 0;
}

/// The flags \p Cmd reads, or null for an unknown command. Any other
/// flag is an error: a flag the command would ignore never passes
/// silently.
const std::vector<std::string> *flagsOf(const std::string &Cmd) {
  static const std::map<std::string, std::vector<std::string>> Table = {
      {"write-reference", {"-o"}},
      {"mine", {"-o", "--drop-shift", "--rules", "--top"}},
      {"learn", {"-o", "--base", "--origin"}},
      {"reserialize", {"-o"}},
      {"show", {}},
  };
  const auto It = Table.find(Cmd);
  return It == Table.end() ? nullptr : &It->second;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  const std::string Cmd = argv[1];
  const std::vector<std::string> *Flags = flagsOf(Cmd);
  if (!Flags)
    return usage();

  std::string Positional, OutPath, RulesPath, BasePath, Origin;
  bool DropShift = false;
  uint32_t TopN = 0; // 0: every gap
  for (int I = 2; I < argc; ++I) {
    const std::string A = argv[I];
    if (!A.empty() && A[0] == '-' &&
        std::find(Flags->begin(), Flags->end(), A) == Flags->end()) {
      std::fprintf(stderr, "rdbt_rulegen: %s does not take %s\n",
                   Cmd.c_str(), A.c_str());
      return 2;
    }
    const auto Value = [&](std::string &Into) {
      if (I + 1 >= argc) {
        usage();
        std::exit(2);
      }
      Into = argv[++I];
    };
    if (A == "-o")
      Value(OutPath);
    else if (A == "--rules")
      Value(RulesPath);
    else if (A == "--base")
      Value(BasePath);
    else if (A == "--origin")
      Value(Origin);
    else if (A == "--drop-shift")
      DropShift = true;
    else if (A == "--top") {
      std::string N;
      Value(N);
      if (!bench::parsePositive("--top", N.c_str(), TopN))
        return 2;
    } else if (Positional.empty())
      Positional = A;
    else
      return usage();
  }

  if (DropShift && !RulesPath.empty()) {
    std::fprintf(stderr, "rdbt_rulegen: --drop-shift and --rules each pick "
                         "the corpus; pass one\n");
    return 2;
  }

  if (Cmd == "write-reference")
    return OutPath.empty() ? usage() : cmdWriteReference(OutPath);
  if (Cmd == "mine")
    return Positional.empty() || OutPath.empty()
               ? usage()
               : cmdMine(Positional, OutPath, DropShift, RulesPath, TopN);
  if (Cmd == "learn")
    return Positional.empty() || OutPath.empty()
               ? usage()
               : cmdLearn(Positional, OutPath, BasePath, Origin);
  if (Cmd == "reserialize")
    return Positional.empty() ? usage() : cmdReserialize(Positional, OutPath);
  if (Cmd == "show")
    return Positional.empty() ? usage() : cmdShow(Positional);
  return usage();
}
