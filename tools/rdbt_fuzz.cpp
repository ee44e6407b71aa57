//===- tools/rdbt_fuzz.cpp - Standing differential-fuzz harness ------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standing differential fuzzer (DESIGN.md §10): runs seed ranges of
/// random guest programs (src/fuzz/ProgramGen.h) through the reference
/// interpreter and every engine translator kind — including a persisted
/// rule:file corpus — on a BatchRunner worker pool, and diffs final
/// architectural state exactly. Any mismatch is shrunk to a minimized
/// reproducer (src/fuzz/Shrink.h) and reported with the seed and spec;
/// the exit code is non-zero on any mismatch or session error, so CI
/// soak jobs cannot silently pass.
///
///   rdbt_fuzz --seeds 0..500 --jobs 8 --corpus ref.rules --json
///   rdbt_fuzz --seed 137 --spec rule:scheduling    # reproduce one seed
///   rdbt_fuzz --plant-bug                          # harness self-test
///
/// --spec takes engine kinds only (the interpreter is the oracle), and a
/// rule:file=<path> spec deploys the corpus at that path; an unknown or
/// non-engine kind or an unreadable corpus exits 2 before any seed runs.
///
/// --plant-bug deploys the reference corpus with a deliberately-unsound
/// clz rule and *inverts* the exit semantics: the run succeeds only if
/// the bug is caught and the reproducer shrinks to <= 8 instructions.
///
/// With --json (or RDBT_BENCH_JSON set) a BENCH_fuzz.json summary is
/// emitted: per-kind aggregate counters, seeds run and mismatch counts.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "fuzz/Differential.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/Shrink.h"
#include "rules/RuleIo.h"
#include "vm/BatchRunner.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

struct Options {
  uint64_t SeedLo = 0, SeedHi = 100; ///< [lo, hi) seed window
  bool SingleSeed = false;
  std::vector<std::string> Specs; ///< engine kinds to diff (default: all)
  std::string ProfileName = "mixed";
  unsigned Jobs = 1;
  std::string CorpusFile;
  bool Json = false;
  bool PlantBug = false;
  bool List = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: rdbt_fuzz [--seeds A..B] [--seed N] [--spec KIND] "
      "[--profile P]\n"
      "                 [--jobs N] [--corpus F] [--json] [--plant-bug] "
      "[--list]\n");
  return 2;
}

/// The per-program seed schedule (kept from FuzzDifferentialTest).
uint64_t seedAt(uint64_t Index) { return 0xF0DD + Index * 7919; }

struct KindState {
  std::string Spec;
  bench::RunStats Sum;  ///< counters summed across seeds
  uint64_t Seeds = 0;
  uint64_t Mismatches = 0;
  uint64_t Errors = 0;
};

struct Mismatch {
  uint64_t Seed = 0;
  std::string Spec;
  std::string Diff;
};

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--seeds") {
      const char *V = Next();
      const char *Dots = V ? std::strstr(V, "..") : nullptr;
      if (!Dots)
        return usage();
      if (!bench::parseDecimal("--seeds", std::string(V, Dots).c_str(), 0,
                               UINT64_MAX, Opt.SeedLo) ||
          !bench::parseDecimal("--seeds", Dots + 2, 0, UINT64_MAX,
                               Opt.SeedHi))
        return 2;
      if (Opt.SeedHi <= Opt.SeedLo)
        return usage();
    } else if (A == "--seed") {
      const char *V = Next();
      if (!V)
        return usage();
      if (!bench::parseDecimal("--seed", V, 0, UINT64_MAX - 1, Opt.SeedLo))
        return 2;
      Opt.SeedHi = Opt.SeedLo + 1;
      Opt.SingleSeed = true;
    } else if (A == "--spec") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.Specs.push_back(V);
    } else if (A == "--profile") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.ProfileName = V;
    } else if (A == "--jobs") {
      const char *V = Next();
      if (!V)
        return usage();
      if (!bench::parsePositive("--jobs", V, Opt.Jobs))
        return 2;
    } else if (A == "--corpus") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.CorpusFile = V;
    } else if (A == "--json") {
      Opt.Json = true;
    } else if (A == "--plant-bug") {
      Opt.PlantBug = true;
    } else if (A == "--list") {
      Opt.List = true;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", A.c_str());
      return usage();
    }
  }

  if (Opt.List) {
    std::printf("profiles:");
    for (const fuzz::Profile &P : fuzz::allProfiles())
      std::printf(" %s", P.Name);
    std::printf("\nkinds:");
    for (const std::string &K : vm::TranslatorRegistry::global().kinds()) {
      const auto *Info = vm::TranslatorRegistry::global().find(K);
      if (Info && Info->UsesEngine && !Info->TakesParam)
        std::printf(" %s", K.c_str());
    }
    std::printf(" rule:file=<path>\n");
    return 0;
  }

  const fuzz::Profile *Prof = fuzz::findProfile(Opt.ProfileName);
  if (!Prof) {
    std::fprintf(stderr, "unknown profile '%s'\n", Opt.ProfileName.c_str());
    return usage();
  }

  // --- Kind list ----------------------------------------------------------
  const vm::TranslatorRegistry &Registry = vm::TranslatorRegistry::global();
  std::vector<std::string> Specs = Opt.Specs;
  if (Specs.empty()) {
    if (Opt.PlantBug) {
      Specs.push_back("rule:scheduling");
    } else {
      for (const std::string &K : Registry.kinds()) {
        const auto *Info = Registry.find(K);
        if (Info && Info->UsesEngine && !Info->TakesParam)
          Specs.push_back(K);
      }
      if (!Opt.CorpusFile.empty())
        Specs.push_back("rule:file=" + Opt.CorpusFile);
    }
  }
  // The oracle is the interpreter, so only engine kinds have anything to
  // diff against it; every rule:file=<path> spec deploys the file it names.
  std::vector<std::string> CorpusPaths;
  if (!Opt.CorpusFile.empty())
    CorpusPaths.push_back(Opt.CorpusFile);
  for (const std::string &S : Specs) {
    const auto *Info = Registry.find(S);
    if (!Info || !Info->UsesEngine) {
      std::fprintf(stderr,
                   "--spec '%s' is not an engine translator kind "
                   "(see --list)\n",
                   S.c_str());
      return 2;
    }
    if (Info->TakesParam)
      CorpusPaths.push_back(vm::TranslatorRegistry::paramOf(S));
  }

  // --- Corpora ------------------------------------------------------------
  // One immutable RuleSet per corpus, shared read-only across every seed,
  // kind, and worker thread. --plant-bug swaps in the unsound clz rule.
  const rules::RuleSet Shared = Opt.PlantBug ? fuzz::buildPlantedBugRuleSet()
                                             : rules::buildReferenceRuleSet();
  std::map<std::string, rules::RuleSet> FileCorpora; // path -> corpus
  for (const std::string &Path : CorpusPaths) {
    if (FileCorpora.count(Path))
      continue;
    std::string Err;
    if (!rules::readRuleFile(Path, FileCorpora[Path], &Err)) {
      std::fprintf(stderr, "cannot load corpus '%s': %s\n", Path.c_str(),
                   Err.c_str());
      return 2;
    }
  }
  const auto RulesFor = [&](const std::string &Spec) -> const rules::RuleSet * {
    if (Registry.find(Spec)->TakesParam)
      return &FileCorpora.at(vm::TranslatorRegistry::paramOf(Spec));
    return &Shared;
  };

  std::vector<KindState> Kinds;
  for (const std::string &S : Specs)
    Kinds.push_back({S, {}, 0, 0, 0});

  if (Opt.SingleSeed) {
    const fuzz::GenProgram P = fuzz::generate(seedAt(Opt.SeedLo), *Prof);
    std::printf("seed %llu (%s, %zu ops):\n",
                (unsigned long long)Opt.SeedLo, Prof->Name, P.Ops.size());
    for (const fuzz::GenOp &Op : P.Ops)
      std::printf("    %s\n", fuzz::describeOp(Op).c_str());
  }

  // --- Fuzz loop ----------------------------------------------------------
  const vm::BatchRunner Runner(Opt.Jobs);
  std::vector<Mismatch> Mismatches;
  std::vector<std::string> Errors;

  constexpr uint64_t Wave = 32;
  for (uint64_t Lo = Opt.SeedLo; Lo < Opt.SeedHi; Lo += Wave) {
    const uint64_t Hi = std::min(Opt.SeedHi, Lo + Wave);
    std::vector<fuzz::GenProgram> Progs;
    std::vector<vm::VmConfig> Configs;
    for (uint64_t S = Lo; S < Hi; ++S) {
      Progs.push_back(fuzz::generate(seedAt(S), *Prof));
      const std::vector<uint32_t> Words = fuzz::render(Progs.back());
      Configs.push_back(
          fuzz::flatConfig(Words, "native", nullptr, fuzz::NativeBudget));
      for (const KindState &K : Kinds)
        Configs.push_back(fuzz::flatConfig(Words, K.Spec, RulesFor(K.Spec),
                                           fuzz::EngineBudget));
    }
    const std::vector<vm::RunReport> Reports = Runner.run(Configs);

    const size_t Stride = 1 + Kinds.size();
    for (uint64_t S = Lo; S < Hi; ++S) {
      const size_t Base = static_cast<size_t>(S - Lo) * Stride;
      const vm::RunReport &RefRep = Reports[Base];
      const fuzz::FinalState Ref = fuzz::finalStateOf(RefRep);
      if (!RefRep.Error.empty() || !Ref.Shutdown) {
        Errors.push_back("seed " + std::to_string(S) + " native: " +
                         (RefRep.Error.empty() ? "did not terminate"
                                               : RefRep.Error));
        continue;
      }
      for (size_t K = 0; K < Kinds.size(); ++K) {
        const vm::RunReport &Rep = Reports[Base + 1 + K];
        KindState &KS = Kinds[K];
        ++KS.Seeds;
        if (!Rep.Error.empty()) {
          ++KS.Errors;
          Errors.push_back("seed " + std::to_string(S) + " " + KS.Spec +
                           ": " + Rep.Error);
          continue;
        }
        // Aggregate counters for the BENCH_fuzz.json per-kind row.
        const bench::RunStats St = bench::fromReport(Rep);
        KS.Sum.Wall += St.Wall;
        KS.Sum.GuestInstrs += St.GuestInstrs;
        KS.Sum.HostInstrs += St.HostInstrs;
        KS.Sum.RuleCoveredInstrs += St.RuleCoveredInstrs;
        KS.Sum.FallbackInstrs += St.FallbackInstrs;
        KS.Sum.RuleMatchAttempts += St.RuleMatchAttempts;
        KS.Sum.RuleMatchHits += St.RuleMatchHits;
        KS.Sum.Ok = true;
        const fuzz::FinalState Got = fuzz::finalStateOf(Rep);
        if (!fuzz::statesAgree(Ref, Got)) {
          ++KS.Mismatches;
          Mismatches.push_back(
              {S, KS.Spec, fuzz::diffStates(Ref, Got)});
        }
      }
    }
  }

  // --- Report -------------------------------------------------------------
  const uint64_t SeedCount = Opt.SeedHi - Opt.SeedLo;
  std::printf("fuzz: %llu seeds x %zu kinds, profile %s, jobs %u\n",
              (unsigned long long)SeedCount, Kinds.size(), Prof->Name,
              Opt.Jobs);
  for (const KindState &K : Kinds)
    std::printf("  %-24s seeds %llu  mismatches %llu  errors %llu\n",
                K.Spec.c_str(), (unsigned long long)K.Seeds,
                (unsigned long long)K.Mismatches,
                (unsigned long long)K.Errors);

  for (const std::string &E : Errors)
    std::printf("ERROR: %s\n", E.c_str());

  // Shrink the first mismatch to a minimized reproducer.
  size_t MinimizedOps = 0;
  if (!Mismatches.empty()) {
    for (const Mismatch &M : Mismatches)
      std::printf("MISMATCH: seed %llu spec %s:%s\n",
                  (unsigned long long)M.Seed, M.Spec.c_str(),
                  M.Diff.c_str());
    const Mismatch &First = Mismatches.front();
    const fuzz::GenProgram Prog = fuzz::generate(seedAt(First.Seed), *Prof);
    const rules::RuleSet *KindRules = RulesFor(First.Spec);
    const fuzz::Oracle StillFails =
        [&](const std::vector<fuzz::GenOp> &Ops) {
          const std::vector<uint32_t> Words = fuzz::render(Prog, Ops);
          vm::Vm Ref(
              fuzz::flatConfig(Words, "native", nullptr, fuzz::NativeBudget));
          const fuzz::FinalState A = fuzz::finalStateOf(Ref.run());
          if (!A.Shutdown)
            return false;
          vm::Vm Sut(fuzz::flatConfig(Words, First.Spec, KindRules,
                                      fuzz::EngineBudget));
          return !fuzz::statesAgree(A, fuzz::finalStateOf(Sut.run()));
        };
    const fuzz::ShrinkResult Min = fuzz::shrink(Prog.Ops, StillFails);
    MinimizedOps = fuzz::renderedInstrCount(Min.Ops);
    std::printf("reproducer: seed %llu spec %s shrunk %zu -> %zu "
                "instructions (%u oracle runs)\n",
                (unsigned long long)First.Seed, First.Spec.c_str(),
                fuzz::renderedInstrCount(Prog.Ops), MinimizedOps,
                Min.OracleCalls);
    for (const fuzz::GenOp &Op : Min.Ops)
      std::printf("    %s\n", fuzz::describeOp(Op).c_str());
    std::printf("reproduce with: rdbt_fuzz --seed %llu --spec %s "
                "--profile %s\n",
                (unsigned long long)First.Seed, First.Spec.c_str(),
                Prof->Name);
  }

  // --- BENCH_fuzz.json ----------------------------------------------------
  if (Opt.Json)
    setenv("RDBT_BENCH_JSON", "1", 0);
  if (std::getenv("RDBT_BENCH_JSON")) {
    for (const KindState &K : Kinds) {
      bench::JsonRecorder::get().Runs.push_back(
          {"fuzz/" + Opt.ProfileName, K.Spec, K.Sum});
      bench::recordMetric("fuzz_seeds", K.Spec,
                          static_cast<double>(K.Seeds));
      bench::recordMetric("fuzz_mismatches", K.Spec,
                          static_cast<double>(K.Mismatches));
    }
    bench::recordMetric("fuzz_mismatches", "total",
                        static_cast<double>(Mismatches.size()));
    bench::writeBenchJson("fuzz", /*Scale=*/0);
  }

  // --- Exit ---------------------------------------------------------------
  if (Opt.PlantBug) {
    // Self-test semantics: the planted bug must be caught AND shrink tight.
    if (Mismatches.empty()) {
      std::printf("plant-bug: NOT CAUGHT\n");
      return 1;
    }
    if (MinimizedOps > 8) {
      std::printf("plant-bug: caught but reproducer has %zu instructions "
                  "(> 8)\n",
                  MinimizedOps);
      return 1;
    }
    std::printf("plant-bug: caught and shrunk to %zu instructions\n",
                MinimizedOps);
    return 0;
  }
  if (!Mismatches.empty() || !Errors.empty())
    return 1;
  std::printf("all seeds agree across %zu kinds\n", Kinds.size());
  return 0;
}
