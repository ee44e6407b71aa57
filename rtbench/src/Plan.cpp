//===- rtbench/src/Plan.cpp - Workloads and their seeded plans ------------===//

#include "Plan.h"

#include <utility>

namespace rtbench {
namespace {

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same stream on every platform and standard library, which
/// std::shuffle and the <random> distributions do not promise.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  /// Fisher-Yates permutation of 0..N-1.
  std::vector<uint32_t> permutation(uint32_t N) {
    std::vector<uint32_t> P(N);
    for (uint32_t I = 0; I < N; ++I)
      P[I] = I;
    for (uint32_t I = N; I > 1; --I)
      std::swap(P[I - 1], P[below(I)]);
    return P;
  }

private:
  uint64_t State;
};

} // namespace

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Rule:
    return "rule";
  case Kind::Qemu:
    return "qemu";
  case Kind::Native:
    return "native";
  }
  return "?";
}

const char *registryKind(Kind K) {
  switch (K) {
  case Kind::Rule:
    return "rule:scheduling";
  case Kind::Qemu:
    return "qemu";
  case Kind::Native:
    return "native";
  }
  return "?";
}

const char *modeName(StartMode M) {
  switch (M) {
  case StartMode::RuleCold:
    return "rule.cold";
  case StartMode::RuleFork:
    return "rule.fork";
  case StartMode::RuleWarm:
    return "rule.warm";
  case StartMode::QemuCold:
    return "qemu.cold";
  }
  return "?";
}

const std::vector<WorkloadSpec> &workloads() {
  // One simulated-cycle budget per session item: about 1.2 ms of rule
  // execution after the boot mark on the reference host.
  constexpr uint64_t ItemBudget = 300000;
  static const std::vector<WorkloadSpec> W = {
      // Warm SPEC proxies: time goes to host dispatch, the engine loop,
      // chaining and softmmu; translation is bypassed.
      {"steady-spec",
       {{"gcc", {1, 2}}, {"mcf", {2, 3, 4}}, {"sjeng", {1, 2}}},
       {{"gcc", 1, ItemBudget},
        {"mcf", 1, ItemBudget},
        {"sjeng", 1, ItemBudget}},
       {"gcc", "mcf", "sjeng"},
       0.25},
      // Context switches, disk IRQs, WFI and syscalls: IRQ and exception
      // delivery and the device clock beside the engine loop. These guests
      // do not invalidate code after boot, so the code cache stays warm.
      {"system-churn",
       {{"ctxswitch", {8, 12}},
        {"untar", {8, 12}},
        {"fileio", {16, 24}},
        {"sqlite", {16, 32}},
        {"memcached", {64, 128}}},
       {{"sqlite", 8, ItemBudget}, {"memcached", 64, ItemBudget}},
       {"ctxswitch", "untar", "fileio", "sqlite", "memcached"},
       0.25},
      // Short sessions started cold, forked, warm from a cache file and
      // under qemu: construction, cache load and translation dominate.
      {"session-start",
       {{"gcc", {1}}, {"sqlite", {16}}},
       {{"gcc", 1, ItemBudget},
        {"sjeng", 1, ItemBudget},
        {"sqlite", 8, ItemBudget},
        {"memcached", 64, ItemBudget}},
       {"gcc", "sjeng", "sqlite", "memcached"},
       0.8},
  };
  return W;
}

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &S : workloads())
    if (S.Name == Name)
      return &S;
  return nullptr;
}

Plan::Plan(const WorkloadSpec &Spec, uint64_t S) : W(&Spec), Seed(S) {
  SeededRng Rng(roundSeed(/*Stream=*/0, 0));
  for (const SliceProgram &P : W->SlicePrograms)
    Scales.push_back(P.Scales[Rng.below(P.Scales.size())]);
}

uint64_t Plan::roundSeed(uint64_t Stream, uint64_t R) const {
  SeededRng Mix(Seed ^ (Stream * 0xD6E8FEB86659FD93ull));
  for (uint64_t I = 0; I < 2; ++I)
    Mix.next();
  return Mix.next() + R * 0x9E3779B97F4A7C15ull;
}

std::vector<SliceStep> Plan::sliceRound(uint64_t R) const {
  SeededRng Rng(roundSeed(/*Stream=*/1, R));
  std::vector<SliceStep> Steps;
  for (uint32_t P : Rng.permutation(W->SlicePrograms.size()))
    for (uint32_t K : Rng.permutation(3)) {
      SliceStep S;
      S.Program = P;
      S.K = AllKinds[K];
      S.Jitter = 0.8 + 0.4 * static_cast<double>(Rng.below(1000)) / 1000.0;
      Steps.push_back(S);
    }
  return Steps;
}

std::vector<SessionStep> Plan::sessionRound(uint64_t R) const {
  SeededRng Rng(roundSeed(/*Stream=*/2, R));
  const uint32_t NumModes = sizeof(AllModes) / sizeof(AllModes[0]);
  const uint32_t N = W->SessionItems.size() * NumModes;
  std::vector<SessionStep> Steps;
  for (uint32_t I : Rng.permutation(N))
    Steps.push_back({I / NumModes, AllModes[I % NumModes]});
  return Steps;
}

uint64_t Plan::simSliceCycles(size_t Program, Kind K) const {
  SeededRng Rng(roundSeed(/*Stream=*/3, Program * 3 + static_cast<int>(K)));
  // 0.2M .. 3.2M cycles: from a few dozen to a few slices per program.
  return 200000 + Rng.below(3000000);
}

} // namespace rtbench
