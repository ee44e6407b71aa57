//===- rtbench/src/Plan.h - Workloads and their seeded plans ------*- C++ -*-===//
///
/// \file
/// The three workloads and how a seed turns one into a concrete plan. The
/// seed picks each slice program's scale, the order of every round and
/// the per-slice budget jitter; the program under test only receives the
/// resulting inputs (a workload name, a scale, and cycle budgets).
///
/// The program *sets* are fixed per workload. Steady-state host cost per
/// guest instruction differs by up to 2.4x between SPEC proxies, so a
/// seed-chosen subset of three would move the workload's median by more
/// than any useful regression bound; the seed varies what can vary without
/// changing what is measured.
///
//===----------------------------------------------------------------------===//

#ifndef RTBENCH_PLAN_H
#define RTBENCH_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

namespace rtbench {

/// The executors compared. Rule is the full-optimisation rule translator
/// (registry kind "rule:scheduling"), Qemu the QEMU-6.1-like baseline,
/// Native the reference interpreter.
enum class Kind : uint8_t { Rule, Qemu, Native };
constexpr Kind AllKinds[] = {Kind::Rule, Kind::Qemu, Kind::Native};
const char *kindName(Kind K);     ///< "rule", "qemu", "native"
const char *registryKind(Kind K); ///< the TranslatorRegistry name

/// How a session-phase work item starts its session.
enum class StartMode : uint8_t { RuleCold, RuleFork, RuleWarm, QemuCold };
constexpr StartMode AllModes[] = {StartMode::RuleCold, StartMode::RuleFork,
                                  StartMode::RuleWarm, StartMode::QemuCold};
const char *modeName(StartMode M); ///< "rule.cold", "rule.fork", ...

struct SliceProgram {
  std::string Name;
  std::vector<uint32_t> Scales; ///< the seed picks one
};

/// A fixed unit of session work: boot to the boot mark, then run
/// BudgetCycles more simulated cycles.
struct SessionItem {
  std::string Name;
  uint32_t Scale = 1;
  uint64_t BudgetCycles = 0;
};

struct WorkloadSpec {
  std::string Name;
  /// Booted x {rule, qemu, native}, warmed and captured at set-up, then
  /// sliced round-robin in the timed loop.
  std::vector<SliceProgram> SlicePrograms;
  /// Started in every StartMode, interleaved, in the timed loop.
  std::vector<SessionItem> SessionItems;
  /// Run to completion at scale 1 with rule and qemu for the exact sim.*
  /// metrics (and checked against bench/baselines/BENCH_matrix.json).
  std::vector<std::string> SimPool;
  /// Share of the timed seconds spent starting sessions (the rest goes to
  /// steady-state slices).
  double SessionShare = 0.25;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(const std::string &Name);

/// One step of a slice round: program index and executor.
struct SliceStep {
  uint32_t Program = 0;
  Kind K = Kind::Rule;
  /// Budget multiplier in [0.8, 1.2): slice boundaries move with the seed,
  /// which the exact checks prove leaves every simulated count unchanged.
  double Jitter = 1;
};

/// One step of a session round: work item index and start mode.
struct SessionStep {
  uint32_t Item = 0;
  StartMode Mode = StartMode::RuleCold;
};

/// A workload's plan for one seed. Rounds are generated on demand (the
/// timed loop decides how many it runs) but are a pure function of the
/// seed and the round number.
class Plan {
public:
  Plan(const WorkloadSpec &W, uint64_t Seed);

  /// The scale chosen for slice program \p I.
  uint32_t scaleOf(size_t I) const { return Scales[I]; }

  /// Slice round \p R: every (program, kind) once. A program's three
  /// executors run back to back so their slices are adjacent in time.
  std::vector<SliceStep> sliceRound(uint64_t R) const;
  /// Session round \p R: every (item, mode) once, in a seeded order.
  std::vector<SessionStep> sessionRound(uint64_t R) const;
  /// Slice size for the sim pass's sliced complete runs (simulated cycles).
  uint64_t simSliceCycles(size_t Program, Kind K) const;

private:
  const WorkloadSpec *W;
  uint64_t Seed;
  std::vector<uint32_t> Scales;

  uint64_t roundSeed(uint64_t Stream, uint64_t R) const;
};

} // namespace rtbench

#endif // RTBENCH_PLAN_H
