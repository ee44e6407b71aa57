//===- vm/BatchRunner.h - Worker-pool executor for Vm sessions --*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batching layer over the vm/ session facade: takes a list of
/// VmConfigs, runs each one on its own Vm across a pool of worker
/// threads, and returns the RunReports ordered by submission index.
///
/// Determinism is the contract, not an accident: every session is fully
/// isolated (its own Platform, engine, translator, and per-session
/// rules::MatchStats), sessions share only immutable inputs (a const
/// RuleSet corpus via VmConfig::rules(), the read-only
/// TranslatorRegistry), and results are keyed by submission index — so
/// the returned vector, and anything serialized from it in order, is
/// bitwise identical whether jobs() is 1 or 64. The perf-regression gate
/// (rdbt_scenarios --baseline) and the BENCH_matrix.json baselines rest
/// on this property; BatchRunnerTest holds it.
///
/// Sharing *mutable* attachments between batched configs is the one way
/// to break it: a profile::GapMiner is per-session state and must not be
/// attached to more than one batched config.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_VM_BATCHRUNNER_H
#define RDBT_VM_BATCHRUNNER_H

#include "vm/RunReport.h"
#include "vm/VmConfig.h"

#include <vector>

namespace rdbt {
namespace vm {

class BatchRunner {
public:
  /// \p Jobs worker threads (0 is clamped to 1). Jobs == 1 runs inline
  /// on the calling thread — the reference schedule every parallel run
  /// must reproduce bit-for-bit.
  explicit BatchRunner(unsigned Jobs = 1) : Jobs_(Jobs ? Jobs : 1) {}

  unsigned jobs() const { return Jobs_; }

  /// Runs every config to completion and returns the reports in
  /// submission order (Reports[I] belongs to Configs[I], regardless of
  /// which worker ran it or when it finished). A config whose Vm never
  /// became valid yields its report with Ok == false and Error set; the
  /// batch itself always completes.
  std::vector<RunReport> run(const std::vector<VmConfig> &Configs) const;

  /// std::thread::hardware_concurrency with a floor of 1 (the value the
  /// --jobs CLIs default to when asked for "all cores").
  static unsigned hardwareJobs();

private:
  unsigned Jobs_;
};

} // namespace vm
} // namespace rdbt

#endif // RDBT_VM_BATCHRUNNER_H
