//===- rtbench/src/Checks.h - Output oracle and exact-count checks -*- C++ -*-===//
///
/// \file
/// What the benchmark compares the program's outputs against:
///
///  - The output oracle (rtbench/oracle.txt): the expected console bytes,
///    stop reason and guest-instruction counts of every (workload, scale)
///    a seed can draw. Console and stop come from the native interpreter
///    and are cross-checked against rule and qemu (`rtbench
///    --make-oracle`). Guest-instruction counts are kept per executor:
///    idle loops wait on the simulated clock, so a translator retires a
///    few more instructions than native (0.01-2 %).
///  - bench/baselines/BENCH_matrix.json (read only): the repository's
///    exact-count baseline. Every complete scale-1 run the benchmark makes
///    must reproduce its cell's counters exactly.
///
//===----------------------------------------------------------------------===//

#ifndef RTBENCH_CHECKS_H
#define RTBENCH_CHECKS_H

#include "Plan.h"

#include "vm/RunReport.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rtbench {

struct OracleEntry {
  std::string Stop; ///< dbt::toString of the stop reason
  /// Guest instructions to the stop, by Kind (rule, qemu, native).
  std::array<uint64_t, 3> GuestInstrs = {0, 0, 0};
  std::string Console;

  uint64_t guestInstrs(Kind K) const {
    return GuestInstrs[static_cast<size_t>(K)];
  }
};

class Oracle {
public:
  /// Loads \p Path; false (with \p Error) on a missing or malformed file.
  bool load(const std::string &Path, std::string &Error);
  static std::string format(
      const std::map<std::pair<std::string, uint32_t>, OracleEntry> &E);

  const OracleEntry *find(const std::string &Name, uint32_t Scale) const;

  /// A complete run of executor \p K: clean shutdown with exactly the
  /// expected console and guest-instruction count. Returns "" when it
  /// matches, else what differed.
  std::string checkFinished(const std::string &Name, uint32_t Scale, Kind K,
                            const rdbt::vm::RunReport &R) const;
  /// A run stopped by its budget: the console so far must be a prefix of
  /// the expected one, and fewer guest instructions than a complete run
  /// retired. A finished run is checked with checkFinished.
  std::string checkPartial(const std::string &Name, uint32_t Scale, Kind K,
                           const rdbt::vm::RunReport &R) const;

private:
  std::map<std::pair<std::string, uint32_t>, OracleEntry> Entries;
};

/// The counters of one BENCH_matrix.json cell, by field name.
using CounterMap = std::map<std::string, uint64_t>;

class MatrixBaseline {
public:
  bool load(const std::string &Path, std::string &Error);
  /// The cell for \p Spec ("rule:scheduling/gcc@1"), or null.
  const CounterMap *find(const std::string &Spec) const;

private:
  std::map<std::string, CounterMap> Cells;
};

/// The exact simulated counters of a report, under the matrix's field
/// names (the repository's own bench::writeRunStatsFields mapping).
/// Host-side observability fields (interp_*, obs_*) are left out: they
/// depend on how a run is sliced and are waived by the repository's own
/// gates too.
CounterMap simCounters(const rdbt::vm::RunReport &R, bool EngineRun);

/// "" when every field \p Got shares with \p Want is equal, else a list
/// of the differing fields.
std::string diffCounters(const CounterMap &Want, const CounterMap &Got);

} // namespace rtbench

#endif // RTBENCH_CHECKS_H
