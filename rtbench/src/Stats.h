//===- rtbench/src/Stats.h - Percentiles, paired ratios, geomeans -*- C++ -*-===//
///
/// \file
/// The benchmark's arithmetic, header-only so the self-test checks exactly
/// what the benchmark runs.
///
/// Percentiles are nearest-rank and carry the choosing-metrics rule: a
/// percentile is only reported when at least MinBeyond samples lie beyond
/// it (above it for p >= 50, below it otherwise), so a "p90" of 30 samples
/// is refused rather than reported as the maximum in disguise.
///
//===----------------------------------------------------------------------===//

#ifndef RTBENCH_STATS_H
#define RTBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace rtbench {

constexpr size_t MinBeyond = 10;

/// Nearest-rank percentile \p P (0 < P < 100) of \p Values, or nothing when
/// fewer than \p Beyond samples lie beyond it.
inline std::optional<double> percentile(std::vector<double> Values, double P,
                                        size_t Beyond = MinBeyond) {
  const size_t N = Values.size();
  if (N == 0 || !(P > 0 && P < 100))
    return std::nullopt;
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
  Rank = std::max<size_t>(1, std::min(Rank, N));
  const size_t Tail = P >= 50 ? N - Rank : Rank - 1;
  if (Tail < Beyond)
    return std::nullopt;
  std::nth_element(Values.begin(), Values.begin() + (Rank - 1), Values.end());
  return Values[Rank - 1];
}

inline std::optional<double> median(const std::vector<double> &Values) {
  return percentile(Values, 50);
}

/// Geometric mean of positive values (nothing if any is not positive).
inline std::optional<double> geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return std::nullopt;
  double LogSum = 0;
  for (double V : Values) {
    if (!(V > 0))
      return std::nullopt;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// One timed emulator slice (or session) and the yardstick slices timed
/// immediately before and after it.
struct PairedSample {
  double Raw = 0;         ///< emulator ns per guest instruction, or ms
  double YardBefore = 0;  ///< yardstick ns per op just before
  double YardAfter = 0;   ///< yardstick ns per op just after

  double yard() const { return (YardBefore + YardAfter) / 2; }
  /// Raw time divided by the adjacent yardstick time: host speed cancels.
  double ratio() const { return Raw / yard(); }
  /// Raw time expressed on the reference host (ratio * reference ns/op).
  double ref(double ReferenceNsPerOp) const {
    return ratio() * ReferenceNsPerOp;
  }
};

inline std::vector<double> refValues(const std::vector<PairedSample> &S,
                                     double ReferenceNsPerOp) {
  std::vector<double> Out;
  Out.reserve(S.size());
  for (const PairedSample &P : S)
    Out.push_back(P.ref(ReferenceNsPerOp));
  return Out;
}

inline std::vector<double> rawValues(const std::vector<PairedSample> &S) {
  std::vector<double> Out;
  Out.reserve(S.size());
  for (const PairedSample &P : S)
    Out.push_back(P.Raw);
  return Out;
}

/// Geometric mean over groups (programs, work items) of each group's
/// median. Summarising per group first keeps a multi-modal mix from
/// putting the pooled median in the gap between two programs' clusters.
inline std::optional<double>
geomeanOfMedians(const std::vector<std::vector<double>> &Groups) {
  std::vector<double> Medians;
  for (const std::vector<double> &G : Groups) {
    const std::optional<double> M = median(G);
    if (!M)
      return std::nullopt;
    Medians.push_back(*M);
  }
  return geomean(Medians);
}

} // namespace rtbench

#endif // RTBENCH_STATS_H
