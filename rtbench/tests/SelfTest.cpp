//===- rtbench/tests/SelfTest.cpp - Tests of the benchmark's own code -----===//
//
// Percentiles and their ten-samples-beyond rule, paired-slice ratios, plan
// determinism, and the yardstick (metric names are checked by
// test_layout.py). Links only the yardstick library and the plan, never the
// program under test: if the yardstick ever reached into src/, this binary
// would stop linking.
//
//===----------------------------------------------------------------------===//

#include "Plan.h"
#include "Stats.h"
#include "Yardstick.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace rtbench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,   \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 0; I < N; ++I)
    V.push_back(static_cast<double>(N - I)); // unsorted on purpose
  return V;
}

void testPercentiles() {
  // Nearest rank: p50 of 1..21 is 11, p90 of 1..100 is 90.
  CHECK(near(*median(iota(21)), 11));
  CHECK(near(*percentile(iota(100), 90), 90));
  CHECK(near(*percentile(iota(1000), 99), 990));
  // Ten samples beyond: p90 needs 100 samples, p99 needs 1000, p05 201.
  CHECK(!percentile(iota(99), 90));
  CHECK(!percentile(iota(999), 99));
  CHECK(percentile(iota(201), 5).has_value());
  CHECK(!percentile(iota(200), 5));
  CHECK(near(*percentile(iota(201), 5), 11));
  // A median needs ten samples above it as well.
  CHECK(median(iota(20)).has_value());
  CHECK(!median(iota(19)));
  // Beyond = 0 turns the rule off (set-up medians of three).
  CHECK(near(*percentile({3, 1, 2}, 50, 0), 2));
  CHECK(!percentile({}, 50, 0));
  CHECK(!percentile(iota(10), 0, 0));
  CHECK(!percentile(iota(10), 100, 0));
}

void testRatios() {
  const PairedSample S{30.0, 2.0, 4.0};
  CHECK(near(S.yard(), 3));
  CHECK(near(S.ratio(), 10));
  CHECK(near(S.ref(2.5), 25));
  // Host speed cancels: the same work on a core running at half speed
  // (both sides twice as slow) has the same reference time.
  const PairedSample Slow{60.0, 4.0, 8.0};
  CHECK(near(Slow.ref(2.5), S.ref(2.5)));
  CHECK(near(refValues({S, Slow}, 1.0)[1], 10));
  CHECK(near(rawValues({S, Slow})[1], 60));
}

void testGeomeans() {
  CHECK(near(*geomean({2, 8}), 4));
  CHECK(!geomean({}));
  CHECK(!geomean({1, 0}));
  // Per-group medians, then their geometric mean.
  std::vector<double> G1 = iota(21), G2 = iota(21);
  for (double &V : G2)
    V *= 4;
  CHECK(near(*geomeanOfMedians({G1, G2}), 22));
  CHECK(!geomeanOfMedians({G1, iota(5)}));
}

void testPlans() {
  for (const WorkloadSpec &W : workloads()) {
    CHECK(findWorkload(W.Name) == &W);
    for (uint64_t Seed : {0ull, 1ull, 12345ull}) {
      const Plan A(W, Seed), B(W, Seed), C(W, Seed + 1);
      bool Differs = false;
      for (size_t I = 0; I < W.SlicePrograms.size(); ++I) {
        CHECK(A.scaleOf(I) == B.scaleOf(I));
        Differs |= A.scaleOf(I) != C.scaleOf(I);
      }
      for (uint64_t R = 0; R < 40; ++R) {
        const std::vector<SliceStep> SA = A.sliceRound(R), SB = B.sliceRound(R),
                                     SC = C.sliceRound(R);
        CHECK(SA.size() == W.SlicePrograms.size() * 3);
        CHECK(SA.size() == SB.size());
        std::set<std::pair<uint32_t, int>> Seen;
        for (size_t I = 0; I < SA.size(); ++I) {
          CHECK(SA[I].Program == SB[I].Program && SA[I].K == SB[I].K &&
                SA[I].Jitter == SB[I].Jitter);
          CHECK(SA[I].Jitter >= 0.8 && SA[I].Jitter < 1.2);
          Seen.insert({SA[I].Program, static_cast<int>(SA[I].K)});
          Differs |= SA[I].Program != SC[I].Program || SA[I].K != SC[I].K ||
                     SA[I].Jitter != SC[I].Jitter;
        }
        CHECK(Seen.size() == SA.size()); // every (program, kind) once

        const std::vector<SessionStep> TA = A.sessionRound(R),
                                       TB = B.sessionRound(R);
        CHECK(TA.size() == W.SessionItems.size() * 4);
        std::set<std::pair<uint32_t, int>> Started;
        for (size_t I = 0; I < TA.size(); ++I) {
          CHECK(TA[I].Item == TB[I].Item && TA[I].Mode == TB[I].Mode);
          Started.insert({TA[I].Item, static_cast<int>(TA[I].Mode)});
        }
        CHECK(Started.size() == TA.size()); // every (item, mode) once
      }
      for (size_t I = 0; I < W.SimPool.size(); ++I)
        CHECK(A.simSliceCycles(I, Kind::Rule) ==
              B.simSliceCycles(I, Kind::Rule));
      CHECK(Differs); // another seed gives another plan
    }
  }
  CHECK(!findWorkload("no-such-workload"));
}

void testYardstick() {
  CHECK(runYardstick(100000, 7) == runYardstick(100000, 7));
  CHECK(runYardstick(100000, 7) != runYardstick(100000, 8));
  const double Ns = yardstickNsPerOp(200000);
  CHECK(Ns > 0.01 && Ns < 1000);
  CHECK(ReferenceNsPerOp > 0);
}

} // namespace

int main() {
  testPercentiles();
  testRatios();
  testGeomeans();
  testPlans();
  testYardstick();
  if (Failures) {
    std::fprintf(stderr, "rtbench_selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("rtbench_selftest: all checks passed\n");
  return 0;
}
