//===- rtbench/src/Yardstick.h - Fixed host-speed reference kernel -*- C++ -*-===//
///
/// \file
/// The benchmark's yardstick: a small switch-dispatch interpreter running a
/// fixed, perfectly predictable bytecode loop. It is owned by the benchmark
/// and depends on nothing under src/, so it measures how fast *this host*
/// runs dispatch-heavy integer code right now, independent of the program
/// under test. Every timed emulator slice or session is paired with an
/// adjacent yardstick slice, and host time is reported as reference time:
///
///   ref = raw * (ReferenceNsPerOp / adjacent yardstick ns per op)
///
/// so a neighbour that slows the whole core slows both sides of the ratio.
///
//===----------------------------------------------------------------------===//

#ifndef RTBENCH_YARDSTICK_H
#define RTBENCH_YARDSTICK_H

#include <cstdint>

namespace rtbench {

/// Yardstick ns per op on the reference host (a 4-vCPU KVM guest on an
/// Intel Xeon, between the p05 and the median of a quiet run). Fixed here
/// and never re-measured per run: changing it rescales every ref-* metric,
/// which then read as host time on that quiet reference core.
constexpr double ReferenceNsPerOp = 1.8;

/// Runs \p Ops yardstick operations and returns a checksum of the final
/// register state (callers fold it into a sink so the work stays live).
/// \p Seed only perturbs the initial registers; the executed op sequence
/// is the same for every seed.
uint64_t runYardstick(uint64_t Ops, uint64_t Seed);

/// Times one yardstick slice of \p Ops operations and returns ns per op.
double yardstickNsPerOp(uint64_t Ops);

} // namespace rtbench

#endif // RTBENCH_YARDSTICK_H
