//===- tests/ProbeStream.h - Matcher probe instructions ---------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction stream the matcher tests probe rule sets with: the
/// rendered fuzz programs of every profile, decoded. It includes the
/// system/memory/branch encodings a matcher must reject and the
/// literal-pool data words (decoded as whatever they happen to be).
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_TESTS_PROBESTREAM_H
#define RDBT_TESTS_PROBESTREAM_H

#include "arm/Decoder.h"
#include "fuzz/ProgramGen.h"

#include <vector>

namespace rdbt {
namespace tests {

inline const std::vector<arm::Inst> &probeStream() {
  static const std::vector<arm::Inst> Stream = [] {
    std::vector<arm::Inst> S;
    for (const fuzz::Profile &P : fuzz::allProfiles())
      for (uint64_t Seed = 1; Seed <= 3; ++Seed)
        for (const uint32_t W : fuzz::render(fuzz::generate(Seed * 77, P)))
          S.push_back(arm::decode(W));
    return S;
  }();
  return Stream;
}

} // namespace tests
} // namespace rdbt

#endif // RDBT_TESTS_PROBESTREAM_H
