//===- vm/Snapshot.cpp - Frozen Vm session state for COW forking ------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "vm/Snapshot.h"

using namespace rdbt;
using namespace rdbt::vm;

static bool sameOpts(const core::OptConfig &A, const core::OptConfig &B) {
  return A.PackedCcr == B.PackedCcr && A.TrackFlagState == B.TrackFlagState &&
         A.InterTb == B.InterTb && A.ScheduleDefUse == B.ScheduleDefUse &&
         A.ScheduleIrq == B.ScheduleIrq;
}

std::string Snapshot::forkError(const VmConfig &Cfg) const {
  if (empty())
    return "snapshot is empty (capture() was never run on a valid Vm)";

  // Guest-software identity: the RAM image bakes in the installed
  // kernel, workload, and scale, so these must match unconditionally.
  if (Cfg.workload() != Cfg_.workload())
    return "snapshot workload '" + Cfg_.workload() +
           "' does not match fork workload '" + Cfg.workload() + "'";
  if (Cfg.scale() != Cfg_.scale())
    return "snapshot scale does not match fork scale";
  if (Cfg.ramBytes() != Cfg_.ramBytes())
    return "snapshot RAM size does not match fork RAM size";
  if (Cfg.isFlatImage() != Cfg_.isFlatImage() ||
      (Cfg.isFlatImage() && (Cfg.flatImage() != Cfg_.flatImage() ||
                             Cfg.flatImageBase() != Cfg_.flatImageBase())))
    return "snapshot flat image does not match fork flat image";

  if (!HasRun_)
    return ""; // pre-run: no executor progress, any kind may adopt

  // Warm snapshot: the captured counters, warmed code cache, and env
  // belong to one executor identity. Forking a different one would blend
  // two translators' progress into one report.
  if (Cfg.translator() != Cfg_.translator())
    return "warm snapshot was captured under translator '" +
           Cfg_.translator() + "', cannot fork '" + Cfg.translator() + "'";
  if (Cfg.hasOpts() != Cfg_.hasOpts() ||
      (Cfg.hasOpts() && !sameOpts(Cfg.opts(), Cfg_.opts())))
    return "warm snapshot optimization switches do not match fork's";
  return "";
}
