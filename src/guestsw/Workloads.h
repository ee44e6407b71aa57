//===- guestsw/Workloads.h - Guest benchmark programs -----------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The guest user programs behind the paper's evaluation: twelve synthetic
/// stand-ins for SPEC CINT2006 (instruction mixes shaped to Table I —
/// memory-access share between ~22% and ~55%, branchy vs ALU-heavy cores)
/// and five real-world application proxies (memcached, sqlite, fileio,
/// untar, cpu-prime), the last set including genuinely I/O-bound programs
/// that wait on the virtual disk.
///
/// Each program runs on the mini kernel, uses SVC syscalls, prints a
/// checksum to the console (so all executors can be differentially
/// compared), and exits via the kernel's power-off path.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_GUESTSW_WORKLOADS_H
#define RDBT_GUESTSW_WORKLOADS_H

#include "sys/Platform.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rdbt {
namespace guestsw {

struct WorkloadInfo {
  const char *Name;
  bool IsSpecProxy;    ///< part of the SPEC CINT2006 set (Figs. 14-18)
  bool IsRealWorld;    ///< part of the real-world set (Fig. 19)
  const char *Sketch;  ///< one-line description of the modelled kernel
};

/// Processes behind the "ctxswitch" workload (each with its own ASID and
/// address space, round-robin scheduled through SysYield).
constexpr uint32_t CtxSwitchNumProcs = 4;

/// All workloads in presentation order (12 SPEC proxies, then 5
/// real-world proxies, then the system-level scenarios).
const std::vector<WorkloadInfo> &workloads();

/// Builds the user image for \p Name scaled by \p Scale (roughly
/// proportional to guest instructions executed; 1 = quick test size).
/// Returns an empty vector for unknown names.
std::vector<uint32_t> buildWorkloadImage(const std::string &Name,
                                         uint32_t Scale);

/// Guest RAM the workload's install layout needs (most use
/// KernelLayout::MinRam; the multi-process scenarios need room for the
/// per-process physical windows).
uint32_t requiredWorkloadRam(const std::string &Name);

/// The disk every guest boots with: pseudo-random sectors plus the
/// "untar" archive (header sector with payload length, payload,
/// repeated, then a zero header), DiskDevice::DefaultSectors long. Built
/// once per process as a PhysMem::Image whose pages are never written:
/// every seeded board's disk adopts it, and a sector write privatizes only
/// the page it lands on (DiskDevice).
const sys::PhysMem::Image &seededDisk();

/// Convenience: builds the workload, installs kernel + program into
/// \p Board and gives its disk the shared seededDisk() image. Returns
/// false for unknown names.
bool setupGuest(sys::Platform &Board, const std::string &Name,
                uint32_t Scale);

} // namespace guestsw
} // namespace rdbt

#endif // RDBT_GUESTSW_WORKLOADS_H
