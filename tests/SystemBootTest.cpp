//===- tests/SystemBootTest.cpp - Whole-system boot smoke tests ------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// Boots the mini kernel with each workload under the reference
/// interpreter and under the QEMU-like translator, and checks both power
/// off cleanly with identical console output — the first layer of the
/// differential-testing story.
///
//===----------------------------------------------------------------------===//

#include "arm/AsmBuilder.h"
#include "guestsw/MiniKernel.h"
#include "guestsw/Workloads.h"
#include "sys/Interpreter.h"
#include "sys/Mmu.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace rdbt;

namespace {

std::string runUnderInterpreter(const std::string &Name, uint32_t Scale) {
  vm::Vm V(vm::VmConfig()
               .workload(Name)
               .scale(Scale)
               .translator("native")
               .wallBudget(400u * 1000 * 1000));
  if (!V.valid())
    return "<unknown workload>";
  const vm::RunReport R = V.run();
  EXPECT_TRUE(R.Ok) << Name << " did not shut down (interp), "
                    << R.guestInstrs() << " instrs";
  return R.Console;
}

std::string runUnderQemu(const std::string &Name, uint32_t Scale) {
  vm::Vm V(vm::VmConfig()
               .workload(Name)
               .scale(Scale)
               .translator("qemu")
               .wallBudget(20ull * 1000 * 1000 * 1000));
  if (!V.valid())
    return "<unknown workload>";
  const vm::RunReport R = V.run();
  EXPECT_EQ(R.Stop, dbt::StopReason::GuestShutdown) << Name;
  return R.Console;
}

class BootEveryWorkload : public ::testing::TestWithParam<const char *> {};

TEST_P(BootEveryWorkload, InterpreterAndQemuAgree) {
  const std::string Name = GetParam();
  const std::string Ref = runUnderInterpreter(Name, 1);
  ASSERT_FALSE(Ref.empty()) << "no console output from " << Name;
  EXPECT_EQ(Ref.back(), '\n');
  const std::string Qemu = runUnderQemu(Name, 1);
  EXPECT_EQ(Ref, Qemu) << "translator diverged on " << Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BootEveryWorkload,
    ::testing::Values("perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer",
                      "sjeng", "libquantum", "h264ref", "omnetpp", "astar",
                      "xalancbmk", "memcached", "sqlite", "fileio", "untar",
                      "cpu-prime"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(SystemBoot, TimerTicksAdvance) {
  vm::Vm V(vm::VmConfig::fromSpec("native/perlbench@2")
               .wallBudget(400u * 1000 * 1000));
  ASSERT_TRUE(V.valid()) << V.error();
  V.run();
  EXPECT_GT(V.board().timer().ticks(), 0u) << "timer IRQs never fired";
}

TEST(SystemBoot, DemandPagingAllocatesHeap) {
  vm::Vm V(vm::VmConfig::fromSpec("native/astar")
               .wallBudget(400u * 1000 * 1000));
  ASSERT_TRUE(V.valid()) << V.error();
  V.run();
  // The abort handler bumps the heap pointer beyond the pool base.
  const uint32_t HeapNext =
      V.board().Ram.read(guestsw::KernelLayout::VarHeapNext, 4);
  EXPECT_GT(HeapNext, guestsw::KernelLayout::HeapPhysPool);
}

/// A bare-metal guest (vectors at 0, MMU off) whose loop loads from and
/// stores to a physical hole past the end of its 8 MiB RAM twice each. Its
/// data-abort handler counts the aborts in r5, ORs their DFSRs into r6 and
/// skips the faulting instruction; the guest prints the count and powers
/// off.
std::vector<uint32_t> holeToucher() {
  using namespace arm;
  AsmBuilder A(0);
  Label Reset = A.newLabel(), Dabt = A.newLabel(), Hang = A.newLabel();
  A.b(Reset); // 0x00 reset
  A.b(Hang);  // 0x04 undefined
  A.b(Hang);  // 0x08 svc
  A.b(Hang);  // 0x0C prefetch abort
  A.b(Dabt);  // 0x10 data abort
  A.b(Hang);  // 0x14 unused
  A.b(Hang);  // 0x18 irq
  A.bind(Reset);
  A.movi(5, 0);
  A.movi(6, 0);
  A.movImm32(1, 0x0A000000u);
  A.movi(2, 2);
  const Label Loop = A.hereLabel();
  A.ldr(0, 1, 0);
  A.str(2, 1, 4);
  A.sub(2, 2, Operand2::imm(1), Cond::AL, /*S=*/true);
  A.b(Loop, Cond::NE);
  A.movImm32(12, sys::MmioUart);
  A.add(0, 5, Operand2::imm('0'));
  A.str(0, 12, sys::Uart::RegTx);
  A.str(0, 12, sys::Uart::RegShutdown);
  A.bind(Hang);
  const Label Spin = A.hereLabel();
  A.b(Spin);
  A.bind(Dabt);
  A.add(5, 5, Operand2::imm(1));
  A.mrc(Cp15Reg::DFSR, 7);
  A.alu(Opcode::ORR, 6, 6, Operand2::reg(7));
  A.eret(4); // resume after the faulting access
  return A.finish();
}

// The TLB tags only whole RAM pages: an access to a hole aborts every
// time, also when translated code's inline probe runs it again.
TEST(SystemBoot, EveryAccessToARamHoleAborts) {
  for (const char *Kind : {"native", "qemu", "rule:scheduling"}) {
    vm::Vm V(vm::VmConfig()
                 .translator(Kind)
                 .ramBytes(8 << 20)
                 .wallBudget(10u * 1000 * 1000)
                 .flatImage(holeToucher(), 0));
    ASSERT_TRUE(V.valid()) << Kind << ": " << V.error();
    const vm::RunReport R = V.run();
    EXPECT_EQ(dbt::StopReason::GuestShutdown, R.Stop) << Kind;
    EXPECT_EQ("4", R.Console) << Kind;
    EXPECT_EQ(4u, R.Final.Regs[5]) << Kind << ": data aborts taken";
    EXPECT_EQ(sys::FsrExternal, R.Final.Regs[6]) << Kind << ": DFSR";
  }
}

/// Where misalignedToucher()'s data-abort handler logs each DFAR.
constexpr uint32_t DfarLog = 0x200000;

/// A bare-metal guest (vectors at 0, MMU off) that loads and stores a word
/// at 0x100FFC, so the page's TLB entry is filled, then runs word accesses
/// at page offsets 0xFFE and 0xFFF and halfword accesses at 0xFFF and
/// 0xFFE, twice over. Only the halfword at 0xFFE is aligned. The
/// data-abort handler counts the aborts in r5, ORs their DFSRs into r6,
/// logs their DFARs from DfarLog on and skips the faulting instruction.
std::vector<uint32_t> misalignedToucher() {
  using namespace arm;
  AsmBuilder A(0);
  Label Reset = A.newLabel(), Dabt = A.newLabel(), Hang = A.newLabel();
  A.b(Reset); // 0x00 reset
  A.b(Hang);  // 0x04 undefined
  A.b(Hang);  // 0x08 svc
  A.b(Hang);  // 0x0C prefetch abort
  A.b(Dabt);  // 0x10 data abort
  A.b(Hang);  // 0x14 unused
  A.b(Hang);  // 0x18 irq
  A.bind(Reset);
  A.movi(5, 0);
  A.movi(6, 0);
  A.movImm32(8, DfarLog);
  A.movImm32(1, 0x00100FFCu);
  A.movi(2, 2);
  const Label Loop = A.hereLabel();
  A.ldr(0, 1, 0);
  A.str(2, 1, 0);
  for (int32_t Off : {2, 3}) {
    A.ldr(0, 1, Off);
    A.str(2, 1, Off);
  }
  for (int32_t Off : {3, 2}) {
    A.ldrstr(Opcode::LDRH, 0, 1, Off);
    A.ldrstr(Opcode::STRH, 2, 1, Off);
  }
  A.sub(2, 2, Operand2::imm(1), Cond::AL, /*S=*/true);
  A.b(Loop, Cond::NE);
  A.movImm32(12, sys::MmioUart);
  A.str(0, 12, sys::Uart::RegShutdown);
  A.bind(Hang);
  const Label Spin = A.hereLabel();
  A.b(Spin);
  A.bind(Dabt);
  A.add(5, 5, Operand2::imm(1));
  A.mrc(Cp15Reg::DFSR, 7);
  A.alu(Opcode::ORR, 6, 6, Operand2::reg(7));
  A.mrc(Cp15Reg::DFAR, 7);
  A.str(7, 8, 0);
  A.add(8, 8, Operand2::imm(4));
  A.eret(4); // resume after the faulting access
  return A.finish();
}

// A misaligned access never hits the inline TLB, so translated code takes
// native's alignment aborts, also on a page whose entry is filled, and no
// access runs past the page end.
TEST(SystemBoot, MisalignedAccessesAbortUnderEveryKind) {
  const uint32_t Page = 0x00100000u;
  const std::vector<uint32_t> Dfars = {
      Page + 0xFFE, Page + 0xFFE, Page + 0xFFF, Page + 0xFFF,
      Page + 0xFFF, Page + 0xFFF};
  for (const char *Kind : {"native", "qemu", "rule:scheduling"}) {
    vm::Vm V(vm::VmConfig()
                 .translator(Kind)
                 .ramBytes(8 << 20)
                 .wallBudget(10u * 1000 * 1000)
                 .flatImage(misalignedToucher(), 0));
    ASSERT_TRUE(V.valid()) << Kind << ": " << V.error();
    const vm::RunReport R = V.run();
    EXPECT_EQ(dbt::StopReason::GuestShutdown, R.Stop) << Kind;
    EXPECT_EQ(12u, R.Final.Regs[5]) << Kind << ": data aborts taken";
    EXPECT_EQ(sys::FsrAlignment, R.Final.Regs[6]) << Kind << ": DFSR";
    const sys::PhysMem &Ram = V.board().Ram;
    for (uint32_t I = 0; I < 12; ++I)
      EXPECT_EQ(Dfars[I % Dfars.size()], Ram.read(DfarLog + 4 * I, 4))
          << Kind << ": DFAR of abort " << I;
    // The last pass stored r2 = 1 by word at 0xFFC, then by halfword at
    // 0xFFE; the next page was never written.
    EXPECT_EQ(0x00010001u, Ram.read(Page + 0xFFC, 4)) << Kind;
    EXPECT_EQ(0u, Ram.read(Page + 0x1000, 4)) << Kind;
  }
}

} // namespace
