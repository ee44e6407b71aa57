//===- examples/compare_translators.cpp - Side-by-side code dumps ------------===//
//
// Part of RuleDBT. Translates one guest basic block with each requested
// translator kind and dumps the host code with per-instruction cost
// classes — the clearest way to *see* sync-save/sync-restore and what
// each optimization removes.
//
// Usage:
//   compare_translators                 qemu, rule:base, rule:scheduling
//   compare_translators <kind>...       any registered kinds
//   compare_translators --list          registered kinds
//
//===----------------------------------------------------------------------===//

#include "arm/AsmBuilder.h"
#include "arm/Disasm.h"
#include "host/HostDisasm.h"
#include "vm/Vm.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

void listKinds() {
  std::printf("translator kinds:\n");
  for (const std::string &Kind : vm::TranslatorRegistry::global().kinds()) {
    const vm::TranslatorRegistry::KindInfo *K =
        vm::TranslatorRegistry::global().find(Kind);
    std::printf("  %-18s %s%s\n", Kind.c_str(), K->Label.c_str(),
                K->UsesEngine ? "" : "  (interpreter-executed: no host code)");
  }
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Kinds;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--list") || !std::strcmp(argv[I], "--help") ||
        !std::strcmp(argv[I], "-h")) {
      std::printf("usage: %s [kind...]\n\n", argv[0]);
      listKinds();
      return 0;
    }
    Kinds.push_back(argv[I]);
  }
  if (Kinds.empty())
    Kinds = {"qemu", "rule:base", "rule:scheduling"};

  // The paper's running example shape: a flag def, a memory access in
  // between, and a conditional use (Fig. 12's scheduling pattern).
  arm::AsmBuilder A(0x1000);
  A.cmp(0, arm::Operand2::imm(0));
  A.ldr(2, 1, 0x1C);
  A.alu(arm::Opcode::ADD, 3, 3, arm::Operand2::imm(1));
  arm::Label L = A.newLabel();
  A.b(L, arm::Cond::NE);
  A.bind(L);
  const std::vector<uint32_t> Words = A.finish();

  sys::Platform Board(8 << 20);
  Board.Ram.loadWords(0x1000, Words);
  sys::Mmu Mmu(Board.Env, Board);
  dbt::GuestBlock GB;
  sys::Fault F;
  dbt::fetchGuestBlock(Mmu, 0x1000, 0, GB, F);

  std::printf("=== guest block ===\n");
  for (size_t I = 0; I < GB.Insts.size(); ++I)
    std::printf("  0x%08x  %s\n", GB.pcOf(I),
                arm::disassemble(GB.Insts[I], GB.pcOf(I)).c_str());

  const rules::RuleSet Rules = rules::buildReferenceRuleSet();
  vm::TranslatorRegistry::Context Ctx;
  Ctx.Rules = &Rules;

  for (const std::string &Kind : Kinds) {
    const vm::TranslatorRegistry::KindInfo *K =
        vm::TranslatorRegistry::global().find(Kind);
    if (!K) {
      std::fprintf(stderr, "unknown translator kind '%s'\n\n", Kind.c_str());
      listKinds();
      return 1;
    }
    if (!K->UsesEngine) {
      std::printf("\n=== %s: interpreter-executed, no host code to dump ===\n",
                  Kind.c_str());
      continue;
    }
    const auto Xlat = vm::TranslatorRegistry::global().create(Kind, Ctx);
    if (!Xlat) {
      std::fprintf(stderr, "translator factory for '%s' failed\n", Kind.c_str());
      return 1;
    }
    host::HostBlock Out;
    Xlat->translate(GB, Out);
    unsigned Sync = 0, Total = 0;
    for (const host::HInst &H : Out.Code) {
      if (H.Op == host::HOp::Marker)
        continue;
      // A probe stands for the 12 instructions of its hit path.
      Total += H.Op == host::HOp::Probe ? host::ProbeHitCycles : 1;
      Sync += H.Cls == host::CostClass::Sync;
    }
    std::printf("\n=== %s (%s): %u host instrs, %u sync ===\n%s",
                Kind.c_str(), Xlat->name(), Total, Sync,
                host::disassembleBlock(Out).c_str());
  }
  return 0;
}
