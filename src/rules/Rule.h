//===- rules/Rule.h - Learned translation rules -----------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parameterized translation rule representation (the "one-to-one"
/// mapping of the learning-based approach [2,3,4]). A rule pairs a guest
/// instruction pattern — with register/immediate parameters and an
/// opcode *class* that lumps together ALU-type instructions (§II-A's
/// parameterization) — with a host template that the rule-based
/// translator instantiates directly, keeping guest registers pinned in
/// host registers and guest flags in the host flag register.
///
/// Rules are produced two ways: by the automatic learning pipeline
/// (rules/Learner.h: toy compilers + fragment extraction + symbolic
/// verification + parameterization) and by buildReferenceRuleSet(), a
/// hand-audited set used to cross-check the learner's coverage.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_RULES_RULE_H
#define RDBT_RULES_RULE_H

#include "arm/Isa.h"
#include "host/HostEmitter.h"

#include <string>
#include <vector>

namespace rdbt {
namespace rules {

/// Maximum register / immediate parameters per rule.
constexpr unsigned MaxRegParams = 6;
constexpr unsigned MaxImmParams = 2;

/// One guest-opcode-to-host-opcode pair inside an opcode class.
struct OpClassEntry {
  arm::Opcode Guest;
  host::HOp Host;
};

/// The shape of one guest instruction pattern.
enum class PatShape : uint8_t {
  DpImm,         ///< data-processing, immediate operand 2
  DpReg,         ///< data-processing, plain register operand 2
  DpRegShiftImm, ///< data-processing, register shifted by immediate
  Mul,           ///< mul rd, rm, rs
  Mla,           ///< mla rd, rm, rs, ra
  MulLong,       ///< umull/smull rdlo, rdhi, rm, rs
  Clz,
};

/// Matches one guest instruction. Field parameters are indices into the
/// binding's register/immediate arrays; -1 means "exact match required"
/// (using the *Exact fields) or "unused".
struct RulePattern {
  uint8_t ClassIdx = 0; ///< index into Rule::Classes
  PatShape Shape = PatShape::DpReg;
  bool SetFlags = false; ///< S bit must equal this
  int8_t Rd = -1, Rn = -1, Rm = -1, Rs = -1;
  int8_t ImmP = -1;
  uint32_t ImmExact = 0;
  arm::ShiftKind Shift = arm::ShiftKind::LSL;
  int8_t ShAmtP = -1;
  uint8_t ShAmtExact = 0;
};

/// Operand encoding for host template fields: >= 0 is a register
/// parameter index, OperandScratch is the translator scratch register,
/// OperandNone is unused.
enum : int8_t { OperandNone = -1, OperandScratch = -2 };

/// One host instruction template. The host opcode comes from the matched
/// opcode-class entry when UseClassHostOp is set (this is what makes one
/// rule cover the whole ALU class).
struct HostTemplateOp {
  host::HOp Op = host::HOp::Nop;
  bool UseClassHostOp = false;
  bool SetFlagsFromGuest = false; ///< propagate the pattern's S bit
  bool SetFlags = false;          ///< or force it
  int8_t Dst = OperandNone;
  int8_t Src = OperandNone;
  int8_t Src2 = OperandNone;
  int8_t ImmP = -1; ///< immediate parameter index, or -1 for ImmExact
  uint32_t ImmExact = 0;
  bool UseImm = false;
  /// Skip this template op when the bound Dst and Src registers are
  /// identical (the two-address mov-elision the learner discovers).
  bool SkipIfDstEqSrc = false;
};

/// Values bound by a successful match.
struct Binding {
  uint8_t Reg[MaxRegParams] = {};
  uint32_t Imm[MaxImmParams] = {};
  arm::Cond C = arm::Cond::AL;
  bool SetFlags = false;
  unsigned ClassEntry = 0; ///< which OpClassEntry matched, per pattern 0
};

/// A translation rule: guest pattern sequence -> host template.
struct Rule {
  std::string Name;
  std::vector<std::vector<OpClassEntry>> Classes;
  std::vector<RulePattern> Guest;
  std::vector<HostTemplateOp> Host;
  bool DefinesFlags = false; ///< host template leaves guest flags in
                             ///< host flags
  bool Verified = false;     ///< passed symbolic-equivalence verification
  int8_t SourceLine = -1;    ///< training-corpus line (learned rules)
  /// Pairs of register parameters that must bind to different guest
  /// registers (two-address templates are unsafe under some aliasing).
  std::vector<std::pair<int8_t, int8_t>> Distinct;
};

/// Attempts to match \p R against \p Insts (at least R.Guest.size()
/// entries). All instructions must share one condition, which binds to
/// Binding::C. Returns true and fills \p B on success.
bool matchRule(const Rule &R, const arm::Inst *Insts, size_t Count,
               Binding &B);

/// Instantiates \p R's host template with binding \p B into \p E. Guest
/// register parameter i refers to pinned host register B.Reg[i].
void emitRule(const Rule &R, const Binding &B, host::HostEmitter &E);

/// Pretty-prints a rule (serialization lives in RuleSet).
std::string ruleToString(const Rule &R);

} // namespace rules
} // namespace rdbt

#endif // RDBT_RULES_RULE_H
