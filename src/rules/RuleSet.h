//===- rules/RuleSet.h - Rule collection and matcher ------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A prioritized rule collection with a two-level indexed matcher. Rules
/// are tried longest-pattern first, then in insertion order (specific
/// before generic), exactly like the rule-application phase of §II-A.
///
/// At corpus scale (10k+ learned rules) the matcher must not scan every
/// rule per attempt, so match() consults a *fine index*: candidate lists
/// keyed by (first guest opcode, first pattern shape, S bit). The key is
/// computable from the probed instruction alone, and every rule whose
/// first pattern could possibly match lands in exactly the probed bucket,
/// so the candidate sequence — and therefore the selected rule, the
/// consumed count, and all MatchStats counters — is identical to the
/// matchLinear() reference path that scans the whole set in priority
/// order (tests/RuleSetIndexTest.cpp holds the equivalence, up to
/// 10k-rule corpora).
///
/// Matching is const and carries no hidden state: dynamic match counters
/// live in a caller-owned MatchStats, never in the set itself, so one
/// immutable corpus can be shared read-only across concurrent sessions
/// (vm/BatchRunner.h) without any cross-session counter bleed. add() is
/// the only mutating operation; finish it before sharing the set. The one
/// other piece of state is the cached content key (contentCrc()): it is
/// filled on first use, race-free under concurrent readers, and add()
/// clears it.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_RULES_RULESET_H
#define RDBT_RULES_RULESET_H

#include "rules/Rule.h"

#include <array>
#include <atomic>
#include <memory>

namespace rdbt {
namespace rules {

/// Per-session dynamic match statistics. Each matching client (one
/// core::RuleTranslator session, a learner sweep, ...) owns its own
/// instance and passes it to RuleSet::match — the set itself stays
/// immutable during matching, which is what makes sharing one corpus
/// across worker threads safe.
struct MatchStats {
  uint64_t Attempts = 0; ///< match() calls
  uint64_t Hits = 0;     ///< calls that selected a rule
};

class RuleSet {
public:
  void add(Rule R);

  /// Finds the best rule matching the instruction sequence via the fine
  /// (opcode, shape, S) index. Returns the number of guest instructions
  /// consumed (0 = no match) and fills \p MatchedRule / \p B. \p Stats,
  /// when given, accumulates the caller's attempt/hit counters; the set
  /// itself is never mutated.
  size_t match(const arm::Inst *Insts, size_t Count, const Rule **MatchedRule,
               Binding &B, MatchStats *Stats = nullptr) const;

  /// The unindexed reference matcher: scans every rule in priority order
  /// (longest pattern first, then insertion order). Semantically
  /// identical to match() — same selected rule, consumed count, and
  /// Stats — just O(rules) per probe. Kept as the verification oracle
  /// the indexed path is tested against.
  size_t matchLinear(const arm::Inst *Insts, size_t Count,
                     const Rule **MatchedRule, Binding &B,
                     MatchStats *Stats = nullptr) const;

  size_t size() const { return Rules.size(); }
  const Rule &rule(size_t I) const { return Rules[I]; }

  /// crc32c of the canonical text writeRuleSet() emits for this set: the
  /// corpus's share of a persistent-cache key (DESIGN.md §12), so equal
  /// content keys equally whatever file or builder it came from.
  /// Serialized and hashed on first use only; concurrent first users
  /// store the same value.
  uint32_t contentCrc() const;

private:
  static constexpr size_t NumOpcodes = 64;
  static constexpr size_t NumShapes = 8; ///< PatShape values (7) rounded up
  static constexpr size_t NumFine = NumOpcodes * NumShapes * 2;

  static size_t fineKey(arm::Opcode Op, PatShape Shape, bool S) {
    return (static_cast<size_t>(Op) * NumShapes +
            static_cast<size_t>(Shape)) * 2 + (S ? 1 : 0);
  }

  std::vector<Rule> Rules;
  /// All rule indices, longest pattern first, insertion-stable — the
  /// canonical priority order matchLinear() scans.
  std::vector<int> Priority;
  /// Candidate lists per (first opcode, first shape, S), each in
  /// priority order.
  std::array<std::vector<int>, NumFine> Fine;

  /// contentCrc()'s cache: the CRC in the low 32 bits, bit 32 set once it
  /// is computed, 0 until then. A copy of the set carries it: same
  /// rules, same text.
  struct CachedCrc {
    mutable std::atomic<uint64_t> V{0};
    CachedCrc() = default;
    CachedCrc(const CachedCrc &O) : V(O.V.load()) {}
    CachedCrc &operator=(const CachedCrc &O) {
      V.store(O.V.load());
      return *this;
    }
  };
  CachedCrc Crc;
};

/// The hand-audited full-coverage rule set (the stand-in for the rule
/// corpus of [2], which the paper reuses). The learning pipeline
/// (Learner.h) regenerates an equivalent set from training programs; the
/// tests assert the learned set covers this one.
RuleSet buildReferenceRuleSet();

/// The process-wide reference corpus: one buildReferenceRuleSet(),
/// built on first use and never mutated after, which every session that
/// names neither a rule set nor a rule file shares (vm::Vm), as every
/// seeded board shares guestsw::seededDisk().
const std::shared_ptr<const RuleSet> &referenceRuleSet();

/// Copies \p RS without the rules whose *leading* guest pattern has shape
/// \p Drop — the deterministic corpus-thinning knob behind the
/// mine->learn->reload loop (bench/rulegen_loop, rdbt_rulegen --drop).
RuleSet filterRuleSetByShape(const RuleSet &RS, PatShape Drop);

} // namespace rules
} // namespace rdbt

#endif // RDBT_RULES_RULESET_H
