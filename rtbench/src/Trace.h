//===- rtbench/src/Trace.h - In-memory spans and a timing decorator -*- C++ -*-===//
///
/// \file
/// The traced pass's instrumentation, all on the benchmark's side of the
/// public API:
///
///  - SpanLog keeps spans (name, start, end, parent, session id) in memory.
///    The benchmark opens one around each public call it makes (Vm::Vm,
///    runToBootMark, capture, forkFrom, Vm::run,
///    guestsw::buildWorkloadImage); a layer's self time is its span time
///    minus the time its child spans cover.
///  - The "rtbench.rule" / "rtbench.qemu" translator kinds forward to the
///    registry's own "rule:scheduling" / "qemu" factories and time every
///    Translator::translate call as a child span of the Vm::run (or Vm::Vm)
///    span that triggered it. The rule decorator also keeps the guest
///    blocks it saw, so RuleSet::match can be timed by replaying them.
///
/// Vm reads rule-coverage and matcher counters through a cast to
/// core::RuleTranslator, which the decorator hides; those counts come
/// from the untraced pass instead.
///
//===----------------------------------------------------------------------===//

#ifndef RTBENCH_TRACE_H
#define RTBENCH_TRACE_H

#include "dbt/GuestBlock.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rtbench {

uint64_t nowNs();

struct Span {
  const char *Name = nullptr; ///< a string literal
  uint64_t Start = 0;
  uint64_t End = 0;
  int32_t Parent = -1;
  uint32_t Session = 0;
};

class SpanLog {
public:
  /// Opens a span as a child of the innermost open span.
  int32_t open(const char *Name, uint32_t Session);
  void close(int32_t Id);

  /// Session id of the innermost open span (0 when none is open).
  uint32_t currentSession() const {
    return Stack.empty() ? 0 : Spans[Stack.back()].Session;
  }

  const std::vector<Span> &spans() const { return Spans; }
  /// Self time (ns) of every span: its duration minus its children's.
  /// Children never overlap because the benchmark is single-threaded.
  std::vector<double> selfTimes() const;

  /// Guest blocks the rule decorator translated (capped).
  std::vector<std::vector<rdbt::arm::Inst>> RuleBlocks;
  static constexpr size_t MaxRuleBlocks = 20000;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span; a null log makes it a no-op (the untraced pass).
class ScopedSpan {
public:
  ScopedSpan(SpanLog *L, const char *Name, uint32_t Session)
      : Log(L), Id(L ? L->open(Name, Session) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  int32_t Id;
};

/// Span names for the decorated translators.
constexpr const char *RuleTranslateSpan = "core::RuleTranslator::translate";
constexpr const char *QemuTranslateSpan = "ir::QemuTranslator::translate";

/// Registers the decorated kinds once (idempotent) and returns the
/// registry name to use for \p BaseKind ("rule:scheduling" or "qemu"),
/// or "" when registration failed.
std::string decoratedKind(const std::string &BaseKind);

/// Points the decorators at \p Log (null detaches).
void attachSpanLog(SpanLog *Log);

} // namespace rtbench

#endif // RTBENCH_TRACE_H
