//===- obs/TraceSink.h - Per-session execution event timeline ---*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability subsystem (DESIGN.md §13): a
/// per-session, lock-free sink of typed execution events with monotonic
/// host timestamps, written out as Chrome trace-event JSON so a timeline
/// loads directly into chrome://tracing or Perfetto.
///
/// Lock-free by ownership, not by atomics: every vm::Vm owns exactly one
/// sink and every instrumented module (engine, code cache, translator)
/// belongs to exactly one Vm, so all record() calls for a sink come from
/// the thread running that session — including BatchRunner workers, where
/// each forked session carries its own sink. Events are fixed-size PODs
/// appended to a vector; a record() is a bounds check plus a store.
///
/// Overhead when disabled is zero by construction: the instrumented
/// modules hold a plain TraceSink pointer that is null unless
/// VmConfig::trace(path) armed the session, and the RDBT_TRACE macros
/// compile to a single null check. Timestamps come from the host
/// steady clock, never from the simulated wall — tracing can never
/// perturb a simulated counter, a guest console byte, or the perf gate.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_OBS_TRACESINK_H
#define RDBT_OBS_TRACESINK_H

#include <cstdint>
#include <string>
#include <vector>

namespace rdbt {
namespace obs {

/// The event taxonomy (DESIGN.md §13 documents each point's site and
/// argument meaning).
enum class EventKind : uint8_t {
  TranslateBlock, ///< span: A=guest PC, B=host code bytes, C=guest instrs
  SeedBlock,      ///< instant: block seeded from the persistent store; A=PC
  RuleMatch,   ///< instant: per-block matcher outcome; A=PC, B=hits, C=misses
  FallbackEntry,  ///< instant: emulate-helper entry; A=guest PC
  ChainPatch,     ///< instant: A=from TB, B=to TB, C=1 if flag-save elided
  ChainUnlink,    ///< instant: A=invalidated TB, B=incoming edges unlinked
  CacheInvalidate, ///< instant: A=scope (0 full, 1 ASID, 2 page), B=operand,
                   ///< C=blocks dropped
  CacheFileLoad,  ///< instant: A=outcome (0 hit, 1 rejected, 2 absent)
  CacheFileSave,  ///< instant: A=blocks serialized
  SnapshotCapture, ///< instant: A=live TBs captured
  SnapshotFork,    ///< instant: fork adopted a snapshot; A=adopted TBs
  IrqDelivered,    ///< instant: A=vector PC after delivery
  NumEventKinds,
};

/// Host steady-clock nanoseconds: the one clock behind trace timestamps,
/// vm::Timing and every tool that reports host time.
uint64_t nowNs();

/// The stable timeline name of \p K ("translate_block", "chain_patch",
/// ...), used for the Chrome trace "name" field and grep-able by CI.
const char *eventName(EventKind K);

/// One recorded event. Ts/Dur are host-steady nanoseconds relative to the
/// sink's construction; A/B/C are kind-specific arguments.
struct TraceEvent {
  EventKind Kind = EventKind::TranslateBlock;
  uint64_t Ts = 0;
  uint64_t Dur = 0; ///< spans only; 0 = instant event
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;
};

class TraceSink {
public:
  /// \p MaxEvents bounds the sink's memory; recording past it counts
  /// dropped events instead of growing (the written JSON reports the
  /// drop count, so a truncated timeline is never silent).
  explicit TraceSink(size_t MaxEvents = DefaultMaxEvents);

  /// Host-steady nanoseconds since this sink was constructed. Monotonic
  /// by the clock's contract; every recorded Ts uses it.
  uint64_t now() const;

  /// Records an instant event stamped now().
  void record(EventKind K, uint64_t A = 0, uint64_t B = 0, uint64_t C = 0);

  /// Records a span that started at \p BeginTs (a prior now() sample) and
  /// ends now().
  void recordSpan(EventKind K, uint64_t BeginTs, uint64_t A = 0,
                  uint64_t B = 0, uint64_t C = 0);

  const std::vector<TraceEvent> &events() const { return Events_; }
  size_t size() const { return Events_.size(); }
  uint64_t dropped() const { return Dropped_; }

  /// The whole timeline as a Chrome trace-event JSON document
  /// ({"traceEvents": [...], ...}), loadable by chrome://tracing and
  /// Perfetto. \p Label names the process row (the session spec).
  std::string toJson(const std::string &Label = std::string()) const;

  /// Writes toJson() to \p Path; false (with a note on stderr) when the
  /// file cannot be written.
  bool write(const std::string &Path,
             const std::string &Label = std::string()) const;

  static constexpr size_t DefaultMaxEvents = 1u << 20;

private:
  uint64_t Epoch_ = 0;
  size_t MaxEvents_;
  uint64_t Dropped_ = 0;
  std::vector<TraceEvent> Events_;
};

} // namespace obs
} // namespace rdbt

#endif // RDBT_OBS_TRACESINK_H
