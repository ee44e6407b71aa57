//===- obs/TraceSink.cpp - Per-session execution event timeline ------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceSink.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace rdbt;
using namespace rdbt::obs;

const char *obs::eventName(EventKind K) {
  switch (K) {
  case EventKind::TranslateBlock: return "translate_block";
  case EventKind::SeedBlock: return "seed_block";
  case EventKind::RuleMatch: return "rule_match";
  case EventKind::FallbackEntry: return "fallback_entry";
  case EventKind::ChainPatch: return "chain_patch";
  case EventKind::ChainUnlink: return "chain_unlink";
  case EventKind::CacheInvalidate: return "cache_invalidate";
  case EventKind::CacheFileLoad: return "cache_file_load";
  case EventKind::CacheFileSave: return "cache_file_save";
  case EventKind::SnapshotCapture: return "snapshot_capture";
  case EventKind::SnapshotFork: return "snapshot_fork";
  case EventKind::IrqDelivered: return "irq_delivered";
  case EventKind::NumEventKinds: break;
  }
  return "?";
}

uint64_t obs::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceSink::TraceSink(size_t MaxEvents)
    : Epoch_(nowNs()), MaxEvents_(MaxEvents) {}

uint64_t TraceSink::now() const { return nowNs() - Epoch_; }

void TraceSink::record(EventKind K, uint64_t A, uint64_t B, uint64_t C) {
  if (Events_.size() >= MaxEvents_) {
    ++Dropped_;
    return;
  }
  TraceEvent E;
  E.Kind = K;
  E.Ts = now();
  E.A = A;
  E.B = B;
  E.C = C;
  Events_.push_back(E);
}

void TraceSink::recordSpan(EventKind K, uint64_t BeginTs, uint64_t A,
                           uint64_t B, uint64_t C) {
  if (Events_.size() >= MaxEvents_) {
    ++Dropped_;
    return;
  }
  TraceEvent E;
  E.Kind = K;
  E.Ts = BeginTs;
  const uint64_t Now = now();
  E.Dur = Now > BeginTs ? Now - BeginTs : 0;
  E.A = A;
  E.B = B;
  E.C = C;
  Events_.push_back(E);
}

std::string TraceSink::toJson(const std::string &Label) const {
  // Chrome trace-event format, JSON object flavor: "X" complete events
  // carry ts+dur, "i" instant events just ts; timestamps are in
  // microseconds with fractional nanosecond precision. One pid/tid pair
  // per sink — a session is one timeline row.
  std::ostringstream OS;
  OS << "{\"traceEvents\": [";
  bool First = true;
  const auto Emit = [&OS, &First](const char *Text) {
    OS << (First ? "\n" : ",\n") << Text;
    First = false;
  };
  if (!Label.empty()) {
    std::string Escaped;
    for (const char C : Label) {
      if (C == '"' || C == '\\')
        Escaped += '\\';
      Escaped += C;
    }
    std::ostringstream Meta;
    Meta << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": 1, \"args\": {\"name\": \""
         << Escaped << "\"}}";
    const std::string S = Meta.str();
    Emit(S.c_str());
  }
  for (const TraceEvent &E : Events_) {
    std::ostringstream Ev;
    Ev << "  {\"name\": \"" << eventName(E.Kind) << "\", \"cat\": \"rdbt\", "
       << "\"ph\": \"" << (E.Dur ? 'X' : 'i') << "\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << E.Ts / 1000 << "." << E.Ts % 1000;
    if (E.Dur)
      Ev << ", \"dur\": " << E.Dur / 1000 << "." << E.Dur % 1000;
    else
      Ev << ", \"s\": \"t\"";
    Ev << ", \"args\": {\"a\": " << E.A << ", \"b\": " << E.B
       << ", \"c\": " << E.C << "}}";
    const std::string S = Ev.str();
    Emit(S.c_str());
  }
  OS << "\n], \"displayTimeUnit\": \"ns\", \"rdbtDroppedEvents\": "
     << Dropped_ << "}\n";
  return OS.str();
}

bool TraceSink::write(const std::string &Path,
                      const std::string &Label) const {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "obs: cannot write trace file %s\n", Path.c_str());
    return false;
  }
  OS << toJson(Label);
  return static_cast<bool>(OS);
}
