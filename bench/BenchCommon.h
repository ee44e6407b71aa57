//===- bench/BenchCommon.h - Shared benchmark harness -----------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness the bench binaries and tools/rdbt_scenarios share: the
/// counter record of one session (RunStats), the matrix JSON with its one
/// writer (formatMatrixJson), its one reader (parseMatrixJson) and the
/// exact-count gate over both (gateMatrix), the paper's tables read off a
/// scenario matrix (formatPaperFigures), and positive-integer parsing for
/// flags and env vars. Absolute numbers come from the simulated host
/// (host instructions = wall cycles); see EXPERIMENTS.md for the
/// paper-vs-measured comparison.
///
/// RDBT_BENCH_SCALE (env) scales the bench binaries' workload iteration
/// counts (default 4; a value that is not a positive decimal is an error).
/// RDBT_BENCH_JSON (env), when set, makes each binary also write its raw
/// counters and derived series to BENCH_<name>.json (the variable's
/// value is the output directory; "1" or empty means the current directory;
/// a directory that cannot be written is an error).
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_BENCH_BENCHCOMMON_H
#define RDBT_BENCH_BENCHCOMMON_H

#include "guestsw/Workloads.h"
#include "vm/Vm.h"

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace rdbt {
namespace bench {

struct RunStats {
  uint64_t Wall = 0;        ///< emulation cost in host cycles
  uint64_t GuestInstrs = 0; ///< guest instructions retired
  uint64_t MemInstrs = 0;
  uint64_t SysInstrs = 0;
  uint64_t IrqChecks = 0;
  uint64_t SyncInstrs = 0; ///< CostClass::Sync host instructions
  uint64_t SyncOps = 0;
  uint64_t HostInstrs = 0; ///< all executed host instructions + helper cost
  // Translation-cache behavior (zero for the native executor).
  uint64_t CacheFlushes = 0;
  uint64_t TbsInvalidated = 0;
  uint64_t TbsRetained = 0;
  uint64_t LiveTbs = 0;
  uint64_t Retranslations = 0;
  uint64_t RetranslatedGuestInstrs = 0;
  // Rule-translator coverage and pattern matcher statistics (zero for
  // non-rule kinds).
  uint64_t RuleCoveredInstrs = 0;
  uint64_t FallbackInstrs = 0;
  uint64_t RuleMatchAttempts = 0;
  uint64_t RuleMatchHits = 0;
  // Translation-gap profile (zero unless a GapMiner was attached).
  uint64_t GapSeqs = 0;
  uint64_t GapTranslations = 0;
  uint64_t GapExecs = 0;
  // Translation work actually performed, and persistent-cache provenance
  // (dbt/CodeCacheIo.h). A warm boot against a complete cache file shows
  // Translations == 0 with LoadedTbs covering every block; a run without
  // a cache dir — or a cold run against an absent file — shows all three
  // provenance counters at zero.
  uint64_t Translations = 0;
  uint64_t TranslatedGuestInstrs = 0;
  uint64_t CacheFileHits = 0;
  uint64_t CacheFileMisses = 0;
  uint64_t LoadedTbs = 0;
  // Interpreter decoded-instruction cache behavior (DESIGN.md §14).
  // Deterministic for a deterministic run, but configuration-dependent by
  // design (",ifp=off" forces every decode to a miss), so the matrix gate
  // waives the interp_* fields of a run made with --ifp off (gateMatrix).
  uint64_t InterpDecodeHits = 0;
  uint64_t InterpDecodeMisses = 0;
  // Observability results (vm::RunReport::ObsStats), present only when
  // the run was traced. Emitted as the obs_* field family, which the
  // matrix gate waives for a traced run (gateMatrix).
  vm::RunReport::ObsStats Obs;
  bool Ok = false;

  double hostPerGuest() const {
    return GuestInstrs ? static_cast<double>(Wall) / GuestInstrs : 0;
  }
  double syncPerGuest() const {
    return GuestInstrs ? static_cast<double>(SyncInstrs) / GuestInstrs : 0;
  }
};

/// Parses \p S, the value of the env var or flag \p Name, as a decimal
/// in [\p Min, \p Max]. Anything else (empty, signs, spaces, trailing
/// junk, out of range, overflow) prints a message naming \p Name and
/// returns false, so a mistyped number never falls back to a default.
inline bool parseDecimal(const char *Name, const char *S, uint64_t Min,
                         uint64_t Max, uint64_t &Out) {
  uint64_t V = 0;
  bool Overflow = false;
  const char *P = S;
  for (; *P >= '0' && *P <= '9'; ++P) {
    const uint64_t Digit = static_cast<uint64_t>(*P - '0');
    Overflow |= V > (UINT64_MAX - Digit) / 10;
    V = V * 10 + Digit;
  }
  if (P == S || *P || Overflow || V < Min || V > Max) {
    std::fprintf(stderr, "%s: '%s' is not a decimal number in [%llu, %llu]\n",
                 Name, S, static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max));
    return false;
  }
  Out = V;
  return true;
}

/// parseDecimal for counts: a positive decimal that fits in 32 bits.
inline bool parsePositive(const char *Name, const char *S, uint32_t &Out) {
  uint64_t V = 0;
  if (!parseDecimal(Name, S, 1, UINT32_MAX, V))
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

/// RDBT_BENCH_SCALE, default 4; exits with status 2 on a malformed value.
inline uint32_t benchScale() {
  const char *S = std::getenv("RDBT_BENCH_SCALE");
  uint32_t Scale = 4;
  if (S && !parsePositive("RDBT_BENCH_SCALE", S, Scale))
    std::exit(2);
  return Scale;
}

inline RunStats fromReport(const vm::RunReport &R, bool EngineRun = true) {
  RunStats S;
  S.Ok = R.Ok;
  S.Wall = R.wall();
  S.GuestInstrs = R.guestInstrs();
  S.MemInstrs = R.memInstrs();
  S.SysInstrs = R.sysInstrs();
  S.IrqChecks = R.irqChecks();
  S.SyncInstrs = R.syncInstrs();
  S.SyncOps = R.syncOps();
  // The native baseline reports no host-side cost (1 guest instruction =
  // 1 native cycle, already in Wall).
  S.HostInstrs = EngineRun ? R.wall() : 0;
  S.CacheFlushes = R.Cache.Flushes;
  S.TbsInvalidated = R.Cache.TbsInvalidated;
  S.TbsRetained = R.Cache.TbsRetained;
  S.LiveTbs = R.Cache.LiveTbs;
  S.Retranslations = R.Cache.Retranslations;
  S.RetranslatedGuestInstrs = R.Cache.RetranslatedGuestInstrs;
  S.RuleCoveredInstrs = R.RuleCoveredInstrs;
  S.FallbackInstrs = R.FallbackInstrs;
  S.RuleMatchAttempts = R.RuleMatchAttempts;
  S.RuleMatchHits = R.RuleMatchHits;
  S.GapSeqs = R.Profile.GapSeqs;
  S.GapTranslations = R.Profile.GapTranslations;
  S.GapExecs = R.Profile.GapExecs;
  S.Translations = R.Engine.Translations;
  S.TranslatedGuestInstrs = R.Engine.TranslatedGuestInstrs;
  S.CacheFileHits = R.Cache.CacheFileHits;
  S.CacheFileMisses = R.Cache.CacheFileMisses;
  S.LoadedTbs = R.Cache.LoadedTbs;
  S.InterpDecodeHits = R.InterpDecodeHits;
  S.InterpDecodeMisses = R.InterpDecodeMisses;
  S.Obs = R.Obs;
  return S;
}

//===----------------------------------------------------------------------===//
// Optional BENCH_*.json emission (see RDBT_BENCH_JSON above). Binaries
// push the runs they make into JsonRecorder::Runs with their raw counters
// and add derived series with recordMetric(). writeBenchJson() at the end
// of main() dumps both, so downstream tooling can recompute any series
// from the raw runs.
//===----------------------------------------------------------------------===//

struct JsonRecorder {
  struct Run {
    std::string Workload;
    std::string Config;
    RunStats S;
  };
  struct Metric {
    std::string Series;
    std::string Point;
    double Value;
  };
  std::vector<Run> Runs;
  std::vector<Metric> Metrics;

  static JsonRecorder &get() {
    static JsonRecorder R;
    return R;
  }
};

/// Records one point of a derived series (e.g. series "speedup_fullopt",
/// point "perlbench", value 1.36) for BENCH_*.json emission.
inline void recordMetric(const std::string &Series, const std::string &Point,
                         double Value) {
  JsonRecorder::get().Metrics.push_back({Series, Point, Value});
}

inline std::string jsonEscape(const std::string &In) {
  std::string Out;
  for (const char C : In) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// Emits the canonical RunStats counter fields (the key set every
/// BENCH_*.json run record and BENCH_matrix.json cell shares) — integer
/// counters only, in a fixed order, so two emissions of equal stats are
/// byte-identical. A traced run additionally carries the obs_* field
/// family (flat scalars, so parseMatrixJson reads them and a traced
/// run's gate can waive them by name); an untraced run emits no obs_*
/// field at all, keeping its document byte-identical to pre-obs output.
template <typename Stream>
inline void writeRunStatsFields(Stream &OS, const RunStats &S) {
  OS << "\"ok\": " << (S.Ok ? "true" : "false") << ", \"wall\": " << S.Wall
     << ", \"guest_instrs\": " << S.GuestInstrs
     << ", \"mem_instrs\": " << S.MemInstrs
     << ", \"sys_instrs\": " << S.SysInstrs
     << ", \"irq_checks\": " << S.IrqChecks
     << ", \"sync_instrs\": " << S.SyncInstrs
     << ", \"sync_ops\": " << S.SyncOps
     << ", \"host_instrs\": " << S.HostInstrs
     << ", \"cache_flushes\": " << S.CacheFlushes
     << ", \"tbs_invalidated\": " << S.TbsInvalidated
     << ", \"tbs_retained\": " << S.TbsRetained
     << ", \"live_tbs\": " << S.LiveTbs
     << ", \"retranslations\": " << S.Retranslations
     << ", \"retranslated_guest_instrs\": " << S.RetranslatedGuestInstrs
     << ", \"rule_covered_instrs\": " << S.RuleCoveredInstrs
     << ", \"fallback_instrs\": " << S.FallbackInstrs
     << ", \"rule_match_attempts\": " << S.RuleMatchAttempts
     << ", \"rule_match_hits\": " << S.RuleMatchHits
     << ", \"gap_seqs\": " << S.GapSeqs
     << ", \"gap_translations\": " << S.GapTranslations
     << ", \"gap_execs\": " << S.GapExecs
     << ", \"translations\": " << S.Translations
     << ", \"translated_guest_instrs\": " << S.TranslatedGuestInstrs
     << ", \"cache_file_hits\": " << S.CacheFileHits
     << ", \"cache_file_misses\": " << S.CacheFileMisses
     << ", \"loaded_tbs\": " << S.LoadedTbs
     << ", \"interp_decode_hits\": " << S.InterpDecodeHits
     << ", \"interp_decode_misses\": " << S.InterpDecodeMisses;
  if (S.Obs.Enabled) {
    OS << ", \"obs_events\": " << S.Obs.Events
       << ", \"obs_dropped_events\": " << S.Obs.Dropped;
    for (const auto &C : S.Obs.Metrics.counters())
      OS << ", \"obs_" << jsonEscape(C.first) << "\": " << C.second;
    for (const auto &H : S.Obs.Metrics.histograms()) {
      const std::string N = jsonEscape(H.first);
      OS << ", \"obs_" << N << "_count\": " << H.second.Count << ", \"obs_"
         << N << "_sum\": " << H.second.Sum << ", \"obs_" << N
         << "_max\": " << H.second.Max;
    }
  }
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (const double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// One cell of a scenario matrix: a stable "<kind>/<workload>@<scale>"
/// key and the measured counters.
struct MatrixCell {
  std::string Key;
  RunStats S;
};

/// Serializes a scenario matrix to the BENCH_matrix.json document the
/// exact-count gate reads (gateMatrix, bench/baselines/): cells in
/// submission order under "matrix", integer counters only. Byte-identical
/// for equal inputs, so a parallel matrix run reproduces the serial
/// document exactly (vm/BatchRunner.h).
inline std::string formatMatrixJson(const std::vector<MatrixCell> &Cells,
                                    uint32_t Scale) {
  std::ostringstream OS;
  OS << "{\n  \"bench\": \"matrix\",\n  \"scale\": " << Scale
     << ",\n  \"matrix\": {";
  for (size_t I = 0; I < Cells.size(); ++I) {
    OS << (I ? ",\n" : "\n") << "    \"" << jsonEscape(Cells[I].Key)
       << "\": {";
    writeRunStatsFields(OS, Cells[I].S);
    OS << "}";
  }
  OS << "\n  }\n}\n";
  return OS.str();
}

/// A matrix document as parseMatrixJson reads it: the "scale" value and
/// each cell's fields in document order. Values stay the text the writer
/// emitted; the gate compares them exactly and does no arithmetic.
struct MatrixDoc {
  struct Cell {
    std::string Key;
    std::vector<std::pair<std::string, std::string>> Fields;

    const std::string *field(const std::string &Name) const {
      for (const auto &F : Fields)
        if (F.first == Name)
          return &F.second;
      return nullptr;
    }
  };
  std::string Scale; ///< "" if the document has none
  std::vector<Cell> Cells;

  const Cell *cell(const std::string &Key) const {
    for (const Cell &C : Cells)
      if (C.Key == Key)
        return &C;
    return nullptr;
  }
};

/// The one reader of the matrix JSON, for the subset formatMatrixJson
/// writes: a top-level object of scalar and string members whose
/// "matrix" member maps cell keys to flat objects of scalar fields.
/// Anything else, a repeated cell key or field name, or a document
/// without "matrix" returns false with a message in \p Error.
inline bool parseMatrixJson(const std::string &Text, MatrixDoc &Doc,
                            std::string &Error) {
  Doc = MatrixDoc();
  size_t P = 0;
  const auto Space = [&] {
    return P < Text.size() && (Text[P] == ' ' || Text[P] == '\n' ||
                               Text[P] == '\t' || Text[P] == '\r');
  };
  const auto SkipSpace = [&] {
    while (Space())
      ++P;
  };
  const auto Eat = [&](char C) {
    SkipSpace();
    if (P >= Text.size() || Text[P] != C)
      return false;
    ++P;
    return true;
  };
  const auto Fail = [&](const std::string &Msg) {
    Error = Msg + " at byte " + std::to_string(P);
    return false;
  };
  const auto String = [&](std::string &Out) {
    if (!Eat('"'))
      return false;
    Out.clear();
    for (; P < Text.size() && Text[P] != '"'; ++P) {
      if (Text[P] == '\\' && P + 1 < Text.size())
        ++P; // the writer escapes only '"' and '\\' (jsonEscape)
      Out += Text[P];
    }
    return Eat('"');
  };
  const auto Scalar = [&](std::string &Out) {
    SkipSpace();
    const size_t Begin = P;
    while (P < Text.size() && Text[P] != ',' && Text[P] != '}' && !Space())
      ++P;
    Out = Text.substr(Begin, P - Begin);
    return !Out.empty();
  };
  // The members of one object: Member(Name) reads the value after
  // `"Name":`.
  const auto Members = [&](const char *What, auto &&Member) {
    if (!Eat('{'))
      return Fail(std::string("expected '{' to open ") + What);
    if (Eat('}'))
      return true;
    do {
      std::string Name;
      if (!String(Name))
        return Fail(std::string("expected a member name in ") + What);
      if (!Eat(':'))
        return Fail("expected ':' after \"" + Name + "\"");
      if (!Member(Name))
        return false;
    } while (Eat(','));
    return Eat('}') || Fail(std::string("expected ',' or '}' in ") + What);
  };
  const auto CellMember = [&](const std::string &Key) {
    if (Doc.cell(Key))
      return Fail("repeated cell \"" + Key + "\"");
    Doc.Cells.push_back({Key, {}});
    MatrixDoc::Cell &C = Doc.Cells.back();
    return Members("a cell", [&](const std::string &Name) {
      std::string Value;
      if (!Scalar(Value))
        return Fail("expected a scalar value for " + Key + "." + Name);
      if (C.field(Name))
        return Fail("repeated field " + Key + "." + Name);
      C.Fields.emplace_back(Name, std::move(Value));
      return true;
    });
  };
  bool HaveMatrix = false;
  const auto TopMember = [&](const std::string &Name) {
    if (Name == "matrix") {
      HaveMatrix = true;
      return Members("\"matrix\"", CellMember);
    }
    std::string Value;
    SkipSpace();
    const bool Quoted = P < Text.size() && Text[P] == '"';
    if (!(Quoted ? String(Value) : Scalar(Value)))
      return Fail("expected a value for \"" + Name + "\"");
    if (Name == "scale")
      Doc.Scale = Value;
    return true;
  };
  if (!Members("the document", TopMember))
    return false;
  SkipSpace();
  if (P != Text.size())
    return Fail("trailing text after the document");
  if (!HaveMatrix)
    return Fail("no \"matrix\" object");
  return true;
}

/// The one exact comparison of two cells: calls
/// \p Report(Name, BaseValue, CurValue, Waived) for every field whose
/// value differs or that only one side has (the other side's value is
/// null), Base's fields first in order, then the ones only Cur has.
/// \p Waived(Name) says whether a difference in that field is excused.
/// Returns the number of unwaived differences.
template <typename WaivedFn, typename ReportFn>
inline int compareCells(const MatrixDoc::Cell &Base,
                        const MatrixDoc::Cell &Cur, WaivedFn Waived,
                        ReportFn Report) {
  int Unwaived = 0;
  const auto Note = [&](const std::string &Name, const std::string *B,
                        const std::string *C) {
    const bool W = Waived(Name);
    Unwaived += !W;
    Report(Name, B, C, W);
  };
  for (const auto &F : Base.Fields) {
    const std::string *V = Cur.field(F.first);
    if (!V || *V != F.second)
      Note(F.first, &F.second, V);
  }
  for (const auto &F : Cur.Fields)
    if (!Base.field(F.first))
      Note(F.first, nullptr, &F.second);
  return Unwaived;
}

/// Exact-count comparison of two matrix documents. Appends one "FAIL: ..."
/// line per unwaived difference to \p Diffs, then one "allowed: ..." line
/// per prefix of \p WaivedPrefixes that excused any, counting the
/// differing fields and the cells they are in, and returns the number of
/// FAIL lines. A scale mismatch and a cell on one side only always fail:
/// no waiver excuses a missing or new scenario.
inline int compareMatrices(const MatrixDoc &Base, const MatrixDoc &Cur,
                           const std::vector<std::string> &WaivedPrefixes,
                           std::vector<std::string> &Diffs) {
  int Regressions = 0;
  const auto Fail = [&](const std::string &Line) {
    Diffs.push_back("FAIL: " + Line);
    ++Regressions;
  };
  const auto WaiverOf = [&](const std::string &Field) -> size_t {
    size_t P = 0;
    while (P < WaivedPrefixes.size() &&
           Field.compare(0, WaivedPrefixes[P].size(), WaivedPrefixes[P]) != 0)
      ++P;
    return P; // WaivedPrefixes.size(): not waived
  };
  // Per prefix: differing fields, and cells holding one.
  std::vector<std::pair<size_t, size_t>> Excused(WaivedPrefixes.size());
  if (Base.Scale != Cur.Scale)
    Fail("scale mismatch: baseline " + Base.Scale + ", current " + Cur.Scale);
  for (const MatrixDoc::Cell &B : Base.Cells) {
    const MatrixDoc::Cell *C = Cur.cell(B.Key);
    if (!C) {
      Fail(B.Key + ": missing from current run");
      continue;
    }
    std::vector<bool> InCell(WaivedPrefixes.size());
    Regressions += compareCells(
        B, *C,
        [&](const std::string &Field) {
          return WaiverOf(Field) < WaivedPrefixes.size();
        },
        [&](const std::string &Field, const std::string *BV,
            const std::string *CV, bool W) {
          if (W) {
            const size_t P = WaiverOf(Field);
            ++Excused[P].first;
            Excused[P].second += !InCell[P];
            InCell[P] = true;
            return;
          }
          Diffs.push_back("FAIL: " + B.Key + "." + Field + ": " +
                          (!CV   ? "missing from current run"
                           : !BV ? "not in baseline"
                                 : *BV + " -> " + *CV));
        });
  }
  for (const MatrixDoc::Cell &C : Cur.Cells)
    if (!Base.cell(C.Key))
      Fail(C.Key + ": not in baseline (update bench/baselines/)");
  for (size_t P = 0; P < WaivedPrefixes.size(); ++P)
    if (Excused[P].first)
      Diffs.push_back("allowed: " + WaivedPrefixes[P] + "*: " +
                      std::to_string(Excused[P].first) +
                      " differing field(s) in " +
                      std::to_string(Excused[P].second) + " cell(s)");
  return Regressions;
}

/// The exact-count gate of a scenario matrix run (`rdbt_scenarios
/// --baseline`): reads formatMatrixJson(\p Cells, \p Scale) back with
/// parseMatrixJson, so every gated run also round-trips the writer, and
/// compares it with \p Base. The only waivers are the field classes the
/// run's own settings move: interp_* exactly when the interpreter
/// fastpath was off (\p IfpOff), obs_* exactly when the run was traced.
/// Returns the number of regressions, with every difference in \p Diffs.
inline int gateMatrix(const MatrixDoc &Base,
                      const std::vector<MatrixCell> &Cells, uint32_t Scale,
                      bool IfpOff, bool Traced,
                      std::vector<std::string> &Diffs) {
  MatrixDoc Cur;
  std::string Error;
  if (!parseMatrixJson(formatMatrixJson(Cells, Scale), Cur, Error)) {
    Diffs.push_back("FAIL: the matrix JSON does not read back: " + Error);
    return 1;
  }
  std::vector<std::string> Waived;
  if (IfpOff)
    Waived.push_back("interp_");
  if (Traced)
    Waived.push_back("obs_");
  return compareMatrices(Base, Cur, Waived, Diffs);
}

/// Reads the matrix document at \p Path (parseMatrixJson); a file that
/// cannot be read or parsed returns false with a message in \p Error.
inline bool readMatrixJsonFile(const std::string &Path, MatrixDoc &Doc,
                               std::string &Error) {
  std::ifstream IS(Path);
  std::ostringstream Text;
  if (!IS || !(Text << IS.rdbuf())) {
    Error = "cannot read " + Path;
    return false;
  }
  if (!parseMatrixJson(Text.str(), Doc, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}

/// The warm-boot contract, checked per cell by `rdbt_scenarios
/// --cache-dir`: \p Warm reran \p Cold's session against the cache files
/// the cold run saved. It must translate nothing and reject no file, and
/// every other counter must equal cold's — except the provenance and
/// translation-time fields a warm boot changes by design (cache_file_hits,
/// loaded_tbs, rule coverage and rule matching) and the obs_* family.
/// Returns "" when clean, else a message naming the first field that
/// differs.
inline std::string warmBootDiff(const RunStats &Cold, const RunStats &Warm) {
  if (Warm.Translations || Warm.TranslatedGuestInstrs)
    return "warm boot still translated " + std::to_string(Warm.Translations) +
           " block(s)";
  if (Warm.CacheFileMisses)
    return "warm boot rejected a cache file";
  MatrixDoc Doc;
  std::string First;
  if (!parseMatrixJson(formatMatrixJson({{"cold", Cold}, {"warm", Warm}}, 1),
                       Doc, First))
    return "the matrix JSON does not read back: " + First;
  const auto ByDesign = [](const std::string &Field) {
    for (const char *Name :
         {"translations", "translated_guest_instrs", "cache_file_misses",
          "cache_file_hits", "loaded_tbs", "rule_covered_instrs",
          "fallback_instrs", "rule_match_attempts", "rule_match_hits"})
      if (Field == Name)
        return true;
    return Field.compare(0, 4, "obs_") == 0;
  };
  compareCells(Doc.Cells[0], Doc.Cells[1], ByDesign,
               [&](const std::string &Field, const std::string *C,
                   const std::string *W, bool Waived) {
                 if (!Waived && First.empty())
                   First = Field + ": cold " + (C ? *C : "-") + ", warm " +
                           (W ? *W : "-");
               });
  return First;
}

/// printf into the end of \p Out.
inline __attribute__((format(printf, 2, 3))) void
appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

/// The paper's Table I and Figs. 14-19, read off the cells of a scenario
/// matrix run at \p Scale (keys "<kind>/<workload>@<scale>"). A workload
/// enters a figure only if every cell that figure reads for it is Ok;
/// otherwise its row reads FAILED and it joins no GEOMEAN.
inline std::string formatPaperFigures(const std::vector<MatrixCell> &Cells,
                                      uint32_t Scale) {
  std::map<std::string, const RunStats *> ByKey;
  for (const MatrixCell &C : Cells)
    ByKey[C.Key] = &C.S;
  std::vector<std::string> Spec, RealWorld;
  for (const auto &W : guestsw::workloads()) {
    if (W.IsSpecProxy)
      Spec.push_back(W.Name);
    if (W.IsRealWorld)
      RealWorld.push_back(W.Name);
  }
  std::string Out;
  using Stats = std::vector<const RunStats *>;
  // One row per workload of Names: Row(Name, S), with S[I] its cell
  // under Kinds[I], appends the row and returns its NumCols values; a
  // workload with a missing or failed cell gets a FAILED row instead.
  // Returns each value column's GEOMEAN.
  const auto Rows = [&](const std::vector<std::string> &Names,
                        const std::vector<std::string> &Kinds,
                        size_t NumCols, auto Row) {
    std::vector<std::vector<double>> Cols(NumCols);
    for (const std::string &Name : Names) {
      Stats S;
      for (const std::string &Kind : Kinds) {
        const auto It =
            ByKey.find(Kind + "/" + Name + "@" + std::to_string(Scale));
        if (It != ByKey.end() && It->second->Ok)
          S.push_back(It->second);
      }
      if (S.size() != Kinds.size()) {
        appendf(Out, "%-12s  FAILED\n", Name.c_str());
        continue;
      }
      const std::vector<double> V = Row(Name, S);
      for (size_t I = 0; I < NumCols; ++I)
        Cols[I].push_back(V[I]);
    }
    std::vector<double> G;
    for (const std::vector<double> &C : Cols)
      G.push_back(geomean(C));
    return G;
  };
  // A's wall over B's: a speedup of B over A, or a slowdown of A vs B.
  const auto WallRatio = [](const RunStats *A, const RunStats *B) {
    return static_cast<double>(A->Wall) / B->Wall;
  };

  appendf(Out, "Table I: distribution of guest instructions requiring CPU "
               "state coordination\n"
               "(measured under the QEMU-like baseline, scale %u)\n\n",
          Scale);
  appendf(Out, "%-12s %16s %14s %16s\n", "Benchmark", "System-level",
          "Memory", "Interrupt check");
  std::vector<double> G =
      Rows(Spec, {"qemu"}, 3, [&](const std::string &Name, const Stats &S) {
        const double Guest = static_cast<double>(S[0]->GuestInstrs);
        const std::vector<double> V = {100.0 * S[0]->SysInstrs / Guest,
                                       100.0 * S[0]->MemInstrs / Guest,
                                       100.0 * S[0]->IrqChecks / Guest};
        appendf(Out, "%-12s %15.2f%% %13.2f%% %15.2f%%\n", Name.c_str(), V[0],
                V[1], V[2]);
        return V;
      });
  appendf(Out, "%-12s %15.2f%% %13.2f%% %15.2f%%\n", "GEOMEAN", G[0], G[1],
          G[2]);
  Out += "\npaper (Table I geomean): system 0.25%, memory 33.46%, "
         "interrupt check 15.12%\n";

  appendf(Out, "\nFig. 14: speedup over the QEMU baseline (scale %u)\n\n",
          Scale);
  appendf(Out, "%-12s %10s %10s %10s  %s\n", "Benchmark", "qemu",
          "rule-base", "full-opt", "(coordination-instr share base->full)");
  G = Rows(Spec, {"qemu", "rule:base", "rule:scheduling"}, 2,
           [&](const std::string &Name, const Stats &S) {
             const RunStats &B = *S[1];
             const double CoordBase =
                 100.0 * (B.SysInstrs + B.MemInstrs + B.IrqChecks) /
                 B.GuestInstrs;
             const double SyncOpsBase = static_cast<double>(B.SyncOps);
             const double SyncOpsFull = static_cast<double>(S[2]->SyncOps);
             const std::vector<double> V = {WallRatio(S[0], S[1]),
                                            WallRatio(S[0], S[2])};
             appendf(Out,
                     "%-12s %9.2fx %9.2fx %9.2fx  (%.1f%% -> %.1f%% sync "
                     "ops)\n",
                     Name.c_str(), 1.0, V[0], V[1], CoordBase,
                     CoordBase * (SyncOpsFull / SyncOpsBase));
             return V;
           });
  appendf(Out, "%-12s %9.2fx %9.2fx %9.2fx\n", "GEOMEAN", 1.0, G[0], G[1]);
  Out += "\npaper: rule-base 0.95x (5% slowdown), full-opt 1.36x;\n"
         "       48.83% of instructions need coordination, reduced to "
         "24.61%\n";

  appendf(Out,
          "\nFig. 15: host instructions per guest instruction (scale %u)\n\n",
          Scale);
  appendf(Out, "%-12s %12s %12s\n", "Benchmark", "qemu", "full-opt");
  G = Rows(Spec, {"qemu", "rule:scheduling"}, 2,
           [&](const std::string &Name, const Stats &S) {
             const std::vector<double> V = {S[0]->hostPerGuest(),
                                            S[1]->hostPerGuest()};
             appendf(Out, "%-12s %12.2f %12.2f\n", Name.c_str(), V[0], V[1]);
             return V;
           });
  appendf(Out, "%-12s %12.2f %12.2f   (-%.1f%%)\n", "GEOMEAN", G[0], G[1],
          100.0 * (1.0 - G[1] / G[0]));
  Out += "\npaper: qemu 17.39, full-opt 15.40 (-11.44%)\n";

  appendf(Out, "\nFig. 16: cumulative speedup over QEMU (scale %u)\n\n",
          Scale);
  appendf(Out, "%-12s %10s %12s %13s %12s\n", "Benchmark", "base",
          "+reduction", "+elimination", "+scheduling");
  G = Rows(Spec,
           {"qemu", "rule:base", "rule:reduction", "rule:elimination",
            "rule:scheduling"},
           4, [&](const std::string &Name, const Stats &S) {
             const std::vector<double> V = {
                 WallRatio(S[0], S[1]), WallRatio(S[0], S[2]),
                 WallRatio(S[0], S[3]), WallRatio(S[0], S[4])};
             appendf(Out, "%-12s %9.2fx %11.2fx %12.2fx %11.2fx\n",
                     Name.c_str(), V[0], V[1], V[2], V[3]);
             return V;
           });
  appendf(Out, "%-12s %9.2fx %11.2fx %12.2fx %11.2fx\n", "GEOMEAN", G[0],
          G[1], G[2], G[3]);
  Out += "\npaper: base 0.95x, +reduction 1.22x, +elimination 1.30x, "
         "+scheduling 1.36x\n";

  appendf(Out,
          "\nFig. 17: sync host-instructions per guest instruction "
          "(scale %u)\n\n",
          Scale);
  appendf(Out, "%-12s %10s %12s %13s %12s\n", "Benchmark", "base",
          "+reduction", "+elimination", "+scheduling");
  G = Rows(Spec,
           {"rule:base", "rule:reduction", "rule:elimination",
            "rule:scheduling"},
           4, [&](const std::string &Name, const Stats &S) {
             const std::vector<double> V = {
                 S[0]->syncPerGuest(), S[1]->syncPerGuest(),
                 S[2]->syncPerGuest(), S[3]->syncPerGuest()};
             appendf(Out, "%-12s %10.2f %12.2f %13.2f %12.2f\n",
                     Name.c_str(), V[0], V[1], V[2], V[3]);
             return V;
           });
  appendf(Out, "%-12s %10.2f %12.2f %13.2f %12.2f\n", "GEOMEAN", G[0], G[1],
          G[2], G[3]);
  Out += "\npaper: base 8.36, +reduction 1.79, +elimination 1.33, "
         "+scheduling 0.89\n";

  appendf(Out,
          "\nFig. 18: slowdown vs native execution (lower is better, "
          "scale %u)\n\n",
          Scale);
  appendf(Out, "%-12s %12s %12s\n", "Benchmark", "qemu", "full-opt");
  G = Rows(Spec, {"native", "qemu", "rule:scheduling"}, 2,
           [&](const std::string &Name, const Stats &S) {
             const std::vector<double> V = {WallRatio(S[1], S[0]),
                                            WallRatio(S[2], S[0])};
             appendf(Out, "%-12s %11.2fx %11.2fx\n", Name.c_str(), V[0],
                     V[1]);
             return V;
           });
  appendf(Out, "%-12s %11.2fx %11.2fx\n", "GEOMEAN", G[0], G[1]);
  Out += "\npaper: qemu 18.73x, full-opt 13.83x\n";

  appendf(Out,
          "\nFig. 19: real-world application speedup over QEMU "
          "(scale %u)\n\n",
          Scale);
  appendf(Out, "%-12s %10s %10s\n", "Application", "qemu", "full-opt");
  G = Rows(RealWorld, {"qemu", "rule:scheduling"}, 1,
           [&](const std::string &Name, const Stats &S) {
             const std::vector<double> V = {WallRatio(S[0], S[1])};
             appendf(Out, "%-12s %9.2fx %9.2fx\n", Name.c_str(), 1.0, V[0]);
             return V;
           });
  appendf(Out, "%-12s %9.2fx %9.2fx\n", "GEOMEAN", 1.0, G[0]);
  Out += "\npaper: memcached 1.13x, sqlite ~1.2x, fileio 1.08x, untar "
         "1.09x, cpu-prime ~1.3x; geomean 1.15x\n";
  return Out;
}

/// Writes \p Doc to \p FileName in the RDBT_BENCH_JSON directory (unset,
/// empty or "1" means the current directory). A failed write exits with
/// status 1, so a missing directory never passes as a run without JSON.
inline void writeBenchFile(const std::string &FileName,
                           const std::string &Doc) {
  const char *Env = std::getenv("RDBT_BENCH_JSON");
  const std::string Dir =
      (!Env || *Env == '\0' || std::string(Env) == "1") ? "." : Env;
  const std::string Path = Dir + "/" + FileName;
  std::ofstream OS(Path);
  if (!(OS << Doc).flush()) {
    std::fprintf(stderr, "RDBT_BENCH_JSON: cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote %s\n", Path.c_str());
}

/// Writes BENCH_<BenchName>.json when RDBT_BENCH_JSON is set; no-op
/// otherwise. Call once at the end of each bench binary's main().
/// \p Scale is the workload scale the binary ran at; 0 (a binary that
/// runs no workload) leaves the "scale" field out.
inline void writeBenchJson(const char *BenchName, uint32_t Scale) {
  if (!std::getenv("RDBT_BENCH_JSON"))
    return;
  const JsonRecorder &R = JsonRecorder::get();
  std::ostringstream OS;
  OS << "{\n  \"bench\": \"" << jsonEscape(BenchName) << "\",\n";
  if (Scale)
    OS << "  \"scale\": " << Scale << ",\n";
  OS << "  \"runs\": [";
  for (size_t I = 0; I < R.Runs.size(); ++I) {
    const JsonRecorder::Run &Run = R.Runs[I];
    OS << (I ? ",\n" : "\n") << "    {\"workload\": \""
       << jsonEscape(Run.Workload) << "\", \"config\": \""
       << jsonEscape(Run.Config) << "\", ";
    writeRunStatsFields(OS, Run.S);
    OS << "}";
  }
  OS << "\n  ],\n  \"metrics\": [";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const JsonRecorder::Metric &M = R.Metrics[I];
    OS << (I ? ",\n" : "\n") << "    {\"series\": \"" << jsonEscape(M.Series)
       << "\", \"point\": \"" << jsonEscape(M.Point)
       << "\", \"value\": " << M.Value << "}";
  }
  OS << "\n  ]\n}\n";
  writeBenchFile(std::string("BENCH_") + BenchName + ".json", OS.str());
}

} // namespace bench
} // namespace rdbt

#endif // RDBT_BENCH_BENCHCOMMON_H
