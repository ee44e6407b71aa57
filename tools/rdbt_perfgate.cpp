//===- tools/rdbt_perfgate.cpp - Exact-count perf-regression gate -----------===//
//
// Part of RuleDBT. Diffs two BENCH_matrix.json documents (written by
// `rdbt_scenarios --jobs N --json`) and exits nonzero on ANY counter
// difference outside an explicitly waived field class.
//
// Because the host machine is simulated, every counter is an exact,
// byte-reproducible instruction count — so the gate is a hard equality
// check, not a noisy threshold: a PR that changes any count must either
// be fixed or update the checked-in baseline in the same commit (the
// reviewable statement "this change costs/saves exactly N cycles on
// scenario X"). See bench/README.md for the baseline-update workflow.
//
// Usage:
//   rdbt_perfgate <baseline.json> <current.json> [--allow-prefix <pfx>]...
//   rdbt_perfgate --selfcheck
//
// --allow-prefix "obs_"           waives a field CLASS in every cell —
//                                 fields whose name starts with the
//                                 prefix. The observability family
//                                 (obs_*: trace-armed runs append it on
//                                 top of the exact counters) is host
//                                 wall time by design, so CI compares a
//                                 traced run against the untraced
//                                 baseline with --allow-prefix obs_. An
//                                 empty prefix would waive everything
//                                 and is rejected.
//
// Missing and newly-appearing scenarios both fail (the baseline must
// describe exactly the matrix CI runs). --selfcheck exercises the parser
// and comparator on built-in documents; registered with CTest.
//
// The warm-boot contract (a rerun against the persistent cache
// translates nothing and matches cold) is gated in-process by
// `rdbt_scenarios --cache-dir`, not here.
//
//===----------------------------------------------------------------------===//

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// One parsed scenario cell: key plus field name/value pairs in document
/// order. Values stay strings — the gate compares canonical emissions,
/// it never does arithmetic.
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

struct MatrixDoc {
  std::string Scale; ///< the top-level "scale" value ("" if absent)
  std::vector<Cell> Cells;

  const Cell *cell(const std::string &Key) const {
    for (const Cell &C : Cells)
      if (C.Key == Key)
        return &C;
    return nullptr;
  }
};

/// Minimal parser for the BENCH_matrix.json subset this repo writes
/// (bench::formatMatrixJson): flat string-keyed cells of scalar fields.
/// Returns false and sets *Error on anything it does not understand.
bool parseMatrix(const std::string &Text, MatrixDoc &Doc,
                 std::string *Error) {
  const auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  size_t P = 0;
  const auto SkipWs = [&] {
    while (P < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[P])))
      ++P;
  };
  const auto ReadString = [&](std::string &Out) {
    SkipWs();
    if (P >= Text.size() || Text[P] != '"')
      return false;
    Out.clear();
    for (++P; P < Text.size() && Text[P] != '"'; ++P) {
      if (Text[P] == '\\' && P + 1 < Text.size())
        ++P; // formatMatrixJson only escapes '"' and '\\'
      Out += Text[P];
    }
    if (P >= Text.size())
      return false;
    ++P; // closing quote
    return true;
  };
  const auto ReadScalar = [&](std::string &Out) {
    SkipWs();
    Out.clear();
    while (P < Text.size() && Text[P] != ',' && Text[P] != '}' &&
           !std::isspace(static_cast<unsigned char>(Text[P])))
      Out += Text[P++];
    return !Out.empty();
  };

  const size_t ScaleAt = Text.find("\"scale\":");
  if (ScaleAt != std::string::npos) {
    P = ScaleAt + std::strlen("\"scale\":");
    std::string V;
    if (ReadScalar(V))
      Doc.Scale = V;
  }

  const size_t MatrixAt = Text.find("\"matrix\":");
  if (MatrixAt == std::string::npos)
    return Fail("no \"matrix\" object");
  P = MatrixAt + std::strlen("\"matrix\":");
  SkipWs();
  if (P >= Text.size() || Text[P] != '{')
    return Fail("\"matrix\" is not an object");
  ++P;
  for (;;) {
    SkipWs();
    if (P < Text.size() && Text[P] == ',') {
      ++P;
      continue;
    }
    if (P < Text.size() && Text[P] == '}')
      return true; // end of matrix
    Cell C;
    if (!ReadString(C.Key))
      return Fail("expected a cell key string");
    SkipWs();
    if (P >= Text.size() || Text[P] != ':')
      return Fail("expected ':' after cell key");
    ++P;
    SkipWs();
    if (P >= Text.size() || Text[P] != '{')
      return Fail("expected '{' to open a cell");
    ++P;
    for (;;) {
      SkipWs();
      if (P < Text.size() && Text[P] == ',') {
        ++P;
        continue;
      }
      if (P < Text.size() && Text[P] == '}') {
        ++P;
        break;
      }
      std::string Name, Value;
      if (!ReadString(Name))
        return Fail("expected a field name string");
      SkipWs();
      if (P >= Text.size() || Text[P] != ':')
        return Fail("expected ':' after field name");
      ++P;
      if (!ReadScalar(Value))
        return Fail("expected a scalar field value");
      C.Fields.emplace_back(std::move(Name), std::move(Value));
    }
    Doc.Cells.push_back(std::move(C));
  }
}

/// --allow-prefix waives a whole field *class* in every cell — the obs_*
/// observability family is informational by design (host wall time feeds
/// it), so CI gates a traced run with --allow-prefix obs_.
bool waived(const std::vector<std::string> &AllowPrefixes,
            const std::string &Field) {
  for (const std::string &Pfx : AllowPrefixes)
    if (Field.compare(0, Pfx.size(), Pfx) == 0)
      return true;
  return false;
}

/// Exact-count comparison. Appends one human-readable line per
/// difference to \p Diffs; returns the number of regressions (waived
/// differences are reported as notes but not counted).
int compareMatrices(const MatrixDoc &Base, const MatrixDoc &Cur,
                    const std::vector<std::string> &AllowPrefixes,
                    std::vector<std::string> &Diffs) {
  int Regressions = 0;
  const auto Note = [&](const std::string &Line, bool Waived) {
    Diffs.push_back((Waived ? "allowed: " : "FAIL: ") + Line);
    if (!Waived)
      ++Regressions;
  };

  if (Base.Scale != Cur.Scale)
    Note("scale mismatch: baseline " + Base.Scale + ", current " + Cur.Scale,
         false);

  for (const Cell &B : Base.Cells) {
    const Cell *C = Cur.cell(B.Key);
    if (!C) {
      Note(B.Key + ": missing from current run", false);
      continue;
    }
    for (const auto &F : B.Fields) {
      const std::string *V = C->field(F.first);
      if (!V)
        Note(B.Key + "." + F.first + ": missing from current run",
             waived(AllowPrefixes, F.first));
      else if (*V != F.second)
        Note(B.Key + "." + F.first + ": " + F.second + " -> " + *V,
             waived(AllowPrefixes, F.first));
    }
    for (const auto &F : C->Fields)
      if (!B.field(F.first))
        Note(B.Key + "." + F.first + ": not in baseline",
             waived(AllowPrefixes, F.first));
  }
  for (const Cell &C : Cur.Cells)
    if (!Base.cell(C.Key))
      Note(C.Key + ": not in baseline (update bench/baselines/)", false);
  return Regressions;
}

int selfcheck() {
  const char *BaseText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"guest_instrs\": 100}\n"
      "  }\n}\n";
  const char *SameText = BaseText;
  const char *RegressedText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 451, \"guest_instrs\": 100}\n"
      "  }\n}\n";

  int Failures = 0;
  const auto Check = [&Failures](bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "selfcheck FAIL: %s\n", What);
      ++Failures;
    }
  };

  MatrixDoc Base, Same, Regressed;
  std::string Err;
  Check(parseMatrix(BaseText, Base, &Err), "parse baseline");
  Check(parseMatrix(SameText, Same, &Err), "parse identical");
  Check(parseMatrix(RegressedText, Regressed, &Err), "parse regressed");
  Check(Base.Scale == "1", "scale parsed");
  Check(Base.Cells.size() == 2, "two cells parsed");
  Check(Base.cell("qemu/a@1") &&
            *Base.cell("qemu/a@1")->field("wall") == "450",
        "field value parsed");

  std::vector<std::string> Diffs;
  Check(compareMatrices(Base, Same, {}, Diffs) == 0 && Diffs.empty(),
        "identical documents must pass");
  Diffs.clear();
  Check(compareMatrices(Base, Regressed, {}, Diffs) == 1,
        "one changed counter must be one regression");

  // A cell present only in one document fails in both directions, and no
  // prefix waives a whole cell.
  MatrixDoc OneCell;
  Check(parseMatrix("{\"scale\": 1, \"matrix\": {\"native/a@1\": "
                    "{\"ok\": true, \"wall\": 100, \"guest_instrs\": 100}}}",
                    OneCell, &Err),
        "parse one-cell document");
  Diffs.clear();
  Check(compareMatrices(Base, OneCell, {}, Diffs) == 1,
        "missing scenario must regress");
  Diffs.clear();
  Check(compareMatrices(OneCell, Base, {}, Diffs) == 1,
        "new scenario must regress");
  Diffs.clear();
  Check(compareMatrices(Base, OneCell, {"q"}, Diffs) == 1,
        "a field prefix must not waive a missing scenario");

  // --allow-prefix: the obs_* field class a trace-armed run appends on
  // top of the exact counters. The counters themselves are still gated:
  // a traced document with an obs_* delta AND a counter delta must keep
  // regressing under the prefix waiver.
  const char *TracedText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"guest_instrs\": 100,"
      " \"obs_events\": 42, \"obs_translate_ns_count\": 7}\n  }\n}\n";
  const char *TracedRegressedText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 451, \"guest_instrs\": 100,"
      " \"obs_events\": 42, \"obs_translate_ns_count\": 7}\n  }\n}\n";
  MatrixDoc Traced, TracedRegressed;
  Check(parseMatrix(TracedText, Traced, &Err), "parse traced");
  Check(parseMatrix(TracedRegressedText, TracedRegressed, &Err),
        "parse traced-regressed");
  Diffs.clear();
  Check(compareMatrices(Base, Traced, {}, Diffs) == 2,
        "unwaived obs_ fields must regress");
  Diffs.clear();
  Check(compareMatrices(Base, Traced, {"obs_"}, Diffs) == 0,
        "--allow-prefix obs_ must waive the whole field class");
  Diffs.clear();
  Check(compareMatrices(Base, TracedRegressed, {"obs_"}, Diffs) == 1,
        "--allow-prefix must not waive an exact-counter regression");
  Diffs.clear();
  Check(compareMatrices(Traced, Base, {"obs_"}, Diffs) == 0,
        "--allow-prefix must waive obs_ fields missing from current");

  if (Failures == 0)
    std::printf("rdbt_perfgate selfcheck: all checks passed\n");
  return Failures ? 1 : 0;
}

bool readFile(const char *Path, std::string &Out) {
  std::ifstream IS(Path);
  if (!IS)
    return false;
  std::ostringstream SS;
  SS << IS.rdbuf();
  Out = SS.str();
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selfcheck") == 0)
    return selfcheck();

  const char *BasePath = nullptr;
  const char *CurPath = nullptr;
  std::vector<std::string> AllowPrefixes;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--allow-prefix") == 0 && I + 1 < argc) {
      if (!*argv[++I]) {
        std::fprintf(stderr, "--allow-prefix: an empty prefix would waive "
                             "every field\n");
        return 2;
      }
      AllowPrefixes.push_back(argv[I]);
      continue;
    }
    if (!BasePath) {
      BasePath = argv[I];
      continue;
    }
    if (!CurPath) {
      CurPath = argv[I];
      continue;
    }
    BasePath = nullptr; // force the usage message
    break;
  }
  if (!BasePath || !CurPath) {
    std::fprintf(stderr,
                 "usage: rdbt_perfgate <baseline.json> <current.json> "
                 "[--allow-prefix <pfx>]...\n"
                 "       rdbt_perfgate --selfcheck\n");
    return 2;
  }

  std::string BaseText, CurText, Err;
  if (!readFile(BasePath, BaseText)) {
    std::fprintf(stderr, "cannot read baseline '%s'\n", BasePath);
    return 2;
  }
  if (!readFile(CurPath, CurText)) {
    std::fprintf(stderr, "cannot read current '%s'\n", CurPath);
    return 2;
  }
  MatrixDoc Base, Cur;
  if (!parseMatrix(BaseText, Base, &Err)) {
    std::fprintf(stderr, "baseline '%s': %s\n", BasePath, Err.c_str());
    return 2;
  }
  if (!parseMatrix(CurText, Cur, &Err)) {
    std::fprintf(stderr, "current '%s': %s\n", CurPath, Err.c_str());
    return 2;
  }

  std::vector<std::string> Diffs;
  const int Regressions = compareMatrices(Base, Cur, AllowPrefixes, Diffs);
  for (const std::string &D : Diffs)
    std::fprintf(Regressions ? stderr : stdout, "%s\n", D.c_str());
  if (Regressions) {
    std::fprintf(stderr,
                 "\nperf-gate: %d exact-count regression(s) across %zu "
                 "baseline scenario(s)\n"
                 "intentional? update the baseline in the same commit "
                 "(see bench/README.md)\n",
                 Regressions, Base.Cells.size());
    return 1;
  }
  if (Diffs.empty())
    std::printf("perf-gate: %zu scenario(s) compared, every counter exact\n",
                Base.Cells.size());
  else
    std::printf("perf-gate: %zu scenario(s) compared, every unwaived "
                "counter exact; %zu difference(s) waived by "
                "--allow-prefix\n",
                Base.Cells.size(), Diffs.size());
  return 0;
}
