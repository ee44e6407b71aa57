//===- rtbench/src/Checks.cpp - Output oracle and exact-count checks ------===//

#include "Checks.h"

#include "bench/BenchCommon.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace rtbench {
namespace {

std::string toHex(const std::string &S) {
  static const char *Digits = "0123456789abcdef";
  std::string Out;
  for (unsigned char C : S) {
    Out += Digits[C >> 4];
    Out += Digits[C & 15];
  }
  return Out.empty() ? "-" : Out;
}

bool fromHex(const std::string &H, std::string &Out) {
  Out.clear();
  if (H == "-")
    return true;
  if (H.size() % 2)
    return false;
  for (size_t I = 0; I < H.size(); I += 2) {
    unsigned V = 0;
    for (size_t J = I; J < I + 2; ++J) {
      const char C = H[J];
      if (!std::isxdigit(static_cast<unsigned char>(C)))
        return false;
      V = V * 16 + (std::isdigit(static_cast<unsigned char>(C))
                        ? C - '0'
                        : std::tolower(C) - 'a' + 10);
    }
    Out += static_cast<char>(V);
  }
  return true;
}

/// Parses the `"name": <unsigned>` pairs of one flat JSON object body.
/// Fields whose values are not unsigned integers (booleans, nested
/// histograms) are skipped.
CounterMap parseCounterFields(const std::string &Body) {
  CounterMap M;
  size_t Pos = 0;
  while ((Pos = Body.find('"', Pos)) != std::string::npos) {
    const size_t End = Body.find('"', Pos + 1);
    if (End == std::string::npos)
      break;
    const std::string Name = Body.substr(Pos + 1, End - Pos - 1);
    size_t V = Body.find_first_not_of(" :", End + 1);
    Pos = End + 1;
    if (V == std::string::npos ||
        !std::isdigit(static_cast<unsigned char>(Body[V])))
      continue;
    uint64_t Value = 0;
    while (V < Body.size() && std::isdigit(static_cast<unsigned char>(Body[V])))
      Value = Value * 10 + static_cast<uint64_t>(Body[V++] - '0');
    M[Name] = Value;
    Pos = V;
  }
  return M;
}

bool isObservabilityField(const std::string &Name) {
  return Name.rfind("interp_", 0) == 0 || Name.rfind("obs_", 0) == 0;
}

} // namespace

bool Oracle::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open oracle " + Path;
    return false;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Name, Stop, Hex;
    uint32_t Scale = 0;
    OracleEntry E;
    // The stop reason is written with '_' for spaces ("guest_shutdown").
    if (!(LS >> Name >> Scale >> Stop >> E.GuestInstrs[0] >> E.GuestInstrs[1] >>
          E.GuestInstrs[2] >> Hex)) {
      Error = Path + ":" + std::to_string(LineNo) + ": malformed line";
      return false;
    }
    for (char &C : Stop)
      if (C == '_')
        C = ' ';
    E.Stop = Stop;
    if (!fromHex(Hex, E.Console)) {
      Error = Path + ":" + std::to_string(LineNo) + ": bad console hex";
      return false;
    }
    Entries[{Name, Scale}] = E;
  }
  if (Entries.empty()) {
    Error = "oracle " + Path + " has no entries";
    return false;
  }
  return true;
}

std::string Oracle::format(
    const std::map<std::pair<std::string, uint32_t>, OracleEntry> &E) {
  std::ostringstream OS;
  OS << "# rtbench output oracle: <workload> <scale> <stop> <rule, qemu and "
        "native guest instrs> <console hex>\n"
        "# Generated by `rtbench --make-oracle`: stop and console from "
        "native, cross-checked against rule and qemu.\n";
  for (const auto &[Key, V] : E) {
    std::string Stop = V.Stop;
    for (char &C : Stop)
      if (C == ' ')
        C = '_';
    OS << Key.first << ' ' << Key.second << ' ' << Stop;
    for (uint64_t Gi : V.GuestInstrs)
      OS << ' ' << Gi;
    OS << ' ' << toHex(V.Console) << '\n';
  }
  return OS.str();
}

const OracleEntry *Oracle::find(const std::string &Name,
                                uint32_t Scale) const {
  auto It = Entries.find({Name, Scale});
  return It == Entries.end() ? nullptr : &It->second;
}

std::string Oracle::checkFinished(const std::string &Name, uint32_t Scale,
                                  Kind K, const rdbt::vm::RunReport &R) const {
  const OracleEntry *E = find(Name, Scale);
  if (!E)
    return "no oracle entry for " + Name + "@" + std::to_string(Scale);
  if (!R.Error.empty())
    return R.Spec + ": " + R.Error;
  if (R.stopName() != E->Stop)
    return R.Spec + ": stopped with '" + R.stopName() + "', expected '" +
           E->Stop + "'";
  if (R.Console != E->Console)
    return R.Spec + ": console differs from the oracle";
  if (R.guestInstrs() != E->guestInstrs(K))
    return R.Spec + ": retired " + std::to_string(R.guestInstrs()) +
           " guest instructions, expected " + std::to_string(E->guestInstrs(K));
  return "";
}

std::string Oracle::checkPartial(const std::string &Name, uint32_t Scale,
                                 Kind K, const rdbt::vm::RunReport &R) const {
  if (R.Stop != rdbt::dbt::StopReason::WallLimit)
    return checkFinished(Name, Scale, K, R);
  const OracleEntry *E = find(Name, Scale);
  if (!E)
    return "no oracle entry for " + Name + "@" + std::to_string(Scale);
  if (!R.Error.empty())
    return R.Spec + ": " + R.Error;
  if (E->Console.compare(0, R.Console.size(), R.Console) != 0)
    return R.Spec + ": console is not a prefix of the oracle's";
  if (R.guestInstrs() >= E->guestInstrs(K))
    return R.Spec + ": still running past the oracle's guest instructions";
  return "";
}

bool MatrixBaseline::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  // One cell per line: `    "<spec>": {<fields>},`.
  std::string Line;
  while (std::getline(In, Line)) {
    const size_t Q0 = Line.find('"');
    const size_t Brace = Line.find('{');
    if (Q0 == std::string::npos || Brace == std::string::npos || Brace < Q0)
      continue;
    const size_t Q1 = Line.find('"', Q0 + 1);
    const std::string Spec = Line.substr(Q0 + 1, Q1 - Q0 - 1);
    if (Spec.find('/') == std::string::npos)
      continue;
    Cells[Spec] = parseCounterFields(Line.substr(Brace));
  }
  if (Cells.empty()) {
    Error = Path + " has no matrix cells";
    return false;
  }
  return true;
}

const CounterMap *MatrixBaseline::find(const std::string &Spec) const {
  auto It = Cells.find(Spec);
  return It == Cells.end() ? nullptr : &It->second;
}

CounterMap simCounters(const rdbt::vm::RunReport &R, bool EngineRun) {
  std::ostringstream OS;
  rdbt::bench::writeRunStatsFields(OS, rdbt::bench::fromReport(R, EngineRun));
  CounterMap M = parseCounterFields(OS.str());
  for (auto It = M.begin(); It != M.end();)
    It = isObservabilityField(It->first) ? M.erase(It) : std::next(It);
  return M;
}

std::string diffCounters(const CounterMap &Want, const CounterMap &Got) {
  std::string Diff;
  for (const auto &[Name, V] : Got) {
    auto It = Want.find(Name);
    if (It != Want.end() && It->second != V)
      Diff += (Diff.empty() ? "" : ", ") + Name + " " + std::to_string(V) +
              " != " + std::to_string(It->second);
  }
  return Diff;
}

} // namespace rtbench
