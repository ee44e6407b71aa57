//===- rules/RuleIo.cpp - Rule corpus persistence ---------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "rules/RuleIo.h"

#include "support/Format.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

using namespace rdbt;
using namespace rdbt::rules;
using arm::Opcode;
using host::HOp;

namespace {

//===----------------------------------------------------------------------===//
// Name tables (the writer uses the existing mnemonic functions; the reader
// inverts them by scanning the enum range, which keeps the two directions
// from drifting apart).
//===----------------------------------------------------------------------===//

const char *shapeName(PatShape S) {
  switch (S) {
  case PatShape::DpImm: return "dp-imm";
  case PatShape::DpReg: return "dp-reg";
  case PatShape::DpRegShiftImm: return "dp-reg-shift";
  case PatShape::Mul: return "mul";
  case PatShape::Mla: return "mla";
  case PatShape::MulLong: return "mull";
  case PatShape::Clz: return "clz";
  }
  return "?";
}

bool shapeFromName(const std::string &N, PatShape &Out) {
  for (const PatShape S :
       {PatShape::DpImm, PatShape::DpReg, PatShape::DpRegShiftImm,
        PatShape::Mul, PatShape::Mla, PatShape::MulLong, PatShape::Clz})
    if (N == shapeName(S)) {
      Out = S;
      return true;
    }
  return false;
}

const char *shiftName(arm::ShiftKind K) {
  switch (K) {
  case arm::ShiftKind::LSL: return "lsl";
  case arm::ShiftKind::LSR: return "lsr";
  case arm::ShiftKind::ASR: return "asr";
  case arm::ShiftKind::ROR: return "ror";
  }
  return "?";
}

bool shiftFromName(const std::string &N, arm::ShiftKind &Out) {
  for (const arm::ShiftKind K :
       {arm::ShiftKind::LSL, arm::ShiftKind::LSR, arm::ShiftKind::ASR,
        arm::ShiftKind::ROR})
    if (N == shiftName(K)) {
      Out = K;
      return true;
    }
  return false;
}

bool opcodeFromName(const std::string &N, Opcode &Out) {
  for (unsigned I = 0; I < static_cast<unsigned>(Opcode::Invalid); ++I)
    if (N == arm::opcodeName(static_cast<Opcode>(I))) {
      Out = static_cast<Opcode>(I);
      return true;
    }
  return false;
}

bool hopFromName(const std::string &N, HOp &Out) {
  for (unsigned I = 0; I <= static_cast<unsigned>(HOp::ExitTb); ++I)
    if (N == host::hopName(static_cast<HOp>(I))) {
      Out = static_cast<HOp>(I);
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

void writeRule(std::string &Out, const Rule &R) {
  Out += "rule " + R.Name + "\n";
  Out += format("meta defines-flags=%d verified=%d source-line=%d\n",
                R.DefinesFlags ? 1 : 0, R.Verified ? 1 : 0,
                static_cast<int>(R.SourceLine));
  for (const auto &Class : R.Classes) {
    Out += "class";
    for (const OpClassEntry &CE : Class)
      Out += format(" %s:%s", arm::opcodeName(CE.Guest),
                    host::hopName(CE.Host));
    Out += "\n";
  }
  if (!R.Distinct.empty()) {
    Out += "distinct";
    for (const auto &[Pa, Pb] : R.Distinct)
      Out += format(" %d:%d", Pa, Pb);
    Out += "\n";
  }
  for (const RulePattern &P : R.Guest)
    Out += format("pat shape=%s s=%d cls=%u rd=%d rn=%d rm=%d rs=%d "
                  "immp=%d immx=%u shift=%s shamtp=%d shamtx=%u\n",
                  shapeName(P.Shape), P.SetFlags ? 1 : 0,
                  static_cast<unsigned>(P.ClassIdx), P.Rd, P.Rn, P.Rm, P.Rs,
                  P.ImmP, P.ImmExact, shiftName(P.Shift), P.ShAmtP,
                  static_cast<unsigned>(P.ShAmtExact));
  for (const HostTemplateOp &T : R.Host) {
    const char *S = T.SetFlagsFromGuest ? "guest" : (T.SetFlags ? "1" : "0");
    Out += format("tpl op=%s class-op=%d s=%s dst=%d src=%d src2=%d "
                  "use-imm=%d immp=%d immx=%u skip-eq=%d\n",
                  host::hopName(T.Op), T.UseClassHostOp ? 1 : 0, S, T.Dst,
                  T.Src, T.Src2, T.UseImm ? 1 : 0, T.ImmP, T.ImmExact,
                  T.SkipIfDstEqSrc ? 1 : 0);
  }
  Out += "end\n";
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  std::istringstream IS(Line);
  std::string T;
  while (IS >> T)
    Tokens.push_back(T);
  return Tokens;
}

/// Splits "key=value"; returns false when there is no '='.
bool keyValue(const std::string &Token, std::string &Key,
              std::string &Value) {
  const size_t Eq = Token.find('=');
  if (Eq == std::string::npos)
    return false;
  Key = Token.substr(0, Eq);
  Value = Token.substr(Eq + 1);
  return true;
}

bool parseInt(const std::string &Text, long &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtol(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

bool parseU32(const std::string &Text, uint32_t &Out) {
  long V;
  if (!parseInt(Text, V) || V < 0)
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

/// The parsing context: line-number tracking for error messages.
struct Parser {
  std::istringstream In;
  unsigned LineNo = 0;
  std::string Error;

  explicit Parser(const std::string &Text) : In(Text) {}

  bool fail(const std::string &Why) {
    Error = format("line %u: ", LineNo) + Why;
    return false;
  }

  /// Next non-blank, non-comment line; false at EOF. "Blank" matches
  /// tokenize(): any line with no istream tokens.
  bool nextLine(std::string &Line) {
    while (std::getline(In, Line)) {
      ++LineNo;
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      bool Blank = true;
      for (const char C : Line)
        Blank = Blank && std::isspace(static_cast<unsigned char>(C));
      if (Blank || Line[0] == '#')
        continue;
      return true;
    }
    return false;
  }
};

/// Parses a register-parameter field (-1 = unused/exact for patterns,
/// additionally -2 = scratch for templates).
bool parseParam(const std::string &Value, int Min, int8_t &Out) {
  long V;
  if (!parseInt(Value, V) || V < Min ||
      V >= static_cast<long>(MaxRegParams))
    return false;
  Out = static_cast<int8_t>(V);
  return true;
}

bool parsePatLine(Parser &P, const std::vector<std::string> &Tokens,
                  RulePattern &Pat) {
  for (size_t I = 1; I < Tokens.size(); ++I) {
    std::string K, V;
    if (!keyValue(Tokens[I], K, V))
      return P.fail("bad pat token '" + Tokens[I] + "'");
    long N = 0;
    if (K == "shape") {
      if (!shapeFromName(V, Pat.Shape))
        return P.fail("unknown pattern shape '" + V + "'");
    } else if (K == "s") {
      if (!parseInt(V, N) || (N != 0 && N != 1))
        return P.fail("bad s flag");
      Pat.SetFlags = N != 0;
    } else if (K == "cls") {
      uint32_t U;
      if (!parseU32(V, U) || U > 0xFF)
        return P.fail("bad class index");
      Pat.ClassIdx = static_cast<uint8_t>(U);
    } else if (K == "rd" || K == "rn" || K == "rm" || K == "rs") {
      int8_t Param;
      if (!parseParam(V, -1, Param))
        return P.fail("bad register parameter '" + V + "'");
      (K == "rd"   ? Pat.Rd
       : K == "rn" ? Pat.Rn
       : K == "rm" ? Pat.Rm
                   : Pat.Rs) = Param;
    } else if (K == "immp") {
      if (!parseInt(V, N) || N < -1 ||
          N >= static_cast<long>(MaxImmParams))
        return P.fail("bad immediate parameter");
      Pat.ImmP = static_cast<int8_t>(N);
    } else if (K == "immx") {
      if (!parseU32(V, Pat.ImmExact))
        return P.fail("bad exact immediate");
    } else if (K == "shift") {
      if (!shiftFromName(V, Pat.Shift))
        return P.fail("unknown shift kind '" + V + "'");
    } else if (K == "shamtp") {
      if (!parseInt(V, N) || N < -1 ||
          N >= static_cast<long>(MaxImmParams))
        return P.fail("bad shift-amount parameter");
      Pat.ShAmtP = static_cast<int8_t>(N);
    } else if (K == "shamtx") {
      uint32_t U;
      if (!parseU32(V, U) || U > 31)
        return P.fail("bad exact shift amount");
      Pat.ShAmtExact = static_cast<uint8_t>(U);
    } else {
      return P.fail("unknown pat key '" + K + "'");
    }
  }
  return true;
}

bool parseTplLine(Parser &P, const std::vector<std::string> &Tokens,
                  HostTemplateOp &T) {
  for (size_t I = 1; I < Tokens.size(); ++I) {
    std::string K, V;
    if (!keyValue(Tokens[I], K, V))
      return P.fail("bad tpl token '" + Tokens[I] + "'");
    long N = 0;
    if (K == "op") {
      if (!hopFromName(V, T.Op))
        return P.fail("unknown host op '" + V + "'");
    } else if (K == "class-op") {
      if (!parseInt(V, N) || (N != 0 && N != 1))
        return P.fail("bad class-op flag");
      T.UseClassHostOp = N != 0;
    } else if (K == "s") {
      if (V == "guest") {
        T.SetFlagsFromGuest = true;
        T.SetFlags = false;
      } else if (V == "0" || V == "1") {
        T.SetFlagsFromGuest = false;
        T.SetFlags = V == "1";
      } else {
        return P.fail("bad s value '" + V + "'");
      }
    } else if (K == "dst" || K == "src" || K == "src2") {
      int8_t Param;
      if (!parseParam(V, OperandScratch, Param))
        return P.fail("bad template operand '" + V + "'");
      (K == "dst" ? T.Dst : K == "src" ? T.Src : T.Src2) = Param;
    } else if (K == "use-imm") {
      if (!parseInt(V, N) || (N != 0 && N != 1))
        return P.fail("bad use-imm flag");
      T.UseImm = N != 0;
    } else if (K == "immp") {
      if (!parseInt(V, N) || N < -1 ||
          N >= static_cast<long>(MaxImmParams))
        return P.fail("bad immediate parameter");
      T.ImmP = static_cast<int8_t>(N);
    } else if (K == "immx") {
      if (!parseU32(V, T.ImmExact))
        return P.fail("bad exact immediate");
    } else if (K == "skip-eq") {
      if (!parseInt(V, N) || (N != 0 && N != 1))
        return P.fail("bad skip-eq flag");
      T.SkipIfDstEqSrc = N != 0;
    } else {
      return P.fail("unknown tpl key '" + K + "'");
    }
  }
  return true;
}

/// Structural validation before RuleSet::add and emitRule (whose asserts
/// must never be reachable from file input).
bool validateRule(Parser &P, const Rule &R) {
  if (R.Guest.empty())
    return P.fail("rule '" + R.Name + "' has no guest pattern");
  if (R.Classes.empty())
    return P.fail("rule '" + R.Name + "' has no opcode class");
  for (const auto &Class : R.Classes)
    if (Class.empty())
      return P.fail("rule '" + R.Name + "' has an empty opcode class");
  for (const RulePattern &Pat : R.Guest)
    if (Pat.ClassIdx >= R.Classes.size())
      return P.fail("rule '" + R.Name + "' pattern class index out of range");
  for (const auto &[Pa, Pb] : R.Distinct)
    if (Pa < 0 || Pb < 0 || Pa >= static_cast<int8_t>(MaxRegParams) ||
        Pb >= static_cast<int8_t>(MaxRegParams))
      return P.fail("rule '" + R.Name + "' distinct pair out of range");
  // emitRule compares the bound Dst and Src registers of a skip-eq op.
  for (const HostTemplateOp &T : R.Host)
    if (T.SkipIfDstEqSrc && (T.Dst == OperandNone || T.Src == OperandNone))
      return P.fail("rule '" + R.Name +
                    "' has a skip-eq template without both dst and src");
  return true;
}

bool parseStatsLine(Parser &P, const std::vector<std::string> &Tokens,
                    LearnStats &S) {
  for (size_t I = 1; I < Tokens.size(); ++I) {
    std::string K, V;
    uint32_t U;
    if (!keyValue(Tokens[I], K, V) || !parseU32(V, U))
      return P.fail("bad stats token '" + Tokens[I] + "'");
    if (K == "statements")
      S.Statements = U;
    else if (K == "verified")
      S.VerifiedPairs = U;
    else if (K == "rejected")
      S.RejectedPairs = U;
    else if (K == "before-merge")
      S.RulesBeforeMerge = U;
    else if (K == "after-merge")
      S.RulesAfterMerge = U;
    else
      return P.fail("unknown stats key '" + K + "'");
  }
  return true;
}

} // namespace

std::string rules::writeRuleSet(const RuleSet &RS, const RuleFileInfo *Info) {
  std::string Out;
  Out += format("ruledbt-rules v%u\n", RuleFileVersion);
  if (Info && !Info->Origin.empty())
    Out += "origin " + Info->Origin + "\n";
  if (Info && Info->HasStats)
    Out += format("stats statements=%u verified=%u rejected=%u "
                  "before-merge=%u after-merge=%u\n",
                  Info->Stats.Statements, Info->Stats.VerifiedPairs,
                  Info->Stats.RejectedPairs, Info->Stats.RulesBeforeMerge,
                  Info->Stats.RulesAfterMerge);
  for (size_t I = 0; I < RS.size(); ++I) {
    Out += "\n";
    writeRule(Out, RS.rule(I));
  }
  return Out;
}

bool rules::readRuleSet(const std::string &Text, RuleSet &Out,
                        std::string *Error, RuleFileInfo *Info) {
  Parser P(Text);
  RuleSet Fresh;
  RuleFileInfo Header;

  const auto Fail = [&](const std::string &Err) {
    if (Error)
      *Error = Err;
    return false;
  };

  std::string Line;
  if (!P.nextLine(Line))
    return Fail("empty rule file");
  {
    const std::vector<std::string> Tokens = tokenize(Line);
    if (Tokens.empty() || Tokens.size() != 2 ||
        Tokens[0] != "ruledbt-rules" ||
        Tokens[1] != format("v%u", RuleFileVersion))
      return Fail(format("line %u: not a ruledbt-rules v%u file", P.LineNo,
                         RuleFileVersion));
  }

  Rule R;
  bool InRule = false;
  while (P.nextLine(Line)) {
    const std::vector<std::string> Tokens = tokenize(Line);
    if (Tokens.empty())
      continue; // unreachable: nextLine's blank test matches tokenize()
    const std::string &Tag = Tokens[0];

    if (!InRule) {
      if (Tag == "origin") {
        const size_t At = Line.find("origin ");
        Header.Origin =
            At == std::string::npos ? std::string() : Line.substr(At + 7);
        continue;
      }
      if (Tag == "stats") {
        if (!parseStatsLine(P, Tokens, Header.Stats))
          return Fail(P.Error);
        Header.HasStats = true;
        continue;
      }
      if (Tag == "rule") {
        if (Tokens.size() < 2)
          return Fail(format("line %u: rule without a name", P.LineNo));
        R = Rule();
        R.Name = Line.substr(Line.find("rule ") + 5);
        InRule = true;
        continue;
      }
      return Fail(format("line %u: unexpected '%s'", P.LineNo, Tag.c_str()));
    }

    if (Tag == "meta") {
      for (size_t I = 1; I < Tokens.size(); ++I) {
        std::string K, V;
        long N;
        if (!keyValue(Tokens[I], K, V) || !parseInt(V, N))
          return Fail(format("line %u: bad meta token", P.LineNo));
        if (K == "defines-flags")
          R.DefinesFlags = N != 0;
        else if (K == "verified")
          R.Verified = N != 0;
        else if (K == "source-line") {
          if (N < -128 || N > 127)
            return Fail(format("line %u: source-line out of range",
                               P.LineNo));
          R.SourceLine = static_cast<int8_t>(N);
        }
        else
          return Fail(format("line %u: unknown meta key '%s'", P.LineNo,
                             K.c_str()));
      }
    } else if (Tag == "class") {
      std::vector<OpClassEntry> Class;
      for (size_t I = 1; I < Tokens.size(); ++I) {
        const size_t Colon = Tokens[I].find(':');
        OpClassEntry CE;
        if (Colon == std::string::npos ||
            !opcodeFromName(Tokens[I].substr(0, Colon), CE.Guest) ||
            !hopFromName(Tokens[I].substr(Colon + 1), CE.Host))
          return Fail(format("line %u: bad class entry '%s'", P.LineNo,
                             Tokens[I].c_str()));
        Class.push_back(CE);
      }
      R.Classes.push_back(std::move(Class));
    } else if (Tag == "distinct") {
      for (size_t I = 1; I < Tokens.size(); ++I) {
        const size_t Colon = Tokens[I].find(':');
        long A, B;
        // Range-check before the int8_t narrowing: out-of-range values
        // must be rejected, not wrapped into a different constraint.
        if (Colon == std::string::npos ||
            !parseInt(Tokens[I].substr(0, Colon), A) ||
            !parseInt(Tokens[I].substr(Colon + 1), B) || A < 0 ||
            B < 0 || A >= static_cast<long>(MaxRegParams) ||
            B >= static_cast<long>(MaxRegParams))
          return Fail(format("line %u: bad distinct pair '%s'", P.LineNo,
                             Tokens[I].c_str()));
        R.Distinct.push_back(
            {static_cast<int8_t>(A), static_cast<int8_t>(B)});
      }
    } else if (Tag == "pat") {
      RulePattern Pat;
      if (!parsePatLine(P, Tokens, Pat))
        return Fail(P.Error);
      R.Guest.push_back(Pat);
    } else if (Tag == "tpl") {
      HostTemplateOp T;
      if (!parseTplLine(P, Tokens, T))
        return Fail(P.Error);
      R.Host.push_back(T);
    } else if (Tag == "end") {
      if (!validateRule(P, R))
        return Fail(P.Error);
      Fresh.add(std::move(R));
      InRule = false;
    } else {
      return Fail(format("line %u: unexpected '%s' inside a rule", P.LineNo,
                         Tag.c_str()));
    }
  }
  if (InRule)
    return Fail("unterminated rule '" + R.Name + "' (missing 'end')");

  Out = std::move(Fresh);
  if (Info)
    *Info = std::move(Header);
  return true;
}

bool rules::writeRuleFile(const std::string &Path, const RuleSet &RS,
                          const RuleFileInfo *Info, std::string *Error) {
  std::ofstream OS(Path, std::ios::binary);
  if (!OS) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const std::string Text = writeRuleSet(RS, Info);
  OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  if (!OS) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

bool rules::readRuleFile(const std::string &Path, RuleSet &Out,
                         std::string *Error, RuleFileInfo *Info) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    if (Error)
      *Error = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream Buffer;
  Buffer << IS.rdbuf();
  return readRuleSet(Buffer.str(), Out, Error, Info);
}
