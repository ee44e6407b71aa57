//===- vm/VmConfig.cpp - Declarative VM session configuration --------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "vm/VmConfig.h"

#include "guestsw/Workloads.h"
#include "vm/TranslatorRegistry.h"

#include <algorithm>

using namespace rdbt;
using namespace rdbt::vm;

VmConfig &VmConfig::optLevel(core::OptLevel L) {
  switch (L) {
  case core::OptLevel::Base: Translator_ = "rule:base"; break;
  case core::OptLevel::Reduction: Translator_ = "rule:reduction"; break;
  case core::OptLevel::Elimination: Translator_ = "rule:elimination"; break;
  case core::OptLevel::Scheduling: Translator_ = "rule:scheduling"; break;
  }
  return *this;
}

VmConfig &VmConfig::flatImage(std::vector<uint32_t> Words, uint32_t Base) {
  FlatImage_ = std::move(Words);
  FlatImageBase_ = Base;
  UseFlatImage_ = true;
  Workload_.clear();
  return *this;
}

namespace {

bool knownWorkload(const std::string &Name) {
  for (const guestsw::WorkloadInfo &W : guestsw::workloads())
    if (Name == W.Name)
      return true;
  return false;
}

VmConfig failSpec(const std::string &Why, std::string *Error) {
  if (Error)
    *Error = Why;
  VmConfig C;
  C.translator(""); // unusable: Vm reports the unknown kind
  return C;
}

} // namespace

VmConfig VmConfig::fromSpec(const std::string &FullSpec, std::string *Error) {
  if (Error)
    Error->clear();
  // Session options ride after the scenario name as ",opt=value":
  // "cache=<dir>", "trace=<path>" and "ifp=on|off", in any order, each at
  // most once. Split them off before the scenario parse so
  // parameterized-kind paths keep their '/' (and any incidental ',')
  // handling untouched — only a segment starting with a known option key
  // begins the option list.
  std::string Spec = FullSpec, CacheDir, TracePath;
  bool Ifp = true;
  std::vector<std::string> SeenKeys;
  const size_t Comma =
      std::min(std::min(Spec.find(",cache="), Spec.find(",trace=")),
               Spec.find(",ifp="));
  if (Comma != std::string::npos) {
    std::string Opts = Spec.substr(Comma + 1);
    Spec = Spec.substr(0, Comma);
    while (!Opts.empty()) {
      const size_t Next = Opts.find(',');
      const std::string Item = Opts.substr(0, Next);
      Opts = Next == std::string::npos ? std::string()
                                       : Opts.substr(Next + 1);
      const std::string Key = Item.substr(0, Item.find('='));
      if (std::find(SeenKeys.begin(), SeenKeys.end(), Key) != SeenKeys.end())
        return failSpec("repeated session option '" + Key + "' in '" +
                            FullSpec + "'",
                        Error);
      SeenKeys.push_back(Key);
      if (Item.compare(0, 6, "cache=") == 0) {
        CacheDir = Item.substr(6);
        if (CacheDir.empty())
          return failSpec("empty cache directory in '" + FullSpec + "'",
                          Error);
      } else if (Item.compare(0, 6, "trace=") == 0) {
        TracePath = Item.substr(6);
        if (TracePath.empty())
          return failSpec("empty trace path in '" + FullSpec + "'", Error);
      } else if (Item.compare(0, 4, "ifp=") == 0) {
        const std::string Val = Item.substr(4);
        if (Val == "on")
          Ifp = true;
        else if (Val == "off")
          Ifp = false;
        else
          return failSpec("bad ifp value '" + Val + "' in '" + FullSpec +
                              "' (want on|off)",
                          Error);
      } else {
        return failSpec("unknown session option '" + Item + "' in '" +
                            FullSpec + "'",
                        Error);
      }
    }
  }
  std::string Kind = Spec, Workload, ScaleText;
  size_t Slash = Spec.find('/');
  const size_t Eq = Spec.find('=');
  if (Eq != std::string::npos && Slash != std::string::npos && Eq < Slash) {
    // Parameterized kind ("rule:file=<path>"): the parameter may contain
    // '/', so the workload — when present — is the segment after the
    // *last* '/' and must name a known workload; otherwise the whole
    // spec is the kind.
    Slash = Spec.rfind('/');
    std::string Tail = Spec.substr(Slash + 1);
    const size_t At = Tail.find('@');
    if (At != std::string::npos)
      Tail = Tail.substr(0, At);
    if (!knownWorkload(Tail))
      Slash = std::string::npos;
  }
  if (Slash != std::string::npos) {
    Kind = Spec.substr(0, Slash);
    Workload = Spec.substr(Slash + 1);
    const size_t At = Workload.find('@');
    if (At != std::string::npos) {
      ScaleText = Workload.substr(At + 1);
      Workload = Workload.substr(0, At);
      if (ScaleText.empty())
        return failSpec("bad scale '' in '" + FullSpec + "'", Error);
    }
  }

  const TranslatorRegistry::KindInfo *K =
      TranslatorRegistry::global().find(Kind);
  if (!K)
    return failSpec("unknown translator kind '" + Kind + "'", Error);
  if (!Workload.empty() && !knownWorkload(Workload))
    return failSpec("unknown workload '" + Workload + "'", Error);

  uint32_t Scale = 1;
  if (!ScaleText.empty()) {
    Scale = 0;
    for (const char C : ScaleText) {
      const uint32_t Digit = static_cast<uint32_t>(C - '0');
      if (C < '0' || C > '9' || Scale > (0xFFFFFFFFu - Digit) / 10)
        return failSpec("bad scale '" + ScaleText + "'", Error);
      Scale = Scale * 10 + Digit;
    }
    if (Scale == 0)
      return failSpec("bad scale '" + ScaleText + "'", Error);
  }

  VmConfig C;
  // Canonical name, aliases resolved; parameterized kinds keep their
  // "=<param>" payload.
  C.translator(K->TakesParam ? Kind : K->Name);
  if (!Workload.empty())
    C.workload(Workload);
  C.scale(Scale);
  C.persistentCache(CacheDir);
  C.trace(TracePath);
  C.interpFastpath(Ifp);
  return C;
}

std::string VmConfig::toSpec() const {
  std::string Spec = Translator_;
  if (!Workload_.empty()) {
    Spec += "/" + Workload_;
    if (Scale_ != 1)
      Spec += "@" + std::to_string(Scale_);
  }
  if (!PersistentCacheDir_.empty())
    Spec += ",cache=" + PersistentCacheDir_;
  if (!TracePath_.empty())
    Spec += ",trace=" + TracePath_;
  if (!InterpFastpath_)
    Spec += ",ifp=off"; // on is the default; omitted for round-tripping
  return Spec;
}
