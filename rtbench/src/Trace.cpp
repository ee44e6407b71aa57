//===- rtbench/src/Trace.cpp - In-memory spans and a timing decorator -----===//

#include "Trace.h"

#include "vm/TranslatorRegistry.h"

#include <chrono>
#include <memory>

namespace rtbench {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int32_t SpanLog::open(const char *Name, uint32_t Session) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Session = Session;
  const int32_t Id = static_cast<int32_t>(Spans.size());
  Spans.push_back(S);
  Stack.push_back(Id);
  Spans.back().Start = nowNs();
  return Id;
}

void SpanLog::close(int32_t Id) {
  Spans[Id].End = nowNs();
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

std::vector<double> SpanLog::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = static_cast<double>(Spans[I].End - Spans[I].Start);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= static_cast<double>(S.End - S.Start);
  return Self;
}

namespace {

SpanLog *ActiveLog = nullptr;

/// Forwards every Translator call to the registry's own translator and
/// times translate() as a span.
class TimedTranslator final : public rdbt::dbt::Translator {
public:
  TimedTranslator(std::unique_ptr<rdbt::dbt::Translator> I, const char *Span,
                  bool KeepBlocks)
      : Inner(std::move(I)), SpanName(Span), KeepBlocks(KeepBlocks) {}

  const char *name() const override { return Inner->name(); }

  void translate(const rdbt::dbt::GuestBlock &GB,
                 rdbt::host::HostBlock &Out) override {
    SpanLog *Log = ActiveLog;
    ScopedSpan S(Log, SpanName, Log ? Log->currentSession() : 0);
    Inner->translate(GB, Out);
    if (Log && KeepBlocks && Log->RuleBlocks.size() < SpanLog::MaxRuleBlocks)
      Log->RuleBlocks.push_back(GB.Insts);
  }

  rdbt::dbt::EntryStub entryStub() const override {
    return Inner->entryStub();
  }
  bool allowChainFlagElision(const rdbt::host::HostBlock &From,
                             const rdbt::host::HostBlock &To) const override {
    return Inner->allowChainFlagElision(From, To);
  }
  void noteFallbackExecuted(uint32_t GuestPc) override {
    Inner->noteFallbackExecuted(GuestPc);
  }
  void setObs(rdbt::obs::TraceSink *Sink, rdbt::obs::Metrics *M) override {
    Inner->setObs(Sink, M);
  }

private:
  std::unique_ptr<rdbt::dbt::Translator> Inner;
  const char *SpanName;
  bool KeepBlocks;
};

bool registerDecorated(const char *Name, const char *Base, const char *Span,
                       bool KeepBlocks) {
  using rdbt::vm::TranslatorRegistry;
  TranslatorRegistry &Reg = TranslatorRegistry::global();
  const TranslatorRegistry::KindInfo *BaseInfo = Reg.find(Base);
  if (!BaseInfo || !BaseInfo->Make)
    return false;
  TranslatorRegistry::KindInfo K = *BaseInfo;
  K.Name = Name;
  K.Aliases.clear();
  K.Make = [Inner = BaseInfo->Make, Span,
            KeepBlocks](const TranslatorRegistry::Context &Ctx)
      -> std::unique_ptr<rdbt::dbt::Translator> {
    std::unique_ptr<rdbt::dbt::Translator> T = Inner(Ctx);
    if (!T)
      return nullptr;
    return std::make_unique<TimedTranslator>(std::move(T), Span, KeepBlocks);
  };
  return Reg.registerKind(std::move(K));
}

} // namespace

std::string decoratedKind(const std::string &BaseKind) {
  static const bool Registered =
      registerDecorated("rtbench.rule", "rule:scheduling", RuleTranslateSpan,
                        /*KeepBlocks=*/true) &&
      registerDecorated("rtbench.qemu", "qemu", QemuTranslateSpan,
                        /*KeepBlocks=*/false);
  if (!Registered)
    return std::string();
  return BaseKind == "qemu" ? "rtbench.qemu" : "rtbench.rule";
}

void attachSpanLog(SpanLog *Log) { ActiveLog = Log; }

} // namespace rtbench
