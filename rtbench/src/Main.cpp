//===- rtbench/src/Main.cpp - Real-time benchmark client ------------------===//
//
// One single-threaded, closed-loop client: one session runs at a time and
// the next step starts only when the previous one returned. The client
// reaches the program only through its public API (vm::Vm, Vm::run with
// resume-transparent budgets, runToBootMark, capture, forkFrom,
// VmConfig::persistentCache, RunReport).
//
//   rtbench --workload W --seed N --seconds S --trace 0|1 --root DIR
//           --tmp DIR
//   rtbench --make-oracle FILE              (regenerate rtbench/oracle.txt)
//
// The last line of standard output is the measured values by name:
//   {"correct": ..., "attempted": ..., "failed": ..., "values": {...}}
// run.py turns it into the result object, with the names, order and units
// BENCHMARK.json declares. Diagnostics go to standard error.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Plan.h"
#include "Stats.h"
#include "Trace.h"
#include "Yardstick.h"

#include "guestsw/Workloads.h"
#include "rules/RuleSet.h"
#include "vm/Vm.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace rtbench;
using rdbt::dbt::StopReason;
using rdbt::vm::RunReport;
using rdbt::vm::Snapshot;
using rdbt::vm::Vm;
using rdbt::vm::VmConfig;

namespace {

/// Yardstick slice length: about 0.4 ms on the reference host.
constexpr uint64_t YardOps = 200000;
/// Guest instructions per timed slice, per executor: 1-2 ms each on the
/// reference host (rule 13-35, qemu 25-65, native 32-75 ns per instruction,
/// quiet to busy core).
constexpr uint64_t SliceTargetGi[3] = {60000, 30000, 25000};
/// Warm-up step (simulated cycles; instructions for native).
constexpr uint64_t WarmStep[3] = {500000, 500000, 50000};
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int SetupRepeats = 5;
/// Slices per (program, executor) in a slice round; the first is untimed.
constexpr int BurstSlices = 3;

struct Fatal {
  std::string Msg;
};

/// Ops attempted and failed, with the first few failure messages.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void op(const std::string &Err) {
    ++Attempted;
    if (!Err.empty()) {
      ++Failed;
      if (Failed <= 20)
        std::fprintf(stderr, "rtbench: FAILED: %s\n", Err.c_str());
    }
  }
};

/// The yardstick stream: each timed operation is paired with the yardstick
/// slices run just before and just after it.
class Yard {
public:
  Yard() : Prev(yardstickNsPerOp(YardOps)) { All.push_back(Prev); }
  PairedSample pair(double Raw) {
    const double Next = yardstickNsPerOp(YardOps);
    All.push_back(Next);
    PairedSample S{Raw, Prev, Next};
    Prev = Next;
    return S;
  }
  /// Re-anchors after untimed work (a restart) so the next pair is
  /// adjacent.
  void refresh() {
    Prev = yardstickNsPerOp(YardOps);
    All.push_back(Prev);
  }
  std::vector<double> All;

private:
  double Prev;
};

/// Counter deltas accumulated over timed work of one executor.
struct Counts {
  uint64_t Gi = 0, ByClass[rdbt::host::NumCostClasses] = {};
  uint64_t SyncOps = 0, TbEntries = 0, ChainFollows = 0, HelperCalls = 0;
  uint64_t Translations = 0, Irqs = 0, Exceptions = 0, CacheEntries = 0;
  uint64_t WfiSleeps = 0, Retranslations = 0, TbsInvalidated = 0;
  uint64_t DecodeHits = 0, DecodeMisses = 0;
  uint64_t RuleCovered = 0, Fallback = 0, MatchAttempts = 0, MatchHits = 0;

  void add(const RunReport &C, const RunReport &P) {
    auto D = [](uint64_t Cur, uint64_t Before) {
      // Host-side observability counters restart at zero in a fork.
      return Cur >= Before ? Cur - Before : Cur;
    };
    Gi += D(C.Counters.GuestInstrs, P.Counters.GuestInstrs);
    for (unsigned I = 0; I < rdbt::host::NumCostClasses; ++I)
      ByClass[I] += D(C.Counters.ByClass[I], P.Counters.ByClass[I]);
    SyncOps += D(C.Counters.SyncOps, P.Counters.SyncOps);
    TbEntries += D(C.Counters.TbEntries, P.Counters.TbEntries);
    ChainFollows += D(C.Counters.ChainFollows, P.Counters.ChainFollows);
    HelperCalls += D(C.Counters.HelperCalls, P.Counters.HelperCalls);
    Translations += D(C.Engine.Translations, P.Engine.Translations);
    Irqs += D(C.Engine.IrqsDelivered, P.Engine.IrqsDelivered);
    Exceptions += D(C.Engine.GuestExceptions, P.Engine.GuestExceptions);
    CacheEntries += D(C.Engine.CacheEntries, P.Engine.CacheEntries);
    WfiSleeps += D(C.Engine.WfiSleeps, P.Engine.WfiSleeps);
    Retranslations += D(C.Cache.Retranslations, P.Cache.Retranslations);
    TbsInvalidated += D(C.Cache.TbsInvalidated, P.Cache.TbsInvalidated);
    DecodeHits += D(C.InterpDecodeHits, P.InterpDecodeHits);
    DecodeMisses += D(C.InterpDecodeMisses, P.InterpDecodeMisses);
    RuleCovered += D(C.RuleCoveredInstrs, P.RuleCoveredInstrs);
    Fallback += D(C.FallbackInstrs, P.FallbackInstrs);
    MatchAttempts += D(C.RuleMatchAttempts, P.RuleMatchAttempts);
    MatchHits += D(C.RuleMatchHits, P.RuleMatchHits);
  }
};

bool isSpan(const Span &S, const char *Name) {
  return std::strcmp(S.Name, Name) == 0;
}

/// What a session id stands for, so spans can be grouped after the fact.
enum class Role : uint8_t { Slice, Setup, Cold, Fork, Warm, QemuCold, Sim };

struct SliceSession {
  uint32_t Program = 0;
  Kind K = Kind::Rule;
  std::string Name;
  uint32_t Scale = 1;
  uint32_t Id = 0;
  Snapshot Warm;           ///< restart point, captured after warm-up
  RunReport WarmReport;    ///< the report at the restart point
  std::unique_ptr<Vm> V;
  RunReport Prev;          ///< last report, for counter deltas
  uint64_t Budget = 0;     ///< simulated cycles per slice before jitter
};

struct ItemState {
  Snapshot Boot;         ///< rule session captured at the boot mark
  std::string CacheDir;  ///< filled by a rule session during set-up
  RunReport RuleRef;     ///< what every rule start mode must reproduce
  bool HaveQemuRef = false;
  RunReport QemuRef;
};

struct SetupState {
  std::vector<SliceSession> Slices;
  std::vector<ItemState> Items;
};

/// Everything one pass (untraced or traced) measured.
struct PassResult {
  std::vector<double> Yards;
  /// [program][kind] paired slices: raw ns per guest instruction.
  std::vector<std::array<std::vector<PairedSample>, 3>> Slices;
  /// [program] adjacent qemu/rule ns-per-gi ratios.
  std::vector<std::vector<double>> Speedup;
  /// [mode][item] paired sessions: raw ms.
  std::array<std::vector<std::vector<PairedSample>>, 4> Sessions;
  /// Paired set-ups: raw seconds.
  std::vector<PairedSample> Setups;
  std::array<Counts, 3> SliceCounts;
  Counts RuleSessionCounts; ///< rule cold sessions, boot to end
  uint64_t ForkSessions = 0, ForkCowPages = 0;
  uint64_t WarmSessions = 0, WarmLoadedTbs = 0;
  /// Traced pass only: rule slices' run time minus translation, ns/gi.
  std::vector<PairedSample> RuleExec;
};

struct Bench {
  const WorkloadSpec &W;
  const Plan &P;
  const Oracle &O;
  const MatrixBaseline &M;
  Tally &T;
  std::string TmpDir;

  SpanLog *Log = nullptr; ///< non-null in the traced pass
  struct SessionInfo {
    Role R;
    Kind K;
  };
  /// By session id; id 0 stands for "no session".
  std::vector<SessionInfo> Sessions{{Role::Setup, Kind::Native}};
  uint32_t SetupCount = 0;

  uint32_t newSession(Role R, Kind K) {
    Sessions.push_back({R, K});
    return static_cast<uint32_t>(Sessions.size() - 1);
  }

  VmConfig config(Kind K, const std::string &Name, uint32_t Scale) const {
    std::string KindName = registryKind(K);
    if (Log && K != Kind::Native) {
      KindName = decoratedKind(KindName);
      if (KindName.empty())
        throw Fatal{"cannot register the timing decorator kinds"};
    }
    return VmConfig().workload(Name).scale(Scale).translator(KindName);
  }

  template <typename F>
  auto spanned(const char *Name, uint32_t Session, F &&Fn) {
    ScopedSpan S(Log, Name, Session);
    return Fn();
  }

  std::unique_ptr<Vm> construct(VmConfig Cfg, uint32_t Session) {
    auto V = spanned("Vm::Vm", Session,
                     [&] { return std::make_unique<Vm>(std::move(Cfg)); });
    if (!V->valid())
      throw Fatal{"cannot construct " + V->config().toSpec() + ": " +
                  V->error()};
    return V;
  }

  RunReport run(Vm &V, uint64_t Budget, uint32_t Session) {
    return spanned("Vm::run", Session, [&] { return V.run(Budget); });
  }

  const OracleEntry &oracle(const std::string &Name, uint32_t Scale) const {
    const OracleEntry *E = O.find(Name, Scale);
    if (!E)
      throw Fatal{"no oracle entry for " + Name + "@" +
                  std::to_string(Scale) + "; regenerate rtbench/oracle.txt"};
    return *E;
  }

  /// Complete scale-1 runs must reproduce the baseline matrix exactly. In
  /// the traced pass the decorator hides the rule translator's own
  /// counters from Vm, so those are waived; every simulated count is
  /// still compared, which proves the decorator changed nothing.
  std::string checkMatrix(Kind K, const std::string &Name, uint32_t Scale,
                          const RunReport &R) const {
    if (Scale != 1 || R.Stop != StopReason::GuestShutdown)
      return "";
    const std::string Spec =
        std::string(registryKind(K)) + "/" + Name + "@1";
    const CounterMap *Want = M.find(Spec);
    if (!Want)
      return "BENCH_matrix.json has no cell " + Spec;
    CounterMap Got = simCounters(R, K != Kind::Native);
    if (Log)
      for (const char *Hidden :
           {"rule_covered_instrs", "fallback_instrs", "rule_match_attempts",
            "rule_match_hits", "gap_seqs", "gap_translations", "gap_execs"})
        Got.erase(Hidden);
    const std::string Diff = diffCounters(*Want, Got);
    return Diff.empty() ? "" : Spec + " differs from BENCH_matrix.json: " + Diff;
  }

  // --- Set-up -------------------------------------------------------------

  SetupState setup() {
    SetupState S;
    const std::string Dir =
        TmpDir + "/setup-" + std::to_string(SetupCount++);
    std::filesystem::create_directories(Dir);

    for (uint32_t I = 0; I < W.SlicePrograms.size(); ++I) {
      const std::string &Name = W.SlicePrograms[I].Name;
      const uint32_t Scale = P.scaleOf(I);
      // Warm to a quarter of the program at its smallest drawable scale,
      // so the hot code is translated before anything is timed and the
      // set-up work is the same for every seed.
      const SliceProgram &SP = W.SlicePrograms[I];
      oracle(Name, Scale);
      const uint64_t Target =
          oracle(Name, *std::min_element(SP.Scales.begin(), SP.Scales.end()))
              .guestInstrs(Kind::Native) /
          4;
      for (Kind K : AllKinds) {
        SliceSession Ss;
        Ss.Program = I;
        Ss.K = K;
        Ss.Name = Name;
        Ss.Scale = Scale;
        Ss.Id = newSession(Role::Slice, K);
        Ss.V = construct(config(K, Name, Scale), Ss.Id);
        RunReport R;
        do
          R = run(*Ss.V, WarmStep[static_cast<int>(K)], Ss.Id);
        while (R.Stop == StopReason::WallLimit && R.guestInstrs() < Target);
        if (R.Stop != StopReason::WallLimit)
          throw Fatal{R.Spec + " stopped during warm-up (" + R.stopName() +
                      ")"};
        Ss.Warm = spanned("Vm::capture", Ss.Id, [&] { return Ss.V->capture(); });
        Ss.WarmReport = R;
        Ss.Prev = R;
        const double CyclesPerGi =
            static_cast<double>(R.wall()) / static_cast<double>(R.guestInstrs());
        Ss.Budget = static_cast<uint64_t>(
            static_cast<double>(SliceTargetGi[static_cast<int>(K)]) *
            CyclesPerGi);
        S.Slices.push_back(std::move(Ss));
      }
    }

    for (size_t I = 0; I < W.SessionItems.size(); ++I) {
      const SessionItem &It = W.SessionItems[I];
      oracle(It.Name, It.Scale);
      ItemState Is;
      {
        const uint32_t Id = newSession(Role::Setup, Kind::Rule);
        std::unique_ptr<Vm> V = construct(config(Kind::Rule, It.Name, It.Scale), Id);
        spanned("Vm::runToBootMark", Id, [&] { return V->runToBootMark(); });
        Is.Boot = spanned("Vm::capture", Id, [&] { return V->capture(); });
      }
      Is.CacheDir = Dir + "/item-" + std::to_string(I);
      std::filesystem::create_directories(Is.CacheDir);
      {
        // Fills the cache directory: the file is written when V goes.
        const uint32_t Id = newSession(Role::Setup, Kind::Rule);
        std::unique_ptr<Vm> V = construct(
            config(Kind::Rule, It.Name, It.Scale).persistentCache(Is.CacheDir),
            Id);
        spanned("Vm::runToBootMark", Id, [&] { return V->runToBootMark(); });
        Is.RuleRef = run(*V, It.BudgetCycles, Id);
        T.op(O.checkPartial(It.Name, It.Scale, Kind::Rule, Is.RuleRef));
      }
      S.Items.push_back(std::move(Is));
    }
    return S;
  }

  // --- Timed steps --------------------------------------------------------

  /// One slice round: a burst of BurstSlices slices of every (program,
  /// executor). A burst's first slice, and the first after a restart, is
  /// checked but not timed: it brings the session's code and data back
  /// into the host caches after the other sessions ran.
  void sliceRound(SetupState &S, PassResult &Out, Yard &Y, uint64_t Round) {
    const size_t NumKinds = 3;
    std::vector<std::array<double, 3>> RoundRaw(
        W.SlicePrograms.size(), std::array<double, 3>{0, 0, 0});
    for (const SliceStep &Step : P.sliceRound(Round)) {
      SliceSession &Ss =
          S.Slices[Step.Program * NumKinds + static_cast<size_t>(Step.K)];
      const size_t K = static_cast<size_t>(Ss.K);
      const uint64_t Budget =
          static_cast<uint64_t>(static_cast<double>(Ss.Budget) * Step.Jitter);
      double BurstNs = 0;
      uint64_t BurstGi = 0;
      bool Cold = true;
      for (int Slice = 0; Slice < BurstSlices; ++Slice) {
        const int32_t Span = Log ? Log->open("Vm::run", Ss.Id) : -1;
        const size_t FirstChild = Log ? Log->spans().size() : 0;
        const uint64_t T0 = nowNs();
        const RunReport R = Ss.V->run(Budget);
        const uint64_t T1 = nowNs();
        if (Log)
          Log->close(Span);
        if (R.Stop != StopReason::WallLimit) {
          // The guest finished (or failed): check the complete run, then
          // restart from the warm snapshot. Neither is timed.
          std::string Err = O.checkFinished(Ss.Name, Ss.Scale, Ss.K, R);
          if (Err.empty())
            Err = checkMatrix(Ss.K, Ss.Name, Ss.Scale, R);
          T.op(Err);
          Ss.V = spanned("Vm::forkFrom", Ss.Id,
                         [&] { return Vm::forkFrom(Ss.Warm); });
          Ss.Prev = Ss.WarmReport;
          Y.refresh();
          Cold = true;
          continue;
        }
        T.op(O.checkPartial(Ss.Name, Ss.Scale, Ss.K, R));
        const uint64_t Gi = R.guestInstrs() - Ss.Prev.guestInstrs();
        if (Cold) {
          Y.refresh(); // the next timed slice pairs with an adjacent one
          Cold = false;
        } else if (Gi > 0) {
          // A slice spent entirely asleep in WFI retires nothing: checked,
          // but there is no time per instruction to report.
          const double Ns = static_cast<double>(T1 - T0);
          const PairedSample PS = Y.pair(Ns / static_cast<double>(Gi));
          Out.Slices[Ss.Program][K].push_back(PS);
          Out.SliceCounts[K].add(R, Ss.Prev);
          BurstNs += Ns;
          BurstGi += Gi;
          if (Log && Ss.K == Kind::Rule) {
            double Translate = 0;
            for (size_t C = FirstChild; C < Log->spans().size(); ++C)
              if (isSpan(Log->spans()[C], RuleTranslateSpan))
                Translate += static_cast<double>(Log->spans()[C].End -
                                                 Log->spans()[C].Start);
            PairedSample E = PS;
            E.Raw = (Ns - Translate) / static_cast<double>(Gi);
            Out.RuleExec.push_back(E);
          }
        }
        Ss.Prev = R;
      }
      if (BurstGi > 0)
        RoundRaw[Ss.Program][K] = BurstNs / static_cast<double>(BurstGi);
    }
    for (size_t I = 0; I < RoundRaw.size(); ++I)
      if (RoundRaw[I][0] > 0 && RoundRaw[I][1] > 0)
        Out.Speedup[I].push_back(RoundRaw[I][1] / RoundRaw[I][0]);
  }

  void session(SetupState &S, PassResult &Out, Yard &Y, const SessionStep &St) {
    const SessionItem &It = W.SessionItems[St.Item];
    ItemState &Is = S.Items[St.Item];
    const Role R = St.Mode == StartMode::RuleCold   ? Role::Cold
                   : St.Mode == StartMode::RuleFork ? Role::Fork
                   : St.Mode == StartMode::RuleWarm ? Role::Warm
                                                    : Role::QemuCold;
    const uint32_t Id =
        newSession(R, R == Role::QemuCold ? Kind::Qemu : Kind::Rule);
    const bool Cold = R == Role::Cold || R == Role::QemuCold;
    if (Log && Cold)
      // The image build happens inside Vm::Vm, out of the client's
      // reach; time the same public call beside the session instead.
      spanned("guestsw::buildWorkloadImage", Id, [&] {
        return rdbt::guestsw::buildWorkloadImage(It.Name, It.Scale).size();
      });

    std::unique_ptr<Vm> V;
    RunReport Rep;
    const uint64_t T0 = nowNs();
    {
      ScopedSpan Root(Log, "session", Id);
      switch (St.Mode) {
      case StartMode::RuleFork:
        V = spanned("Vm::forkFrom", Id, [&] { return Vm::forkFrom(Is.Boot); });
        break;
      case StartMode::RuleWarm:
        V = construct(config(Kind::Rule, It.Name, It.Scale)
                          .persistentCache(Is.CacheDir)
                          .persistentCacheSaveOnExit(false),
                      Id);
        break;
      case StartMode::RuleCold:
        V = construct(config(Kind::Rule, It.Name, It.Scale), Id);
        break;
      case StartMode::QemuCold:
        V = construct(config(Kind::Qemu, It.Name, It.Scale), Id);
        break;
      }
      if (St.Mode != StartMode::RuleFork)
        spanned("Vm::runToBootMark", Id, [&] { return V->runToBootMark(); });
      Rep = run(*V, It.BudgetCycles, Id);
    }
    const uint64_t T1 = nowNs();
    Out.Sessions[static_cast<size_t>(St.Mode)][St.Item].push_back(
        Y.pair(static_cast<double>(T1 - T0) / 1e6));

    std::string Err = O.checkPartial(
        It.Name, It.Scale, St.Mode == StartMode::QemuCold ? Kind::Qemu : Kind::Rule,
        Rep);
    const RunReport *Ref = &Is.RuleRef;
    if (St.Mode == StartMode::QemuCold) {
      if (!Is.HaveQemuRef) {
        Is.QemuRef = Rep;
        Is.HaveQemuRef = true;
      }
      Ref = &Is.QemuRef;
    }
    if (Err.empty() &&
        (Rep.wall() != Ref->wall() || Rep.guestInstrs() != Ref->guestInstrs() ||
         Rep.Stop != Ref->Stop || Rep.Console != Ref->Console))
      Err = Rep.Spec + " (" + modeName(St.Mode) +
            ") differs from the item's reference run";
    if (Err.empty() && St.Mode == StartMode::RuleWarm &&
        (Rep.Cache.CacheFileHits != 1 || Rep.Cache.LoadedTbs == 0))
      Err = Rep.Spec + " (rule.warm) loaded nothing from its cache file";
    T.op(Err);

    switch (St.Mode) {
    case StartMode::RuleCold:
      Out.RuleSessionCounts.add(Rep, RunReport());
      break;
    case StartMode::RuleFork:
      ++Out.ForkSessions;
      Out.ForkCowPages += Rep.CowPrivatePages;
      break;
    case StartMode::RuleWarm:
      ++Out.WarmSessions;
      Out.WarmLoadedTbs += Rep.Cache.LoadedTbs;
      break;
    case StartMode::QemuCold:
      break;
    }
    V.reset(); // outside the timed window
  }

  /// One pass: set-up (Repeats times, keeping the last), then the timed
  /// loop for \p Seconds, interleaving slice and session rounds so both
  /// see the same host conditions. The loop runs on past \p Seconds only
  /// until every group has the samples its reported percentiles need:
  /// 2 * MinBeyond + 1 per slice session, program pair and item, and
  /// \p MinSessionsPerMode sessions per start mode (pooled over items).
  PassResult pass(double Seconds, int Repeats, size_t MinSessionsPerMode) {
    PassResult Out;
    Out.Slices.resize(W.SlicePrograms.size());
    Out.Speedup.resize(W.SlicePrograms.size());
    for (auto &M : Out.Sessions)
      M.resize(W.SessionItems.size());
    Yard Y;

    SetupState S;
    for (int I = 0; I < Repeats; ++I) {
      S = SetupState(); // tear-down of the previous set-up is not timed
      Y.refresh();
      const uint64_t T0 = nowNs();
      S = setup();
      const uint64_t T1 = nowNs();
      Out.Setups.push_back(Y.pair(static_cast<double>(T1 - T0) / 1e9));
    }

    const size_t PerGroup = 2 * MinBeyond + 1;
    const size_t Items = W.SessionItems.size();
    const size_t PerItem =
        std::max(PerGroup, (MinSessionsPerMode + Items - 1) / Items);
    auto Short = [](const auto &Groups, size_t Min) {
      for (const auto &G : Groups)
        if (G.size() < Min)
          return true;
      return false;
    };
    const uint64_t Start = nowNs();
    const uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
    // Past this, a group that still lacks samples is reported as an error
    // instead of keeping the run going.
    const uint64_t GiveUp = End + 60000000000ull;
    uint64_t SliceRounds = 0, SessionRounds = 0, SessionNs = 0;
    for (;;) {
      const uint64_t Now = nowNs();
      if (Now >= GiveUp)
        break;
      bool NeedSessions = false, NeedSlices = Short(Out.Speedup, PerGroup);
      for (const auto &Mode : Out.Sessions)
        NeedSessions |= Short(Mode, PerItem);
      for (const auto &Prog : Out.Slices)
        NeedSlices |= Short(Prog, PerGroup);
      if (Now >= End && !NeedSessions && !NeedSlices)
        break;
      const bool DoSessions =
          Now < End ? static_cast<double>(SessionNs) <
                          W.SessionShare * static_cast<double>(Now - Start)
                    : NeedSessions;
      if (DoSessions) {
        for (const SessionStep &St : P.sessionRound(SessionRounds))
          session(S, Out, Y, St);
        ++SessionRounds;
        SessionNs += nowNs() - Now;
      } else {
        sliceRound(S, Out, Y, SliceRounds++);
      }
    }
    Out.Yards = std::move(Y.All);
    std::fprintf(stderr,
                 "rtbench: %s pass: %llu slice rounds, %llu session rounds\n",
                 Log ? "traced" : "untraced",
                 static_cast<unsigned long long>(SliceRounds),
                 static_cast<unsigned long long>(SessionRounds));
    return Out;
  }

  /// Every sim-pool program to completion at scale 1 with rule and qemu,
  /// sliced at seeded boundaries; returns {speedup, rule cycles per gi}.
  std::pair<double, double> simPass() {
    std::vector<double> Speedups;
    uint64_t RuleWall = 0, RuleGi = 0;
    for (size_t I = 0; I < W.SimPool.size(); ++I) {
      const std::string &Name = W.SimPool[I];
      double PerGi[2] = {0, 0};
      for (Kind K : {Kind::Rule, Kind::Qemu}) {
        std::unique_ptr<Vm> V = construct(config(K, Name, 1), newSession(Role::Sim, K));
        const uint64_t Slice = P.simSliceCycles(I, K);
        RunReport R;
        do
          R = V->run(Slice);
        while (R.Stop == StopReason::WallLimit);
        std::string Err = O.checkFinished(Name, 1, K, R);
        if (Err.empty())
          Err = checkMatrix(K, Name, 1, R);
        T.op(Err);
        PerGi[K == Kind::Rule ? 0 : 1] =
            static_cast<double>(R.wall()) / static_cast<double>(R.guestInstrs());
        if (K == Kind::Rule) {
          RuleWall += R.wall();
          RuleGi += R.guestInstrs();
        }
      }
      Speedups.push_back(PerGi[1] / PerGi[0]);
    }
    return {geomean(Speedups).value_or(0),
            static_cast<double>(RuleWall) / static_cast<double>(RuleGi)};
  }
};

// --- Metric assembly ------------------------------------------------------

double need(std::optional<double> V, const char *What) {
  if (!V)
    throw Fatal{std::string("too few samples for ") + What};
  return *V;
}

/// Per-group values in reference time, or raw host time when \p Raw.
std::vector<double> values(const std::vector<PairedSample> &S, bool Raw) {
  return Raw ? rawValues(S) : refValues(S, ReferenceNsPerOp);
}

std::vector<std::vector<double>> perProgram(const PassResult &R, Kind K,
                                            bool Raw = false) {
  std::vector<std::vector<double>> G;
  for (const auto &P : R.Slices)
    G.push_back(values(P[static_cast<size_t>(K)], Raw));
  return G;
}

std::vector<std::vector<double>> perItem(const PassResult &R, StartMode M,
                                         bool Raw = false) {
  std::vector<std::vector<double>> G;
  for (const auto &I : R.Sessions[static_cast<size_t>(M)])
    G.push_back(values(I, Raw));
  return G;
}

/// The host-time end-to-end metrics of one pass. The traced pass's are
/// compared with the untraced ones for the trace overhead; the raw
/// variants (host ns and ms, not normalised) are printed as a diagnostic.
std::map<std::string, double> hostMetrics(const PassResult &R,
                                          bool Raw = false) {
  std::map<std::string, double> Out;
  for (Kind K : AllKinds)
    Out[std::string(kindName(K)) + ".ref_ns_per_gi"] =
        need(geomeanOfMedians(perProgram(R, K, Raw)), "ref_ns_per_gi");
  Out["rule.speedup_vs_qemu"] =
      need(geomeanOfMedians(R.Speedup), "rule.speedup_vs_qemu");
  for (StartMode M : AllModes)
    Out[std::string(modeName(M)) + "_ref_ms_p50"] =
        need(geomeanOfMedians(perItem(R, M, Raw)), modeName(M));
  return Out;
}

double perK(uint64_t Num, uint64_t Gi) {
  return Gi ? 1000.0 * static_cast<double>(Num) / static_cast<double>(Gi) : 0;
}
double share(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Median of span self times (or durations) over spans matching \p Pred.
/// Some calls happen only a dozen times a run (captures, at set-up), so
/// this median has no minimum tail; the tail rule guards the p90s.
std::optional<double>
spanMedian(const SpanLog &L, const std::vector<double> &Self, bool UseSelf,
           const std::function<bool(const Span &)> &Pred) {
  std::vector<double> V;
  for (size_t I = 0; I < L.spans().size(); ++I) {
    const Span &S = L.spans()[I];
    if (Pred(S))
      V.push_back(UseSelf ? Self[I] : static_cast<double>(S.End - S.Start));
  }
  return percentile(V, 50, /*Beyond=*/0);
}

/// Reference ns per RuleSet::match call, replaying the guest blocks the
/// rule decorator saw the way core::RuleTranslator walks a block
/// (instructions it translates structurally are skipped). Median of five
/// paired replays; 0 when no block was seen.
double matchReplayRefNs(const std::vector<std::vector<rdbt::arm::Inst>> &Blocks) {
  const rdbt::rules::RuleSet RS = rdbt::rules::buildReferenceRuleSet();
  std::vector<double> PerCall;
  Yard Y;
  for (int Rep = 0; Rep < 5 && !Blocks.empty(); ++Rep) {
    uint64_t Calls = 0;
    const uint64_t T0 = nowNs();
    for (const std::vector<rdbt::arm::Inst> &B : Blocks) {
      for (size_t I = 0; I < B.size();) {
        const rdbt::arm::Inst &In = B[I];
        if (In.isMemAccess() || In.isDirectBranch() ||
            In.Op == rdbt::arm::Opcode::BX || In.Op == rdbt::arm::Opcode::NOP) {
          ++I;
          continue;
        }
        rdbt::rules::Binding Bd;
        const rdbt::rules::Rule *R = nullptr;
        const size_t N = RS.match(&B[I], B.size() - I, &R, Bd);
        ++Calls;
        I += N ? N : 1;
      }
    }
    const uint64_t T1 = nowNs();
    if (Calls)
      PerCall.push_back(
          Y.pair(static_cast<double>(T1 - T0) / static_cast<double>(Calls))
              .ref(ReferenceNsPerOp));
  }
  return percentile(PerCall, 50, /*Beyond=*/0).value_or(0);
}

std::map<std::string, double>
layerMetrics(const Bench &D, const SpanLog &L, const PassResult &Untraced,
             const PassResult &Traced) {
  std::map<std::string, double> Out;
  const double Yard = need(median(Traced.Yards), "traced yardstick");
  const double F = ReferenceNsPerOp / Yard; // raw ns -> reference ns
  const std::vector<double> Self = L.selfTimes();
  auto Named = [](const char *N) {
    return [N](const Span &S) { return isSpan(S, N); };
  };
  auto RoleOf = [&D](const Span &S) { return D.Sessions[S.Session].R; };
  auto NamedIn = [&](const char *N, Role R) {
    return [N, R, &RoleOf](const Span &S) {
      return isSpan(S, N) && RoleOf(S) == R;
    };
  };
  auto Ms = [F](double Ns) { return Ns * F / 1e6; };

  // vm: self time of the public calls.
  const double ColdCtor =
      need(spanMedian(L, Self, true, NamedIn("Vm::Vm", Role::Cold)), "Vm::Vm");
  const double WarmCtor =
      need(spanMedian(L, Self, true, NamedIn("Vm::Vm", Role::Warm)), "Vm::Vm");
  Out["vm.construct_ref_ms"] = Ms(ColdCtor);
  Out["vm.boot_mark_ref_ms"] = Ms(need(
      spanMedian(L, Self, true, Named("Vm::runToBootMark")), "runToBootMark"));
  Out["vm.capture_ref_ms"] =
      Ms(need(spanMedian(L, Self, true, Named("Vm::capture")), "capture"));
  Out["vm.fork_ref_ms"] = Ms(need(
      spanMedian(L, Self, true, NamedIn("Vm::forkFrom", Role::Fork)), "fork"));
  Out["vm.cow_pages_per_fork"] =
      share(Untraced.ForkCowPages, Untraced.ForkSessions);
  Out["guestsw.image_build_ref_ms"] = Ms(need(
      spanMedian(L, Self, false, Named("guestsw::buildWorkloadImage")),
      "buildWorkloadImage"));

  // core / ir / rules: translation time by executor.
  Out["core.translate_ref_us"] =
      need(spanMedian(L, Self, false, Named(RuleTranslateSpan)), "translate") *
      F / 1e3;
  Out["ir.translate_ref_us"] =
      need(spanMedian(L, Self, false, Named(QemuTranslateSpan)), "translate") *
      F / 1e3;
  // Translation's share of each executor's run time (Vm::run and
  // runToBootMark spans; translate spans are their children).
  double Xlat[2] = {0, 0}, RunNs[2] = {0, 0};
  for (const Span &S : L.spans()) {
    const double Dur = static_cast<double>(S.End - S.Start);
    if (isSpan(S, RuleTranslateSpan))
      Xlat[0] += Dur;
    else if (isSpan(S, QemuTranslateSpan))
      Xlat[1] += Dur;
    else if (isSpan(S, "Vm::run") || isSpan(S, "Vm::runToBootMark")) {
      const Kind K = D.Sessions[S.Session].K;
      if (K != Kind::Native)
        RunNs[static_cast<int>(K)] += Dur;
    }
  }
  Out["core.translate_share"] = share(Xlat[0], RunNs[0]);
  Out["ir.translate_share"] = share(Xlat[1], RunNs[1]);
  Out["rules.match_ref_ns"] = matchReplayRefNs(L.RuleBlocks);
  Counts Rule = Untraced.SliceCounts[0];
  const Counts &Sess = Untraced.RuleSessionCounts;
  Out["rules.match_hit_rate"] = share(Rule.MatchHits + Sess.MatchHits,
                                      Rule.MatchAttempts + Sess.MatchAttempts);
  Out["core.rule_coverage"] =
      share(Rule.RuleCovered + Sess.RuleCovered,
            Rule.RuleCovered + Sess.RuleCovered + Rule.Fallback + Sess.Fallback);

  // dbt: the engine loop, from the rule slices.
  {
    std::vector<double> V = refValues(Traced.RuleExec, ReferenceNsPerOp);
    Out["dbt.execute_ref_ns_per_gi"] = need(median(V), "rule exec");
  }
  Out["dbt.translations_per_kgi"] = perK(Rule.Translations, Rule.Gi);
  Out["dbt.retranslations"] = static_cast<double>(Rule.Retranslations);
  Out["dbt.tbs_invalidated_per_kgi"] = perK(Rule.TbsInvalidated, Rule.Gi);
  Out["dbt.chain_follow_share"] = share(Rule.ChainFollows, Rule.TbEntries);
  Out["dbt.cache_entries_per_kgi"] = perK(Rule.CacheEntries, Rule.Gi);
  Out["dbt.loaded_tbs"] = share(Untraced.WarmLoadedTbs, Untraced.WarmSessions);
  Out["dbt.warm_load_ref_ms"] = Ms(WarmCtor - ColdCtor);

  // host: simulated cost classes of the rule executor.
  static const char *ClassNames[] = {"user", "sync", "mmuinline",
                                     "irqcheck", "glue", "helper"};
  for (unsigned C = 0; C < rdbt::host::NumCostClasses; ++C)
    Out[std::string("host.") + ClassNames[C] + "_cycles_per_gi"] =
        share(Rule.ByClass[C], Rule.Gi);
  Out["host.helper_calls_per_kgi"] = perK(Rule.HelperCalls, Rule.Gi);
  Out["host.sync_ops_per_kgi"] = perK(Rule.SyncOps, Rule.Gi);

  // sys: interpreter (native slices) and system events (rule slices).
  const Counts &Nat = Untraced.SliceCounts[2];
  Out["sys.interp_decode_hit_rate"] =
      share(Nat.DecodeHits, Nat.DecodeHits + Nat.DecodeMisses);
  Out["sys.irqs_per_kgi"] = perK(Rule.Irqs, Rule.Gi);
  Out["sys.exceptions_per_kgi"] = perK(Rule.Exceptions, Rule.Gi);
  Out["sys.wfi_sleeps"] = static_cast<double>(Rule.WfiSleeps);

  // bench: noise diagnostics, from the untraced pass.
  const double P05 = need(percentile(Untraced.Yards, 5), "yardstick p05");
  Out["bench.yardstick_raw_ns_p05"] = P05;
  Out["bench.yardstick_raw_ns_p50"] =
      need(median(Untraced.Yards), "yardstick p50");
  uint64_t Contended = 0, Total = 0;
  for (const auto &Prog : Untraced.Slices)
    for (const auto &KS : Prog)
      for (const PairedSample &S : KS) {
        ++Total;
        Contended += S.yard() > 1.2 * P05;
      }
  Out["bench.contended_share"] = share(Contended, Total);
  for (Kind K : AllKinds)
    Out[std::string(kindName(K)) + ".raw_ns_per_gi_p50"] =
        need(geomeanOfMedians(perProgram(Untraced, K, true)), "raw ns/gi");
  for (StartMode M : AllModes) {
    std::vector<double> Pooled;
    for (const auto &G : perItem(Untraced, M))
      Pooled.insert(Pooled.end(), G.begin(), G.end());
    Out[std::string(modeName(M)) + "_ref_ms_p90"] =
        need(percentile(Pooled, 90), "session p90");
  }
  const std::map<std::string, double> A = hostMetrics(Untraced);
  const std::map<std::string, double> B = hostMetrics(Traced);
  std::vector<double> Ratios;
  for (const auto &[Name, V] : A)
    if (Name != "rule.speedup_vs_qemu")
      Ratios.push_back(B.at(Name) / V);
  Out["bench.trace_overhead"] = need(geomean(Ratios), "trace overhead") - 1;
  return Out;
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// --- Oracle generation ------------------------------------------------------

int makeOracle(const std::string &Path) {
  std::map<std::pair<std::string, uint32_t>, bool> Needed;
  for (const WorkloadSpec &W : workloads()) {
    for (const SliceProgram &P : W.SlicePrograms)
      for (uint32_t S : P.Scales)
        Needed[{P.Name, S}] = true;
    for (const SessionItem &I : W.SessionItems)
      Needed[{I.Name, I.Scale}] = true;
    for (const std::string &N : W.SimPool)
      Needed[{N, 1}] = true;
  }
  std::map<std::pair<std::string, uint32_t>, OracleEntry> Entries;
  int Bad = 0;
  for (const auto &Entry : Needed) {
    const auto &Key = Entry.first;
    OracleEntry E;
    RunReport Ref;
    // Native first: its stop and console are the ones the others must match.
    for (Kind K : {Kind::Native, Kind::Rule, Kind::Qemu}) {
      Vm V(VmConfig()
               .workload(Key.first)
               .scale(Key.second)
               .translator(registryKind(K)));
      const RunReport R = V.run();
      E.GuestInstrs[static_cast<size_t>(K)] = R.guestInstrs();
      if (K == Kind::Native) {
        Ref = R;
        if (R.Stop != StopReason::GuestShutdown) {
          std::fprintf(stderr, "rtbench: %s did not shut down cleanly\n",
                       R.Spec.c_str());
          ++Bad;
        }
      } else if (R.Stop != Ref.Stop || R.Console != Ref.Console) {
        std::fprintf(stderr, "rtbench: %s disagrees with native\n",
                     R.Spec.c_str());
        ++Bad;
      }
    }
    E.Stop = Ref.stopName();
    E.Console = Ref.Console;
    Entries[Key] = E;
  }
  if (Bad)
    return 1;
  std::ofstream Out(Path);
  Out << Oracle::format(Entries);
  return Out ? 0 : 1;
}

struct Args {
  std::string Workload, Root = ".", Tmp, MakeOracle;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
};

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    const std::string F = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value for " + F;
      return false;
    }
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (F == "--workload")
      A.Workload = V;
    else if (F == "--root")
      A.Root = V;
    else if (F == "--tmp")
      A.Tmp = V;
    else if (F == "--make-oracle")
      A.MakeOracle = V;
    else if (F == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End) {
        Err = "bad --seed '" + V + "'";
        return false;
      }
    } else if (F == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(A.Seconds > 0 && A.Seconds <= 120)) {
        Err = "bad --seconds '" + V + "'";
        return false;
      }
    } else if (F == "--trace") {
      if (V != "0" && V != "1") {
        Err = "bad --trace '" + V + "' (0 or 1)";
        return false;
      }
      A.Trace = V == "1";
    } else {
      Err = "unknown flag " + F;
      return false;
    }
  }
  return true;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "NaN"; // run.py rejects it
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err)) {
    std::fprintf(stderr, "rtbench: %s\n", Err.c_str());
    return 2;
  }
  if (!A.MakeOracle.empty())
    return makeOracle(A.MakeOracle);

  const WorkloadSpec *W = findWorkload(A.Workload);
  if (!W || A.Seconds <= 0 || A.Trace < 0 || A.Tmp.empty()) {
    std::fprintf(stderr, "rtbench: need --workload (one of steady-spec, "
                         "system-churn, session-start), --seed, --seconds, "
                         "--trace and --tmp\n");
    return 2;
  }
  Oracle O;
  MatrixBaseline M;
  if (!O.load(A.Root + "/rtbench/oracle.txt", Err) ||
      !M.load(A.Root + "/bench/baselines/BENCH_matrix.json", Err)) {
    std::fprintf(stderr, "rtbench: %s\n", Err.c_str());
    return 2;
  }

  Tally T;
  const Plan P(*W, A.Seed);
  std::map<std::string, double> Values;
  try {
    Bench D{*W, P, O, M, T, A.Tmp};
    if (!A.Trace) {
      const PassResult R = D.pass(A.Seconds, SetupRepeats, 0);
      Values = hostMetrics(R);
      std::vector<double> SetupRef = refValues(R.Setups, ReferenceNsPerOp);
      Values["setup_s"] = need(percentile(SetupRef, 50, 0), "setup");
      std::string RawLine;
      for (const auto &[Name, V] : hostMetrics(R, /*Raw=*/true))
        RawLine += " " + Name + "=" + jsonNumber(V);
      RawLine += " setup_s=" +
                 jsonNumber(need(percentile(rawValues(R.Setups), 50, 0), "setup"));
      std::fprintf(stderr, "rtbench: raw:%s\n", RawLine.c_str());
      Values["peak_rss_mb"] = peakRssMb();
      const auto [Speedup, Cpg] = D.simPass();
      Values["sim.speedup_vs_qemu"] = Speedup;
      Values["sim.rule_cycles_per_gi"] = Cpg;
    } else {
      // Untraced first (end-to-end numbers, exact counts and the session
      // p90s, which need 100 sessions per mode), then the same plan
      // traced; the difference is the trace overhead.
      const PassResult Untraced = D.pass(A.Seconds / 2, 1, 10 * MinBeyond);
      SpanLog L;
      D.Log = &L;
      attachSpanLog(&L);
      const PassResult Traced = D.pass(A.Seconds / 2, 1, 0);
      attachSpanLog(nullptr);
      Values = layerMetrics(D, L, Untraced, Traced);
      D.Log = nullptr;
      D.simPass();
    }
  } catch (const Fatal &F) {
    std::fprintf(stderr, "rtbench: %s\n", F.Msg.c_str());
    std::error_code EC;
    std::filesystem::remove_all(A.Tmp, EC);
    return 1;
  }
  std::error_code EC;
  std::filesystem::remove_all(A.Tmp, EC);

  std::string Json = "{\"correct\": ";
  Json += T.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(T.Attempted);
  Json += ", \"failed\": " + std::to_string(T.Failed);
  Json += ", \"values\": {";
  bool First = true;
  for (const auto &[Name, V] : Values) {
    Json += (First ? "\"" : ", \"") + Name + "\": " + jsonNumber(V);
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
