//===- tests/HostAndRulesTest.cpp - Host machine and rule-set tests --------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "host/HostDisasm.h"
#include "host/HostEmitter.h"
#include "host/HostMachine.h"
#include "dbt/SoftmmuEmit.h"
#include "rules/RuleSet.h"
#include "support/Cond.h"
#include "sys/Env.h"
#include "sys/Mmu.h"
#include "sys/Platform.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace rdbt;
using namespace rdbt::host;

namespace {

/// Minimal harness around HostMachine with a real env + RAM.
class HostFixture : public ::testing::Test, public HelperHandler,
                    public WallSink {
protected:
  HostFixture()
      : Board(8 << 20), Port(Board.Ram),
        Machine(reinterpret_cast<uint32_t *>(&Board.Env),
                sys::envWordCount(), Port, *this, *this,
                sys::envSlotMmuIdx(), sys::envSlotTlbBase(),
                sys::tlbEntryWords(), sys::TlbSize) {}

  Outcome call(uint16_t Id, uint32_t A0, uint32_t A1, uint32_t) override {
    LastHelper = Id;
    Outcome O;
    O.Cost = 5;
    O.HasResult = true;
    O.Result = A0 + A1;
    return O;
  }
  uint64_t onWall(uint64_t) override { return ~0ull; }

  class Port_ final : public PhysPort {
  public:
    explicit Port_(sys::PhysMem &M)
        : PhysPort(M.readPointers(), M.writePointers(), M.numPages()),
          Ram(M) {}
    void write(uint32_t Pa, unsigned Size, uint32_t V) override {
      Ram.write(Pa, Size, V);
    }
    sys::PhysMem &Ram;
  };

  class OneBlock final : public CodeSource {
  public:
    HostBlock B;
    const HostBlock *block(int Id) const override {
      return Id == 0 ? &B : nullptr;
    }
  };

  /// Runs the translators' inline access of \p Va's word on \p B's RAM
  /// (\p Value for a store) on a machine of its own, after installing a
  /// TLB entry that maps Va's page to itself. Returns the loaded word, or
  /// 0 for a store; \p Helpers counts helper calls (0: the probe hit).
  uint32_t translatedAccess(sys::Platform &B, uint32_t Va, bool IsLoad,
                            uint32_t Value, uint64_t &Helpers) {
    sys::TlbEntry &Entry =
        B.Env.Tlb[B.Env.MmuIdx][(Va >> 12) & (sys::TlbSize - 1)];
    Entry.TagRead = Entry.TagWrite = Va >> 12;
    Entry.PhysFlags = Va & ~0xFFFu;
    Port_ P(B.Ram);
    HostMachine M(reinterpret_cast<uint32_t *>(&B.Env), sys::envWordCount(),
                  P, *this, *this, sys::envSlotMmuIdx(),
                  sys::envSlotTlbBase(), sys::tlbEntryWords(), sys::TlbSize);
    OneBlock Src;
    HostEmitter E(Src.B);
    E.movRI(4, Va);
    E.movRI(5, Value);
    dbt::emitInlineAccess(E, 4, 5, 4, IsLoad);
    E.exitTb(ExitReason::Lookup);
    M.run(Src, 0);
    Helpers = M.Counters.HelperCalls;
    return IsLoad ? M.reg(5) : 0;
  }
  uint32_t translatedLoad(sys::Platform &B, uint32_t Va) {
    uint64_t Helpers = 0;
    const uint32_t V = translatedAccess(B, Va, true, 0, Helpers);
    EXPECT_EQ(0u, Helpers) << "the inline probe must hit";
    return V;
  }
  void translatedStore(sys::Platform &B, uint32_t Va, uint32_t Value) {
    uint64_t Helpers = 0;
    translatedAccess(B, Va, false, Value, Helpers);
    EXPECT_EQ(0u, Helpers) << "the inline probe must hit";
  }

  sys::Platform Board;
  Port_ Port;
  HostMachine Machine;
  uint16_t LastHelper = 0xFFFF;
};

/// FNV-1a over every byte of a captured RAM image.
uint64_t hashPages(const sys::PhysMem::Image &Img) {
  uint64_t H = 1469598103934665603ull;
  for (const sys::PhysMem::PageRef &P : Img.Pages)
    for (uint8_t B : P->Bytes)
      H = (H ^ B) * 1099511628211ull;
  return H;
}

/// ARM's ConditionHolds() pseudocode: cond<3:1> picks the test, cond<0>
/// inverts it, except for 0b1111.
bool armConditionHolds(unsigned Cond, bool N, bool Z, bool C, bool V) {
  bool Result = true;
  switch (Cond >> 1) {
  case 0: Result = Z; break;
  case 1: Result = C; break;
  case 2: Result = N; break;
  case 3: Result = V; break;
  case 4: Result = C && !Z; break;
  case 5: Result = N == V; break;
  case 6: Result = N == V && !Z; break;
  case 7: Result = true; break;
  }
  if ((Cond & 1) && Cond != 15)
    Result = !Result;
  return Result;
}

TEST_F(HostFixture, AluAndFlagsArmPolarity) {
  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(0, 5);
  E.aluI(HOp::Sub, 0, 7, /*SetFlags=*/true); // 5 - 7: borrow -> C clear
  E.setCc(1, HCond::Cc);                     // x86 "b": C clear
  E.setCc(2, HCond::Mi);
  E.exitTb(ExitReason::Lookup);
  const RunResult R = Machine.run(Src, 0);
  EXPECT_EQ(R.Reason, ExitReason::Lookup);
  EXPECT_EQ(Machine.reg(0), 5u - 7u);
  EXPECT_EQ(Machine.reg(1), 1u) << "ARM-polarity carry: borrow clears C";
  EXPECT_EQ(Machine.reg(2), 1u) << "negative result sets N";
}

TEST_F(HostFixture, PackUnpackFlagsRoundTrip) {
  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(0, 1);
  E.aluI(HOp::Sub, 0, 1, true); // Z=1, C=1 (no borrow)
  E.packF(1);
  E.movRI(2, 0);
  E.aluI(HOp::Add, 2, 1, true); // clobber flags (result 1: NZCV=0)
  E.unpackF(1);
  E.setCc(3, HCond::Eq);
  E.setCc(4, HCond::Cs);
  E.exitTb(ExitReason::Lookup);
  Machine.run(Src, 0);
  EXPECT_EQ(Machine.reg(3), 1u);
  EXPECT_EQ(Machine.reg(4), 1u);
}

TEST_F(HostFixture, EnvSlotsAndHelperCalls) {
  Board.Env.Regs[7] = 0xAA55;
  OneBlock Src;
  HostEmitter E(Src.B);
  E.ldEnv(0, sys::envSlotReg(7));
  E.movRI(1, 3);
  E.setClass(CostClass::Helper);
  E.callHelper(/*Helper=*/9, /*A0=*/0, /*A1=*/1, /*Dst=*/2);
  E.setClass(CostClass::User);
  E.stEnv(sys::envSlotReg(8), 2);
  E.exitTb(ExitReason::Lookup);
  Machine.run(Src, 0);
  EXPECT_EQ(LastHelper, 9u);
  EXPECT_EQ(Board.Env.Regs[8], 0xAA55u + 3u);
  EXPECT_EQ(Machine.Counters.HelperCalls, 1u);
  // call overhead 3 + helper-reported 5 charged to the Helper class.
  EXPECT_EQ(Machine.Counters.ByClass[static_cast<unsigned>(
                CostClass::Helper)],
            8u);
}

TEST_F(HostFixture, TlbProbeAndGuestAccess) {
  // Install a TLB entry by hand and run the probe sequence the
  // translators emit.
  const uint32_t Va = 0x00345678;
  sys::TlbEntry &Entry =
      Board.Env.Tlb[0][(Va >> 12) & (sys::TlbSize - 1)];
  Entry.TagRead = Va >> 12;
  Entry.TagWrite = Va >> 12;
  Entry.PhysFlags = 0x00345000;
  Board.Ram.write(0x00345678, 4, 0x13579BDF);

  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(4, Va);
  dbt::emitInlineAccess(E, 4, 5, 4, /*IsLoad=*/true);
  E.exitTb(ExitReason::Lookup);
  Machine.run(Src, 0);
  EXPECT_EQ(Machine.reg(5), 0x13579BDFu);
  EXPECT_EQ(Machine.Counters.HelperCalls, 0u) << "hit path, no helper";
  EXPECT_GT(Machine.Counters.ByClass[static_cast<unsigned>(
                CostClass::MmuInline)],
            5u);
}

/// Helper and device-clock stand-ins for the probe timing test: the
/// helpers access RAM at the (identity-mapped) virtual address, and the
/// first onWall writes SinkValue where the probe accesses, so the final
/// value shows whether the device write came before the access.
class ProbeRig final : public PhysPort, public HelperHandler,
                       public WallSink {
public:
  enum : uint64_t { HelperCost = 5, DeadlineStep = 4 };

  explicit ProbeRig(sys::Platform &B)
      : PhysPort(B.Ram.readPointers(), B.Ram.writePointers(),
                 B.Ram.numPages()),
        Board(B) {}

  void write(uint32_t Pa, unsigned Size, uint32_t V) override {
    Board.Ram.write(Pa, Size, V);
  }
  Outcome call(uint16_t Id, uint32_t A0, uint32_t A1, uint32_t) override {
    Outcome O;
    O.Cost = HelperCost;
    const unsigned Size = 1u << (Id % 3); // Ld8, Ld16, Ld32, St8, ...
    if (Id < dbt::HelperSt8) {
      O.HasResult = true;
      O.Result = Board.Ram.read(A0, Size);
    } else {
      Board.Ram.write(A0, Size, A1);
    }
    return O;
  }
  uint64_t onWall(uint64_t Now) override {
    if (Calls.empty())
      Board.Ram.write(SinkPa, SinkSize, SinkValue);
    Calls.push_back(Now);
    return Now + DeadlineStep;
  }

  sys::Platform &Board;
  uint32_t SinkPa = 0, SinkValue = 0;
  unsigned SinkSize = 4;
  std::vector<uint64_t> Calls;
};

// The inline probe must charge, order and leave state exactly like the
// 12-instruction sequence it models (mov, shr, mov, and, tlb cmp, jne,
// tlb phys, mov, and, or, access, jmp): a hit is 12 MmuInline cycles with
// RAM touched after the 11th, a miss is 6 and falls into the helper. For
// every size, kind and outcome, a device deadline at each cycle offset
// 1..12 fires at the same Now, a device write lands before the access
// exactly when the deadline is at or before the access, and a runaway
// guard at each instruction of the sequence leaves the same partial state.
TEST(InlineProbe, ChargesAndOrdersLikeTheTwelveInstructionSequence) {
  enum class Kind { Hit, Miss, Misaligned };
  const uint32_t AddrReg = 4, Page = 0x00345000, Off = 0x678;
  const uint32_t T0Init = 0xA0A0A0A0u, T1Init = 0xB1B1B1B1u;
  const uint32_t FlagsInit = 0x90000000u; // N and V
  const uint32_t RamInit = 0x13579BDFu, SinkValue = 0x2468ACE0u;
  const uint32_t StoreValue = 0xC3C2C1C0u;
  const unsigned Mmu = static_cast<unsigned>(CostClass::MmuInline);
  const unsigned Help = static_cast<unsigned>(CostClass::Helper);
  const unsigned User = static_cast<unsigned>(CostClass::User);
  sys::Platform Board(4 << 20);
  unsigned Cases = 0;

  for (unsigned Size : {1u, 2u, 4u})
    for (bool IsLoad : {true, false})
      for (uint8_t DataReg : {uint8_t(5), uint8_t(ScratchReg0)})
        for (Kind K : {Kind::Hit, Kind::Miss, Kind::Misaligned}) {
          if (DataReg == ScratchReg0 && !IsLoad)
            continue; // stores never take their data from t0
          if (K == Kind::Misaligned && Size == 1)
            continue;
          const uint32_t Va = Page + Off + (K == Kind::Misaligned ? 1 : 0);
          const uint32_t Mask = Size == 4 ? ~0u : (1u << (8 * Size)) - 1;
          const bool Hit = K == Kind::Hit;
          const uint32_t Vpn = Va >> 12, Index = Vpn & (sys::TlbSize - 1);
          const uint32_t Tag = K == Kind::Miss ? sys::TlbInvalidTag : Vpn;
          const uint32_t Key = Vpn | (Va & (Size - 1)) << 20;
          const uint32_t Diff = Tag - Key;
          const uint32_t CmpFlags =
              (Diff >> 31) << 31 | (Diff == 0 ? 1u << 30 : 0) |
              (Tag >= Key ? 1u << 29 : 0) |
              ((Tag ^ Key) & (Tag ^ Diff)) >> 31 << 28;
          // Each charge of the sequence in order, then the index of the
          // charge after which the access (RAM or helper) happens.
          std::vector<std::pair<unsigned, uint64_t>> Script;
          for (unsigned I = 0; I < (Hit ? 12u : 6u); ++I)
            Script.push_back({Mmu, 1});
          size_t AccessAfter = 11;
          if (!Hit) {
            Script.push_back({Help, 3});
            Script.push_back({Help, ProbeRig::HelperCost});
            AccessAfter = 7;
          }
          Script.push_back({User, 1}); // exit_tb

          // The state after the first J instructions of the sequence.
          auto Prefix = [&](unsigned J, uint32_t Accessed, uint32_t &T0,
                            uint32_t &T1, uint32_t &Data, uint32_t &Nzcv) {
            T0 = J >= 9 ? Va & 0xFFF : J >= 8 ? Va : J >= 2 ? Vpn
                 : J >= 1 ? Va : T0Init;
            T1 = J >= 10 ? Va : J >= 7 ? Page : J >= 4 ? Index
                 : J >= 3 ? Vpn : T1Init;
            Nzcv = J >= 5 ? CmpFlags : FlagsInit;
            Data = IsLoad ? (J >= 11 ? Accessed : 0u) : StoreValue;
            if (DataReg == ScratchReg0 && J >= 11)
              T0 = Accessed;
          };

          auto Reset = [&] {
            sys::TlbEntry &E = Board.Env.Tlb[0][Index];
            E.TagRead = E.TagWrite = Tag;
            E.PhysFlags = Page;
            Board.Ram.write(Page + Off, 4, RamInit);
            Board.Ram.write(Page + Off + 4, 4, RamInit);
          };
          Reset();
          const uint32_t Before = Board.Ram.read(Va, Size);

          auto Run = [&](uint64_t Deadline, uint64_t MaxInstrs,
                         ProbeRig &Rig) {
            Reset();
            Rig.SinkPa = Va;
            Rig.SinkSize = Size;
            Rig.SinkValue = SinkValue;
            HostMachine M(reinterpret_cast<uint32_t *>(&Board.Env),
                          sys::envWordCount(), Rig, Rig, Rig,
                          sys::envSlotMmuIdx(), sys::envSlotTlbBase(),
                          sys::tlbEntryWords(), sys::TlbSize);
            struct : CodeSource {
              HostBlock B;
              const HostBlock *block(int Id) const override {
                return Id == 0 ? &B : nullptr;
              }
            } Src;
            HostEmitter Em(Src.B);
            dbt::emitInlineAccess(Em, AddrReg, DataReg,
                                  static_cast<uint8_t>(Size), IsLoad);
            Em.exitTb(ExitReason::Lookup);
            M.setReg(AddrReg, Va);
            M.setReg(ScratchReg0, T0Init);
            M.setReg(ScratchReg1, T1Init);
            M.setReg(5, IsLoad ? 0u : StoreValue);
            M.setPackedFlags(FlagsInit);
            M.NextDeadline = Deadline;
            M.MaxInstrsPerRun = MaxInstrs;
            const RunResult R = M.run(Src, 0);
            return std::make_pair(R, M);
          };

          const std::string Case =
              "size " + std::to_string(Size) + (IsLoad ? " load" : " store") +
              " into " + std::to_string(DataReg) + " kind " +
              std::to_string(static_cast<int>(K));
          for (uint64_t Deadline = 1; Deadline <= 12; ++Deadline) {
            const std::string Where =
                Case + " deadline " + std::to_string(Deadline);
            // Replay the script against the same device clock.
            uint64_t Wall = 0, Next = Deadline;
            uint64_t ByClass[NumCostClasses] = {};
            std::vector<uint64_t> Calls;
            size_t FirstCallAfter = 0;
            for (size_t I = 0; I < Script.size(); ++I) {
              Wall += Script[I].second;
              ByClass[Script[I].first] += Script[I].second;
              if (Wall >= Next) {
                if (Calls.empty())
                  FirstCallAfter = I + 1;
                Calls.push_back(Wall);
                Next = Wall + ProbeRig::DeadlineStep;
              }
            }
            const bool DeviceFirst = FirstCallAfter <= AccessAfter;

            ProbeRig Rig(Board);
            auto Out = Run(Deadline, ~0ull, Rig);
            const HostMachine &M = Out.second;
            EXPECT_TRUE(Out.first.Reason == ExitReason::Lookup) << Where;
            EXPECT_EQ(Wall, M.Counters.Wall) << Where;
            for (unsigned C = 0; C < NumCostClasses; ++C)
              EXPECT_EQ(ByClass[C], M.Counters.ByClass[C])
                  << Where << " class " << C;
            EXPECT_TRUE(Calls == Rig.Calls) << Where << " onWall times";
            EXPECT_EQ(Hit ? 0u : 1u, M.Counters.HelperCalls) << Where;

            const uint32_t Loaded = DeviceFirst ? SinkValue & Mask : Before;
            uint32_t T0, T1, Data, Nzcv;
            Prefix(Hit ? 12 : 6, Loaded, T0, T1, Data, Nzcv);
            if (!Hit && IsLoad) {
              Data = Loaded;
              if (DataReg == ScratchReg0)
                T0 = Loaded;
            }
            EXPECT_EQ(T0, M.reg(ScratchReg0)) << Where;
            EXPECT_EQ(T1, M.reg(ScratchReg1)) << Where;
            if (DataReg != ScratchReg0)
              EXPECT_EQ(Data, M.reg(DataReg)) << Where;
            EXPECT_EQ(Nzcv, M.packedFlags()) << Where;
            EXPECT_EQ(Va, M.reg(AddrReg)) << Where;
            if (!IsLoad)
              EXPECT_EQ((DeviceFirst ? StoreValue : SinkValue) & Mask,
                        Board.Ram.read(Va, Size))
                  << Where;
            ++Cases;
          }

          // A runaway guard that stops the run before instruction J+1.
          for (unsigned J = 0; J <= (Hit ? 12u : 6u); ++J) {
            const std::string Where = Case + " guard " + std::to_string(J);
            ProbeRig Rig(Board);
            auto Out = Run(~0ull, J, Rig);
            const HostMachine &M = Out.second;
            EXPECT_TRUE(Out.first.Reason == ExitReason::Shutdown) << Where;
            EXPECT_EQ(uint64_t{J}, M.Counters.Wall) << Where;
            EXPECT_EQ(uint64_t{J}, M.Counters.ByClass[Mmu]) << Where;
            EXPECT_TRUE(Rig.Calls.empty()) << Where;
            EXPECT_EQ(0u, M.Counters.HelperCalls) << Where;
            uint32_t T0, T1, Data, Nzcv;
            Prefix(J, Before, T0, T1, Data, Nzcv);
            EXPECT_EQ(T0, M.reg(ScratchReg0)) << Where;
            EXPECT_EQ(T1, M.reg(ScratchReg1)) << Where;
            if (DataReg != ScratchReg0)
              EXPECT_EQ(Data, M.reg(DataReg)) << Where;
            EXPECT_EQ(Nzcv, M.packedFlags()) << Where;
            if (!IsLoad)
              EXPECT_EQ(J >= 11 ? StoreValue & Mask : Before,
                        Board.Ram.read(Va, Size))
                  << Where;
            ++Cases;
          }
        }
  // 24 size/kind/register/outcome combinations, 9 of them hits: 12
  // deadlines each, plus 13 guards per hit and 7 per miss.
  EXPECT_EQ(24u * 12u + 9u * 13u + 15u * 7u, Cases);
}

TEST(CondTable, MatchesArmDefinitionsExhaustively) {
  for (unsigned Cond = 0; Cond < 16; ++Cond)
    for (unsigned Nzcv = 0; Nzcv < 16; ++Nzcv)
      EXPECT_EQ(armConditionHolds(Cond, Nzcv & 8, Nzcv & 4, Nzcv & 2,
                                  Nzcv & 1),
                condHolds(Cond, Nzcv))
          << "cond " << Cond << " nzcv " << Nzcv;
  EXPECT_EQ(5u, nzcvNibble(0, 1, 0, 1));
}

TEST_F(HostFixture, SetCcAndJccFollowTheArmConditions) {
  for (unsigned Cond = 0; Cond <= static_cast<unsigned>(HCond::Al); ++Cond)
    for (unsigned Nzcv = 0; Nzcv < 16; ++Nzcv) {
      const HCond Cc = static_cast<HCond>(Cond);
      OneBlock Src;
      HostEmitter E(Src.B);
      E.movRI(0, Nzcv << 28);
      E.unpackF(0);
      E.setCc(1, Cc);
      E.movRI(2, 1);
      const int Taken = E.jcc(Cc);
      E.movRI(2, 0);
      E.patchHere(Taken);
      E.exitTb(ExitReason::Lookup);
      Machine.run(Src, 0);
      const bool Expected =
          armConditionHolds(Cond, Nzcv & 8, Nzcv & 4, Nzcv & 2, Nzcv & 1);
      EXPECT_EQ(Expected, Machine.reg(1) == 1)
          << "set" << hcondName(Cc) << " nzcv " << Nzcv;
      EXPECT_EQ(Expected, Machine.reg(2) == 1)
          << "j" << hcondName(Cc) << " nzcv " << Nzcv;
    }
}

// A probe store writes in place only through a write pointer, and capture()
// clears them all: a store after the capture, on the master or on a fork,
// clones the page first and leaves the image as it was.
TEST_F(HostFixture, ProbeStoreToAPageSharedWithASnapshotClonesIt) {
  Board.Ram.write(0x5000, 4, 0x11111111u);
  translatedStore(Board, 0x5004, 0x55555555u); // owned: in place
  const auto Img = Board.Ram.capture();
  const uint64_t HashBefore = hashPages(*Img);
  sys::PlatformState Devices;
  Board.captureState(Devices);
  sys::Platform Fork(*Img, Devices);

  translatedStore(Board, 0x5000, 0x22222222u);
  translatedStore(Fork, 0x5000, 0x33333333u);
  translatedStore(Fork, 0x5008, 0x44444444u); // now owned by the fork
  EXPECT_EQ(HashBefore, hashPages(*Img))
      << "a translated store wrote a page the snapshot holds";
  EXPECT_EQ(1u, Fork.Ram.cowPrivatePages());
  EXPECT_EQ(0x22222222u, translatedLoad(Board, 0x5000));
  EXPECT_EQ(0x33333333u, translatedLoad(Fork, 0x5000));
  EXPECT_EQ(0x44444444u, translatedLoad(Fork, 0x5008));
  EXPECT_EQ(0x55555555u, translatedLoad(Fork, 0x5004));
  EXPECT_EQ(0u, translatedLoad(Board, 0x5008));
}

// A walk marks the page-table pages it reads and clears their write
// pointers, so a translated store into a table bumps walkGeneration() and
// the next fetch sees the edit with no TLB maintenance.
TEST_F(HostFixture, ProbeStoreToAWalkedPageVoidsTheFetchMemo) {
  const uint32_t L1 = 0x8000, L2 = 0xC000;
  Board.Env.Ttbr0 = L1;
  Board.Ram.write(L1 + 0 * 4, 4, 0x00000000u | (1u << 10) | 2u);
  Board.Ram.write(L1 + 3 * 4, 4, L2 | 1u);
  Board.Ram.write(L2 + 0 * 4, 4, 0x00300000u | (2u << 4) | 2u);
  Board.Ram.write(0x00300000, 4, 0x11111111u);
  Board.Ram.write(0x00310000, 4, 0x22222222u);
  Board.Env.Sctlr = sys::SctlrMmuEnable;
  sys::Mmu Mmu(Board.Env, Board);
  auto Fetch = [&] {
    uint32_t Word = 0;
    sys::Fault F;
    EXPECT_TRUE(Mmu.fetchWord(0x00300000, Word, F));
    return Word;
  };
  EXPECT_EQ(0x11111111u, Fetch());
  EXPECT_EQ(0x11111111u, Fetch());
  const uint64_t GenBefore = Board.Ram.walkGeneration();
  translatedStore(Board, L2, 0x00310000u | (2u << 4) | 2u);
  EXPECT_NE(GenBefore, Board.Ram.walkGeneration());
  EXPECT_EQ(0x22222222u, Fetch());
}

TEST_F(HostFixture, ChainSlotFallsThroughWhenUnresolved) {
  OneBlock Src;
  HostEmitter E(Src.B);
  E.chainSlot(0, 0x2000);
  E.stEnvI(sys::envSlotReg(15), 0x2000);
  E.exitTbNeedTranslate(0);
  const RunResult R = Machine.run(Src, 0);
  EXPECT_EQ(R.Reason, ExitReason::NeedTranslate);
  EXPECT_EQ(R.FromChainSlot, 0);
  EXPECT_EQ(Board.Env.Regs[15], 0x2000u);
}

TEST_F(HostFixture, DeadInstructionsCostNothing) {
  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(0, 1);
  const int DeadIdx = E.movRI(0, 2);
  E.exitTb(ExitReason::Lookup);
  Src.B.Code[DeadIdx].Dead = true;
  Machine.run(Src, 0);
  EXPECT_EQ(Machine.reg(0), 1u);
  EXPECT_EQ(Machine.Counters.Wall, 2u); // mov + exit only
}

TEST(RuleSetTest, ReferenceRulesMatchAndEmit) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::ADD;
  I.Rd = 0;
  I.Rn = 1;
  I.Op2 = arm::Operand2::reg(2);
  rules::Binding B;
  const rules::Rule *R = nullptr;
  ASSERT_EQ(RS.match(&I, 1, &R, B), 1u);
  HostBlock HB;
  HostEmitter E(HB);
  rules::emitRule(*R, B, E);
  ASSERT_EQ(HB.Code.size(), 2u); // mov h0, h1 ; add h0, h2
  EXPECT_EQ(HB.Code[0].Op, HOp::Mov);
  EXPECT_EQ(HB.Code[1].Op, HOp::Add);

  // add r0, r0, r2 elides the mov.
  I.Rn = 0;
  ASSERT_EQ(RS.match(&I, 1, &R, B), 1u);
  HostBlock HB2;
  HostEmitter E2(HB2);
  rules::emitRule(*R, B, E2);
  EXPECT_EQ(HB2.Code.size(), 1u);
}

TEST(RuleSetTest, SubAliasedUsesRsbForm) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::SUB;
  I.Rd = 2;
  I.Rn = 1;
  I.Op2 = arm::Operand2::reg(2); // rd == rm
  rules::Binding B;
  const rules::Rule *R = nullptr;
  ASSERT_EQ(RS.match(&I, 1, &R, B), 1u);
  HostBlock HB;
  HostEmitter E(HB);
  rules::emitRule(*R, B, E);
  ASSERT_FALSE(HB.Code.empty());
  EXPECT_EQ(HB.Code[0].Op, HOp::Rsb) << "sub rd, rn, rd -> rsb form";
}

TEST(RuleSetTest, SystemInstructionsNeverMatch) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::VMSR;
  I.Rd = 0;
  rules::Binding B;
  const rules::Rule *R = nullptr;
  EXPECT_EQ(RS.match(&I, 1, &R, B), 0u);
  I = arm::Inst();
  I.Op = arm::Opcode::LDR;
  I.Rd = 0;
  I.Rn = 1;
  EXPECT_EQ(RS.match(&I, 1, &R, B), 0u)
      << "memory accesses are structural, not rules";
}

TEST(RuleSetTest, PcOperandsRejected) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::ADD;
  I.Rd = 0;
  I.Rn = arm::RegPC;
  I.Op2 = arm::Operand2::reg(2);
  rules::Binding B;
  const rules::Rule *R = nullptr;
  EXPECT_EQ(RS.match(&I, 1, &R, B), 0u);
}

} // namespace
