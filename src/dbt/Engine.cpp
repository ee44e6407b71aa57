//===- dbt/Engine.cpp - System-level DBT execution engine ------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "dbt/Engine.h"

#include "arm/Decoder.h"
#include "dbt/CodeCacheIo.h"
#include "dbt/Helpers.h"
#include "obs/Trace.h"

#include <cassert>

using namespace rdbt;
using namespace rdbt::dbt;
using host::ExitReason;

Translator::~Translator() = default;

const char *dbt::toString(StopReason R) {
  switch (R) {
  case StopReason::GuestShutdown: return "guest shutdown";
  case StopReason::WallLimit: return "wall limit";
  case StopReason::Deadlock: return "deadlock";
  case StopReason::Runaway: return "runaway";
  }
  return "?";
}

bool Translator::allowChainFlagElision(const host::HostBlock &,
                                       const host::HostBlock &) const {
  return false;
}

void Translator::noteFallbackExecuted(uint32_t) {}

void Translator::setObs(obs::TraceSink *, obs::Metrics *) {}

void DbtEngine::setObs(obs::TraceSink *Sink, obs::Metrics *M) {
  Sink_ = Sink;
  Metrics_ = M;
  Cache.setTraceSink(Sink);
  Xlat.setObs(Sink, M);
  TranslateNsHist_ = M ? &M->histogram(obs::metric::TranslateNs) : nullptr;
  GuestBlockLenHist_ = M ? &M->histogram(obs::metric::GuestBlockLen) : nullptr;
  ChainDepthHist_ = M ? &M->histogram(obs::metric::ChainDepth) : nullptr;
  Interp.setDecodeNsHistogram(M ? &M->histogram(obs::metric::DecodeNs)
                                : nullptr);
}

DbtEngine::DbtEngine(sys::Platform &B, Translator &T)
    : Board(B), Xlat(T), Mmu_(B.Env, B), Interp(B.Env, Mmu_, B), Port(B.Ram),
      Machine(reinterpret_cast<uint32_t *>(&B.Env), sys::envWordCount(),
              Port, *this, *this, sys::envSlotMmuIdx(),
              sys::envSlotTlbBase(), sys::tlbEntryWords(), sys::TlbSize) {
}

uint64_t DbtEngine::onWall(uint64_t Now) {
  assert(Now >= Board.now() && "wall clock ran backwards");
  Board.advance(Now - Board.now());
  return Board.nextDeadline();
}

int DbtEngine::translateAt(uint32_t Pc) {
  GuestBlock GB;
  sys::Fault F;
  if (!fetchGuestBlock(Mmu_, Pc, Board.Env.MmuIdx, GB, F)) {
    Board.Env.Ifsr = F.Fsr;
    Board.Env.Dfar = F.Far;
    sys::takeException(Board.Env, sys::ExcKind::PrefetchAbort, Pc);
    ++Stats.GuestExceptions;
    return -1;
  }
  const uint32_t Asid = sys::currentAsid(Board.Env);
  host::HostBlock Block;
  // Persistent-cache fast path: a stored translation for this key whose
  // recorded guest words still match what we just fetched is reused
  // verbatim. Validating against GB.Words (not just the key) makes SMC /
  // page-remap staleness impossible: any byte difference falls through to
  // a fresh translation.
  std::shared_ptr<const host::HostBlock> Stored =
      Store_ ? Store_->lookup(GB.StartPc, GB.MmuIdx, Asid, GB.Words) : nullptr;
  if (Stored) {
    Block = *Stored;
    ++Cache.Stats.LoadedTbs;
    RDBT_TRACE(Sink_, obs::EventKind::SeedBlock, GB.StartPc);
  } else {
    const uint64_t T0 = Sink_ ? Sink_->now() : 0;
    Xlat.translate(GB, Block);
    assert(Block.GuestPc == Pc && "translator must fill GuestPc");
    Block.GuestWords = GB.Words;
    ++Stats.Translations;
    Stats.TranslatedGuestInstrs += GB.Insts.size();
    if (Sink_) {
      const uint64_t Ns = Sink_->now() - T0;
      size_t Instrs = 0; // host instructions; a CoordRun header is none
      for (const host::HInst &H : Block.Code)
        Instrs += H.Op != host::HOp::CoordRun;
      Sink_->recordSpan(obs::EventKind::TranslateBlock, T0, GB.StartPc,
                        Instrs * sizeof(host::HInst), GB.Insts.size());
      if (TranslateNsHist_)
        TranslateNsHist_->record(Ns);
    }
    if (GuestBlockLenHist_)
      GuestBlockLenHist_->record(GB.Insts.size());
  }
  if (RetainForSave_)
    Retained_[CodeCache::key(GB.StartPc, GB.MmuIdx, Asid)] =
        Stored ? std::move(Stored)
               : std::make_shared<const host::HostBlock>(Block);
  return Cache.insert(std::move(Block), GB.MmuIdx, Asid);
}

void DbtEngine::drainInvalidationRequest() {
  sys::CpuEnv &Env = Board.Env;
  // The interpreter's decoded-instruction cache rides the same request.
  // Normally the interpreter already scrubbed itself at the raise site,
  // but a restored snapshot can carry a pending request this Interp never
  // saw — re-applying is idempotent.
  Interp.onTbInvalidate(Env.TbInvKind, Env.TbInvAsid, Env.TbInvPage);
  switch (Env.TbInvKind) {
  case sys::TbInvNone:
    return;
  case sys::TbInvFull:
    Cache.flush();
    break;
  case sys::TbInvAsid:
    Cache.invalidateAsid(Env.TbInvAsid);
    break;
  case sys::TbInvPage:
    Cache.invalidatePage(Env.TbInvPage);
    break;
  }
  Env.TbInvKind = sys::TbInvNone;
  Env.TbInvAsid = 0;
  Env.TbInvPage = 0;
}

void DbtEngine::enterCodeCache() {
  // Physically copy env into the pinned host registers (QEMU's prologue /
  // the rule translator's Path-2 sync-restore) and charge its cost.
  sys::CpuEnv &Env = Board.Env;
  for (unsigned R = 0; R < 15; ++R)
    Machine.setReg(R, Env.Regs[R]);
  sys::materializeFlags(Env);
  Machine.setPackedFlags(sys::packFlags(Env));

  const EntryStub Stub = Xlat.entryStub();
  Machine.Counters.Wall += Stub.Cost;
  Machine.Counters.ByClass[static_cast<unsigned>(Stub.Cls)] += Stub.Cost;
  if (Stub.IsSyncOp)
    ++Machine.Counters.SyncOps;
  ++Stats.CacheEntries;
}

StopReason DbtEngine::run(uint64_t MaxWallCycles) {
  sys::CpuEnv &Env = Board.Env;
  Machine.NextDeadline = Board.nextDeadline();
  const uint64_t WallLimit =
      Machine.Counters.Wall + MaxWallCycles; // budget is relative

  while (true) {
    if (Board.ShutdownRequested)
      return StopReason::GuestShutdown;
    if (Machine.Counters.Wall >= WallLimit)
      return StopReason::WallLimit;

    // WFI sleep: fast-forward the device clock to the next event.
    if (Env.Halted) {
      if (!Env.IrqPending) {
        ++Stats.WfiSleeps;
        const uint64_t Skipped = Board.fastForward();
        if (Skipped == 0 && !Env.IrqPending)
          return StopReason::Deadlock;
        // Waiting costs wall time for the emulator too.
        Machine.Counters.Wall += Skipped;
        Machine.NextDeadline = Board.nextDeadline();
        continue;
      }
      Env.Halted = 0;
    }

    // Deliver a pending interrupt (QEMU does this between TBs; the TB-head
    // interrupt checks force timely exits from chained code).
    if (Env.ExitRequest) {
      Env.ExitRequest = 0;
      if (Interp.maybeTakeIrq()) {
        ++Stats.IrqsDelivered;
        RDBT_TRACE(Sink_, obs::EventKind::IrqDelivered, Env.Regs[15]);
        Machine.Counters.Wall += cost::ExceptionEntry;
        Machine.Counters
            .ByClass[static_cast<unsigned>(host::CostClass::Helper)] +=
            cost::ExceptionEntry;
      }
    }

    drainInvalidationRequest();

    int Tb = Cache.find(Env.Regs[15], Env.MmuIdx, sys::currentAsid(Env));
    if (Tb < 0) {
      Tb = translateAt(Env.Regs[15]);
      if (Tb < 0)
        continue; // prefetch abort delivered; resume at the vector
    }

    enterCodeCache();
    const uint64_t ChainsBefore = Machine.Counters.ChainFollows;
    const host::RunResult R = Machine.run(Cache, Tb);
    if (ChainDepthHist_)
      ChainDepthHist_->record(Machine.Counters.ChainFollows - ChainsBefore);
    // Settle the device clock to the cost consumed in the code cache.
    if (Machine.Counters.Wall > Board.now())
      Board.advance(Machine.Counters.Wall - Board.now());
    Machine.NextDeadline = Board.nextDeadline();

    switch (R.Reason) {
    case ExitReason::Lookup:
    case ExitReason::Interrupt:
    case ExitReason::Exception:
    case ExitReason::Halt:
      break;
    case ExitReason::NeedTranslate: {
      // env.Regs[15] holds the chain target (stored by the exit glue).
      const uint32_t Target = Env.Regs[15];
      int ToTb = Cache.find(Target, Env.MmuIdx, sys::currentAsid(Env));
      if (ToTb < 0)
        ToTb = translateAt(Target);
      if (ToTb < 0)
        break; // target faults: abort was delivered
      // R.FromTb can go stale between the exit and this patch (e.g. a
      // translation- or invalidation-triggered drop); chain() validates
      // both ids against live blocks and refuses stale requests, so a
      // recycled exit can never patch an unrelated block.
      const host::HostBlock *From = Cache.block(R.FromTb);
      const host::HostBlock *To = Cache.block(ToTb);
      if (From && To) {
        const bool Elide = Xlat.allowChainFlagElision(*From, *To);
        Cache.chain(R.FromTb, R.FromChainSlot, ToTb, Elide);
      } else {
        ++Cache.Stats.StaleChainRequests;
      }
      break;
    }
    case ExitReason::Shutdown:
      return Board.ShutdownRequested ? StopReason::GuestShutdown
                                     : StopReason::Runaway;
    }
  }
}

//===----------------------------------------------------------------------===//
// Helper functions
//===----------------------------------------------------------------------===//

host::HelperHandler::Outcome
DbtEngine::memHelper(unsigned Size, bool IsWrite, uint32_t Vaddr,
                     uint32_t Value, uint32_t GuestPc) {
  Outcome Out;
  sys::CpuEnv &Env = Board.Env;
  sys::Fault F;
  const uint64_t MissesBefore = Mmu_.Misses;

  bool Ok;
  uint32_t Loaded = 0;
  if (IsWrite)
    Ok = Mmu_.writeVirt(Vaddr, Size, Value, F);
  else
    Ok = Mmu_.readVirt(Vaddr, Size, Loaded, F);

  if (Mmu_.Misses != MissesBefore)
    Out.Cost += cost::TlbFill;
  // An access that resolved to an MMIO page paid the device dispatch.
  const sys::TlbEntry &E =
      Env.Tlb[Env.MmuIdx][(Vaddr >> 12) & (sys::TlbSize - 1)];
  if (Ok && (E.PhysFlags & sys::TlbFlagIo))
    Out.Cost += cost::IoAccess;

  if (!Ok) {
    Env.Dfsr = F.Fsr;
    Env.Dfar = F.Far;
    sys::takeException(Env, sys::ExcKind::DataAbort, GuestPc);
    ++Stats.GuestExceptions;
    Out.Cost += cost::ExceptionEntry;
    Out.Exit = true;
    Out.Reason = ExitReason::Exception;
    return Out;
  }
  if (!IsWrite) {
    Out.HasResult = true;
    Out.Result = Loaded;
  }
  if (Board.ShutdownRequested) {
    Out.Exit = true;
    Out.Reason = ExitReason::Shutdown;
  }
  return Out;
}

host::HelperHandler::Outcome DbtEngine::emulateHelper(uint32_t GuestPc) {
  Outcome Out;
  Out.Cost = cost::EmulateInstr;
  sys::CpuEnv &Env = Board.Env;
  Xlat.noteFallbackExecuted(GuestPc);
  RDBT_TRACE(Sink_, obs::EventKind::FallbackEntry, GuestPc);

  // The paper's III-B deferred parse: emulating an instruction that
  // consumes flags forces the packed CCR to be exploded into QEMU's
  // per-flag slots. Metered here, at the only place it can happen.
  const bool WasPacked = Env.CcrPacked != 0;
  // An address-space switch (TTBR/CONTEXTIDR write) must leave the code
  // cache even when no invalidation is pending: the next lookup has to
  // re-key under the new ASID instead of following chains resolved under
  // the old one.
  const uint32_t OldTtbr = Env.Ttbr0;
  const uint32_t OldContextidr = Env.Contextidr;

  // Fetch + decode + execute through the interpreter's decoded-
  // instruction cache: repeated fallbacks to the same instruction skip
  // the word decoder entirely. Fetch faults deliver the prefetch abort
  // inside stepAt, exactly as the open-coded path here used to.
  bool DefinesFlags = false;
  const sys::StepKind K = Interp.stepAt(GuestPc, &DefinesFlags);
  // Keep the packed side slot coherent after helper-side flag writes so
  // the packed sync-restore can trust it (see Env.h).
  if (DefinesFlags && K != sys::StepKind::Exception)
    Env.PackedCcr = sys::packFlags(Env);

  if (WasPacked && !Env.CcrPacked)
    Out.Cost += cost::DeferredCcParse;

  switch (K) {
  case sys::StepKind::Ok:
    if (Env.TbInvKind != sys::TbInvNone || OldTtbr != Env.Ttbr0 ||
        OldContextidr != Env.Contextidr || Board.ShutdownRequested) {
      Out.Exit = true;
      Out.Reason = Board.ShutdownRequested ? ExitReason::Shutdown
                                           : ExitReason::Lookup;
    }
    break;
  case sys::StepKind::Exception:
    ++Stats.GuestExceptions;
    Out.Cost += cost::ExceptionEntry;
    Out.Exit = true;
    Out.Reason = ExitReason::Exception;
    break;
  case sys::StepKind::Halt:
    Out.Exit = true;
    Out.Reason = ExitReason::Halt;
    break;
  }
  return Out;
}

host::HelperHandler::Outcome DbtEngine::call(uint16_t HelperId, uint32_t A0,
                                             uint32_t A1, uint32_t GuestPc) {
  switch (HelperId) {
  case HelperLd8:
    return memHelper(1, false, A0, 0, GuestPc);
  case HelperLd16:
    return memHelper(2, false, A0, 0, GuestPc);
  case HelperLd32:
    return memHelper(4, false, A0, 0, GuestPc);
  case HelperSt8:
    return memHelper(1, true, A0, A1, GuestPc);
  case HelperSt16:
    return memHelper(2, true, A0, A1, GuestPc);
  case HelperSt32:
    return memHelper(4, true, A0, A1, GuestPc);
  case HelperEmulate:
    return emulateHelper(GuestPc);
  default:
    assert(false && "unknown helper id");
    return Outcome();
  }
}
