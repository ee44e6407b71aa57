//===- dbt/CodeCache.cpp - Translated code cache ---------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "dbt/CodeCache.h"

#include "obs/Trace.h"

#include <algorithm>
#include <cassert>

using namespace rdbt;
using namespace rdbt::dbt;

/// Elides, or revives, an exit's flag save: swaps its SyncOp marker, which
/// is inside a run but not its first op, with the exit's ChainSlot, and
/// refits that run's header (DESIGN.md §3).
static void swapFlagSave(std::vector<host::HInst> &Code,
                         const host::HostBlock::Chain &Ch) {
  int Head = Ch.FlagSaveBegin - 1;
  while (Code[Head].Op != host::HOp::CoordRun)
    --Head;
  std::swap(Code[Ch.FlagSaveBegin], Code[Ch.FlagSaveEnd]);
  host::HInst Run = host::coordRun();
  for (int I = Head + 1; host::isCoordination(Code[I]); ++I)
    host::addToRun(Run, Code[I]);
  Code[Head] = Run;
}

int CodeCache::find(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid) const {
  const auto It = Index.find(key(Pc, MmuIdx, Asid));
  return It == Index.end() ? -1 : It->second;
}

int CodeCache::insert(host::HostBlock Block, uint32_t MmuIdx,
                      uint32_t Asid) {
  const int Id = BaseId + static_cast<int>(Entries.size());
  const uint64_t K = key(Block.GuestPc, MmuIdx, Asid & 0xFFu);
  assert(Index.find(K) == Index.end() && "key already translated");

  // A block's code may straddle into the next page; index every page it
  // covers so invalidatePage() finds it from either side.
  const uint32_t FirstPage = Block.GuestPc >> 12;
  const uint32_t LastPage =
      (Block.GuestPc +
       (Block.NumGuestInstrs ? Block.NumGuestInstrs * 4 - 1 : 0)) >>
      12;

  if (!SeenKeys.insert(K).second) {
    ++Stats.Retranslations;
    Stats.RetranslatedGuestInstrs += Block.NumGuestInstrs;
  }

  Entry E;
  E.Key = K;
  E.Block = std::make_shared<host::HostBlock>(std::move(Block));
  for (uint32_t P = FirstPage; P <= LastPage; ++P)
    PageIndex[P].push_back(Id);
  AsidIndex[Asid & 0xFFu].push_back(Id);
  Index[K] = Id;
  Entries.push_back(std::move(E));
  ++LiveBlocks;
  return Id;
}

void CodeCache::invalidateOne(int TbId) {
  Entry *E = entry(TbId);
  assert(E && E->Block && "invalidating a dead id");

  // Unlink every incoming chain that still targets this block, restoring
  // the flag-save code the chain-time elision killed: the predecessor's
  // exit now re-enters the emulator, which needs the flags in env.
  uint64_t Unlinked = 0;
  for (const auto &[FromId, Slot] : E->Incoming) {
    Entry *F = entry(FromId);
    if (!F || !F->Block)
      continue; // predecessor died first; edge is stale
    if (F->Block->Chains[Slot].TargetTb != TbId)
      continue; // slot was re-pointed after a previous unlink
    host::HostBlock *FB = privateBlock(*F); // about to mutate
    host::HostBlock::Chain &Ch = FB->Chains[Slot];
    Ch.TargetTb = -1;
    ++Stats.ChainsUnlinked;
    ++Unlinked;
    if (Ch.FlagSaveBegin >= 0 &&
        FB->Code[Ch.FlagSaveBegin].Op == host::HOp::ChainSlot) {
      swapFlagSave(FB->Code, Ch);
      ++Stats.ElisionsReverted;
    }
  }
  E->Incoming.clear();
  if (Unlinked)
    RDBT_TRACE(Sink_, obs::EventKind::ChainUnlink, TbId, Unlinked);

  Index.erase(E->Key);
  E->Block.reset();
  --LiveBlocks;
  ++Stats.TbsInvalidated;
}

void CodeCache::flush() {
  RDBT_TRACE(Sink_, obs::EventKind::CacheInvalidate, /*scope=*/0, 0,
             LiveBlocks);
  Stats.TbsInvalidated += LiveBlocks;
  BaseId += static_cast<int>(Entries.size());
  Entries.clear();
  Index.clear();
  PageIndex.clear();
  AsidIndex.clear();
  LiveBlocks = 0;
  ++Stats.Flushes;
}

void CodeCache::invalidateAsid(uint32_t Asid) {
  ++Stats.AsidInvalidations;
  const size_t Before = LiveBlocks;
  const auto It = AsidIndex.find(Asid & 0xFFu);
  if (It != AsidIndex.end()) {
    for (const int Id : It->second) {
      const Entry *E = entry(Id);
      if (E && E->Block)
        invalidateOne(Id);
    }
    AsidIndex.erase(It);
  }
  RDBT_TRACE(Sink_, obs::EventKind::CacheInvalidate, /*scope=*/1,
             Asid & 0xFFu, Before - LiveBlocks);
  Stats.TbsRetained += LiveBlocks;
}

void CodeCache::invalidatePage(uint32_t PageVa) {
  ++Stats.PageInvalidations;
  const size_t Before = LiveBlocks;
  const uint32_t Page = PageVa >> 12;
  const auto It = PageIndex.find(Page);
  if (It != PageIndex.end()) {
    for (const int Id : It->second) {
      const Entry *E = entry(Id);
      if (E && E->Block)
        invalidateOne(Id);
    }
    PageIndex.erase(It);
    // Blocks straddling out of this page keep stale ids in the
    // neighbouring pages' lists; prune them lazily when those lists are
    // next walked (the dead-entry check above).
  }
  RDBT_TRACE(Sink_, obs::EventKind::CacheInvalidate, /*scope=*/2, Page,
             Before - LiveBlocks);
  Stats.TbsRetained += LiveBlocks;
}

bool CodeCache::chain(int FromTb, int Slot, int ToTb, bool ElideFlagSave) {
  assert(Slot >= 0 && Slot < 2 && "bad chain slot");
  Entry *From = entry(FromTb);
  Entry *To = entry(ToTb);
  // Either id may have gone stale between the exit that requested the
  // chain and this patch (a translation-triggered or partial
  // invalidation); refuse rather than patch through a dead id.
  if (!From || !From->Block || !To || !To->Block ||
      From->Block->Chains[Slot].TargetTb >= 0) {
    ++Stats.StaleChainRequests;
    return false;
  }

  host::HostBlock *FB = privateBlock(*From); // about to patch the slot
  host::HostBlock::Chain &Ch = FB->Chains[Slot];
  Ch.TargetTb = ToTb;
  To->Incoming.emplace_back(FromTb, Slot);
  ++Stats.ChainsMade;
  const bool Elided = ElideFlagSave && Ch.FlagSaveBegin >= 0;
  RDBT_TRACE(Sink_, obs::EventKind::ChainPatch, FromTb, ToTb, Elided);
  if (!Elided)
    return true;
  ++Stats.ChainsWithElision;
  Stats.ElidedSyncInstrs += Ch.FlagSaveEnd - Ch.FlagSaveBegin;
  swapFlagSave(FB->Code, Ch);
  return true;
}

const host::HostBlock *CodeCache::block(int TbId) const {
  const Entry *E = entry(TbId);
  return E ? E->Block.get() : nullptr;
}

host::HostBlock *CodeCache::privateBlock(Entry &E) {
  if (E.Block.use_count() > 1) {
    E.Block = std::make_shared<host::HostBlock>(*E.Block);
    ++Stats.CowBlockCopies;
  }
  return E.Block.get();
}

std::shared_ptr<const CodeCache::Image> CodeCache::capture() const {
  auto Img = std::make_shared<Image>();
  Img->Entries = Entries; // blocks shared (shared_ptr copies), not cloned
  Img->BaseId = BaseId;
  Img->LiveBlocks = LiveBlocks;
  Img->Index = Index;
  Img->PageIndex = PageIndex;
  Img->AsidIndex = AsidIndex;
  Img->SeenKeys = SeenKeys;
  Img->Stats = Stats;
  return Img;
}

void CodeCache::adopt(const Image &Img) {
  assert(Entries.empty() && BaseId == 0 && LiveBlocks == 0 &&
         "adopt() targets a freshly constructed cache");
  Entries = Img.Entries; // shares the image's blocks until first patch
  BaseId = Img.BaseId;
  LiveBlocks = Img.LiveBlocks;
  Index = Img.Index;
  PageIndex = Img.PageIndex;
  AsidIndex = Img.AsidIndex;
  SeenKeys = Img.SeenKeys;
  Stats = Img.Stats;
  Stats.AdoptedTbs += LiveBlocks;
}
