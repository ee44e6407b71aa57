//===- dbt/CodeCache.h - Translated code cache ------------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translated-code cache: host blocks keyed by (guest PC, MMU index,
/// ASID), with block chaining and chain-time patching (including the
/// inter-TB flag-save elision of §III-C).
///
/// Three structural properties carry the ASID-aware invalidation design
/// (see DESIGN.md §7):
///
///  * **Selective invalidation.** Besides the full flush, blocks can be
///    dropped per ASID (invalidateAsid) or per guest page
///    (invalidatePage), driven by the structured requests the interpreter
///    raises for SCTLR toggles and TLB-maintenance ops. A per-page and a
///    per-ASID index make both operations proportional to the number of
///    affected blocks, not the cache size.
///
///  * **Chain unlinking.** Every chain edge is recorded in the target's
///    reverse-edge list. Invalidating a block resets each incoming chain
///    slot to the unresolved state and resurrects any flag-save code the
///    chain-time elision had marked dead, so surviving predecessors fall
///    back to the translate-and-patch path instead of jumping into freed
///    code.
///
///  * **Stable, never-reused TB ids.** Ids are monotonically increasing
///    across the cache's whole lifetime (a full flush retires the id range
///    instead of restarting it), so a stale id held by the engine across
///    an invalidation can never alias a newer block: block() simply
///    returns nullptr and chain() refuses to patch.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_CODECACHE_H
#define RDBT_DBT_CODECACHE_H

#include "host/HostMachine.h"
#include "obs/TraceSink.h"

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace rdbt {
namespace dbt {

/// Counter snapshot of the cache's lifetime behavior (surfaced through
/// vm::RunReport and the bench JSON).
struct CacheStats {
  uint64_t Flushes = 0;            ///< full flushes
  uint64_t AsidInvalidations = 0;  ///< invalidateAsid() calls
  uint64_t PageInvalidations = 0;  ///< invalidatePage() calls
  uint64_t TbsInvalidated = 0;     ///< blocks dropped (all scopes)
  uint64_t TbsRetained = 0;        ///< blocks surviving selective drops
  uint64_t Retranslations = 0;     ///< inserts whose key was cached before
  uint64_t RetranslatedGuestInstrs = 0; ///< guest instrs behind those
  uint64_t ChainsMade = 0;
  uint64_t ChainsWithElision = 0;
  uint64_t ChainsUnlinked = 0;      ///< chain slots reset by invalidation
  uint64_t ElisionsReverted = 0;    ///< elided flag-saves resurrected
  uint64_t StaleChainRequests = 0;  ///< chain() calls refused (stale ids)
  uint64_t ElidedSyncInstrs = 0;    ///< §III-C: sync instrs marked dead
  /// Snapshot/fork accounting (vm/Snapshot.h). AdoptedTbs counts blocks
  /// inherited ready-translated from a snapshot image via adopt();
  /// CowBlockCopies counts blocks privatized because a fork patched a
  /// chain slot (or unlinked one) in a block still shared with the
  /// snapshot — the "share TBs read-only, copy on first patch" protocol.
  uint64_t AdoptedTbs = 0;
  uint64_t CowBlockCopies = 0;
  /// Persistent-cache accounting (dbt/CodeCacheIo.h). CacheFileHits
  /// counts cache files loaded and validated at boot; CacheFileMisses
  /// counts files that were *present* but rejected (corrupt, truncated,
  /// wrong version, stale key) — an absent file counts neither, so a
  /// cold run with a cache dir reports exactly like a run without one.
  /// LoadedTbs counts blocks seeded from the loaded store instead of
  /// being translated (the warm-boot savings, mirror of
  /// EngineStats::Translations).
  uint64_t CacheFileHits = 0;
  uint64_t CacheFileMisses = 0;
  uint64_t LoadedTbs = 0;
  /// Live blocks at report time — a snapshot, not a counter; filled by
  /// the report producer (vm::Vm) from CodeCache::size(). The direct
  /// retention signal: under ASID-selective invalidation it holds the
  /// union of every ASID's code.
  uint64_t LiveTbs = 0;
};

class CodeCache : public host::CodeSource {
public:
  /// One slot in the id space. Block is null once invalidated; the
  /// metadata stays so reverse edges can be validated lazily.
  ///
  /// The block is held by shared_ptr so a captured Image (below) can
  /// share translated code with any number of forked caches: use_count
  /// == 1 proves this cache is the sole owner and may mutate in place;
  /// otherwise the mutating paths (chain patching, chain unlinking)
  /// privatize the block first — see privateBlock(). Public only as the
  /// element type of Image.
  struct Entry {
    std::shared_ptr<host::HostBlock> Block;
    uint64_t Key = 0;
    /// Reverse chain edges: (fromTbId, slot) pairs that patched a direct
    /// jump to this block. Entries may be stale (the predecessor died or
    /// re-chained); unlinking validates each one against the live chain.
    std::vector<std::pair<int, int>> Incoming;
  };
  /// A frozen copy of the whole cache — entries (blocks shared, not
  /// copied), id space, lookup indices, retranslation memory, and stats —
  /// produced by capture() and re-installed into forked caches by
  /// adopt(). Immutable by contract: holders only ever pass it around as
  /// shared_ptr<const Image>.
  struct Image {
    std::vector<Entry> Entries;
    int BaseId = 0;
    size_t LiveBlocks = 0;
    std::unordered_map<uint64_t, int> Index;
    std::unordered_map<uint32_t, std::vector<int>> PageIndex;
    std::unordered_map<uint32_t, std::vector<int>> AsidIndex;
    std::unordered_set<uint64_t> SeenKeys;
    CacheStats Stats;
  };

  /// Returns the TB id for (Pc, MmuIdx, Asid) or -1.
  int find(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid) const;

  /// Inserts a freshly translated block, returns its TB id. Ids are never
  /// reused, even across flushes.
  int insert(host::HostBlock Block, uint32_t MmuIdx, uint32_t Asid);

  /// Drops every translation (MMU regime changes, TLBIALL).
  void flush();

  /// Drops every translation belonging to \p Asid (TLBIASID), unlinking
  /// incoming chains from surviving blocks.
  void invalidateAsid(uint32_t Asid);

  /// Drops every translation overlapping the page of \p PageVa, across
  /// all ASIDs (TLBIMVA).
  void invalidatePage(uint32_t PageVa);

  /// Chains \p FromTb's \p Slot to \p ToTb. If \p ElideFlagSave, the
  /// flag-save region belonging to that exit is marked dead (inter-TB
  /// optimization); the elided instructions are tallied in
  /// Stats.ElidedSyncInstrs. Returns false — counting a stale-chain
  /// request — when either id no longer names a live block or the slot
  /// is already patched, so callers holding ids across a partial
  /// invalidation can never corrupt an unrelated block.
  bool chain(int FromTb, int Slot, int ToTb, bool ElideFlagSave);

  const host::HostBlock *block(int TbId) const override;

  /// Freezes the cache into an immutable Image. Blocks are shared, not
  /// copied, so a capture is O(metadata); after it, this cache's own
  /// mutating paths privatize blocks on demand (the capture must stay
  /// pristine even if the captured session keeps running).
  std::shared_ptr<const Image> capture() const;

  /// Replaces this cache's contents with \p Img (fork construction). The
  /// warmed blocks arrive ready to execute and chained exactly as at
  /// capture time; SeenKeys comes along, so Stats.Retranslations keeps
  /// proving forks do not re-pay translation. Call only on a fresh cache.
  void adopt(const Image &Img);

  /// Number of live (translated, not invalidated) blocks.
  size_t size() const { return LiveBlocks; }

  /// Attaches the session's trace sink (null detaches). The cache only
  /// records events through it — chain patches/unlinks, invalidations —
  /// and never reads it, so an unattached cache behaves identically.
  void setTraceSink(obs::TraceSink *S) { Sink_ = S; }

  CacheStats Stats;

  /// The canonical lookup key: one u64 per (PC, MMU index, ASID) triple.
  /// Public so a BlockMap (below) keys its blocks identically instead of
  /// maintaining a parallel encoding.
  static uint64_t key(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid) {
    return static_cast<uint64_t>(Pc) |
           (static_cast<uint64_t>(MmuIdx & 1u) << 32) |
           (static_cast<uint64_t>(Asid & 0xFFu) << 33);
  }

private:
  std::vector<Entry> Entries; ///< index = id - BaseId
  int BaseId = 0;             ///< ids retired by full flushes
  size_t LiveBlocks = 0;
  std::unordered_map<uint64_t, int> Index;
  /// Page number -> ids of live blocks overlapping that page (pruned
  /// lazily on the next invalidation touching the page).
  std::unordered_map<uint32_t, std::vector<int>> PageIndex;
  /// ASID -> ids of live blocks translated under it.
  std::unordered_map<uint32_t, std::vector<int>> AsidIndex;
  /// Every key ever inserted, for retranslation accounting. Survives
  /// flushes deliberately: translating a key again after any flavor of
  /// invalidation is the retranslation cost the ASID design removes.
  std::unordered_set<uint64_t> SeenKeys;

  Entry *entry(int TbId) {
    if (TbId < BaseId)
      return nullptr;
    const size_t Idx = static_cast<size_t>(TbId - BaseId);
    return Idx < Entries.size() ? &Entries[Idx] : nullptr;
  }
  const Entry *entry(int TbId) const {
    return const_cast<CodeCache *>(this)->entry(TbId);
  }

  /// Unlinks incoming chains and frees the block. The caller maintains
  /// the secondary indices.
  void invalidateOne(int TbId);

  /// Returns a mutable pointer to \p E's block, cloning it first when it
  /// is still shared with a snapshot image (use_count > 1 — safe exactly
  /// because use_count == 1 proves exclusive ownership; images are
  /// immutable so nobody else's count can rise concurrently).
  host::HostBlock *privateBlock(Entry &E);

  obs::TraceSink *Sink_ = nullptr; ///< owned by vm::Vm; null when untraced
};

/// Translated blocks by CodeCache::key, outside any cache: the engine's
/// retain-for-save set and the persistent cache's stored translations
/// (dbt/CodeCacheIo.h). Ordered, so a save's bytes depend only on the
/// blocks; immutable blocks, so one map is shared without copying.
using BlockMap = std::map<uint64_t, std::shared_ptr<const host::HostBlock>>;

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_CODECACHE_H
