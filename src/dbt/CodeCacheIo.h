//===- dbt/CodeCacheIo.h - Persistent translation cache ---------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disk persistence for translated code (DESIGN.md §12): a warm boot
/// loads the previous session's host blocks instead of retranslating
/// them. Three pieces:
///
///  * **CacheKey** — the identity a cache file is valid for: a crc32c of
///    the guest image (RAM size plus the index and bytes of each
///    non-zero page) plus a crc32c over everything that changes
///    what the translator would emit (translator kind, optimization
///    switches, rule corpus, env layout, host-ISA geometry). The key is
///    both the file name (libriscv's `/tmp/rvbintr-%08X` scheme) and an
///    echoed header field, so a stale file can never be mistaken for a
///    fresh one.
///
///  * **CodeCacheIo** — save/load of a `BlockMap`, one record per key
///    and block in key order. The on-disk form is position-independent:
///    no TB id, chain patch or elision mark is stored, so a loaded block
///    starts unresolved and unelided like a fresh translation. Loading
///    validates strictly — magic, version, key echo, payload checksum,
///    and per-field bounds on every instruction — and any mismatch is a
///    clean cache-miss, never UB.
///
///  * **TranslationStore** — the read-only lookup the engine consults on
///    a translation miss. Deliberately lazy (not an eager `adopt()`):
///    the kernel's boot-time SCTLR toggle full-flushes the cache, which
///    would wipe an eagerly adopted image before the workload runs. A
///    store survives any number of flushes and re-seeds blocks on the
///    next miss. Each hit is validated against the *current* guest words
///    at that address, so self-modifying or remapped code falls through
///    to a fresh translation instead of executing a stale block.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_CODECACHEIO_H
#define RDBT_DBT_CODECACHEIO_H

#include "dbt/CodeCache.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rdbt {
namespace dbt {

/// CRC-32C (Castagnoli, the checksum libriscv keys its translation cache
/// with). Chainable: pass the previous result as \p Seed.
uint32_t crc32c(const void *Data, size_t Len, uint32_t Seed = 0);

/// Convenience: fold a little-endian u32 into a running crc32c.
uint32_t crc32cWord(uint32_t Word, uint32_t Seed);

/// The identity a persistent cache file is valid for.
struct CacheKey {
  uint32_t ImageCrc = 0;  ///< crc32c of the non-zero guest RAM at boot
  uint32_t ConfigCrc = 0; ///< translator kind + opts + rules + layout
  bool Valid = false;     ///< false: keying failed, never save/load

  /// "rdbt-tc-<imagecrc>-<configcrc>.bin"
  std::string fileName() const;
  /// Dir + "/" + fileName().
  std::string pathIn(const std::string &Dir) const;
};

/// Outcome of CodeCacheIo::load.
enum class CacheLoad {
  Hit,      ///< file present, validated, image populated
  Absent,   ///< no file at that path (a cold start, not a failure)
  Rejected, ///< file present but invalid/stale — treat as cold start
};

class CodeCacheIo {
public:
  /// Bump on any change to the record layout or to what a field means; a
  /// version mismatch is a clean miss. 4: one Probe op replaces the
  /// inline TLB sequence.
  static constexpr uint32_t FormatVersion = 4;

  /// Serializes \p Blocks to \p Path (atomically: temp file + rename, so
  /// a concurrent reader sees either the old file or the complete new
  /// one). Blocks without recorded guest words are skipped — they could
  /// never be validated at load time. Returns false with \p Err set on
  /// I/O failure.
  static bool save(const std::string &Path, const BlockMap &Blocks,
                   const CacheKey &Key, std::string *Err = nullptr);

  /// Loads and validates \p Path against \p Key. On Hit, \p Out holds
  /// the file's blocks; otherwise it is untouched. On Rejected, \p Err
  /// (if given) describes the first failed check.
  static CacheLoad load(const std::string &Path, const CacheKey &Key,
                        BlockMap &Out, std::string *Err = nullptr);
};

/// Read-only block store the engine probes on translation misses (see
/// DbtEngine::setTranslationStore). Immutable and self-contained, so one
/// store is safely shared by a snapshot and every fork of it.
class TranslationStore {
public:
  explicit TranslationStore(BlockMap Blocks) : Blocks_(std::move(Blocks)) {}

  /// The stored block for (Pc, MmuIdx, Asid) if its recorded guest words
  /// equal \p Words, else null.
  std::shared_ptr<const host::HostBlock>
  lookup(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid,
         const std::vector<uint32_t> &Words) const;

  /// Number of blocks available for seeding.
  size_t blocks() const { return Blocks_.size(); }

private:
  BlockMap Blocks_;
};

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_CODECACHEIO_H
