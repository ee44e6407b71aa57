//===- tests/CodeCacheIoTest.cpp - Persistent translation cache tests -------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the persistent translation cache (dbt/CodeCacheIo.h,
/// DESIGN.md §12) rests on:
///
///  * **Warm-boot transparency**: a session booted against the cache
///    file a cold session saved translates *nothing* (every block seeds
///    from the file) yet finishes with identical console output, final
///    architectural state, and guest-visible execution counters — across
///    translator kinds.
///
///  * **Absent file counts nothing**: a cold run with a cache directory
///    reports exactly like a run without one; provenance appears only
///    when a file was actually loaded (CacheFileHits) or rejected
///    (CacheFileMisses).
///
///  * **Every bad file is a clean miss**: truncation, random bit flips,
///    a wrong format version, a wrong magic, a stale key (file keyed
///    for different guest bytes or translator config), or code that
///    could run off its block must make load()
///    return Rejected — never a Hit, never undefined behavior. The
///    corruption loop mirrors tools/rdbt_fuzz's seeded-LCG style and is
///    the surface the sanitizer CI job leans on.
///
///  * **Word validation**: a stored block only seeds when its recorded
///    guest words still equal guest memory, so self-modified or remapped
///    code can never execute stale host code.
///
///  * **Keys by content**: a rule corpus keys by its canonical text, so
///    an equal copy names the built-in corpus's file and any change to
///    the rules names another; concurrent warm sessions over the shared
///    corpus all load one file and agree.
///
//===----------------------------------------------------------------------===//

#include "dbt/CodeCacheIo.h"
#include "dbt/Helpers.h"
#include "guestsw/Workloads.h"
#include "rules/RuleIo.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace rdbt;

namespace {

/// The engine kinds the round-trip contract is proven for: the QEMU-like
/// baseline and two rule-translator presets (different emitted code, so
/// different serialized blocks).
std::vector<std::string> engineKinds() {
  return {"qemu", "rule:base", "rule:scheduling"};
}

/// A self-cleaning temp directory for cache files.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/rdbt-io-XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    if (Path.empty())
      return;
    for (const std::string &Name : files())
      std::remove((Path + "/" + Name).c_str());
    std::remove(Path.c_str());
  }
  /// Names of the entries in the directory.
  std::vector<std::string> files() const {
    std::vector<std::string> Names;
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          Names.push_back(Name);
      }
      closedir(D);
    }
    return Names;
  }
};

vm::VmConfig cfgFor(const std::string &Kind) {
  return vm::VmConfig().translator(Kind).workload("libquantum").scale(1);
}

std::string readBytes(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::string Out((std::istreambuf_iterator<char>(IS)),
                  std::istreambuf_iterator<char>());
  return Out;
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// \p Bytes with the header's payload checksum recomputed, so a load
/// reaches the checks behind it.
std::string resealed(std::string Bytes) {
  constexpr size_t HeaderBytes = 20;
  const uint32_t Crc =
      dbt::crc32c(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes);
  std::memcpy(&Bytes[16], &Crc, 4);
  return Bytes;
}

/// Runs one session to completion; \p PathOut receives the session's
/// cache-file path (empty when persistence is off).
vm::RunReport runOnce(vm::VmConfig Cfg, std::string *PathOut = nullptr) {
  vm::Vm V(std::move(Cfg));
  EXPECT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  if (PathOut)
    *PathOut = V.cacheFilePath();
  return R;
}

/// CRC-32C one byte at a time, each byte bit by bit from the reflected
/// polynomial: an oracle that shares no table with dbt::crc32c.
uint32_t crc32cBytewise(const uint8_t *P, size_t Len, uint32_t Seed) {
  uint32_t C = ~Seed;
  for (size_t I = 0; I < Len; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? (C >> 1) ^ 0x82F63B78u : C >> 1;
  }
  return ~C;
}

void expectSameGuestRun(const vm::RunReport &A, const vm::RunReport &B) {
  EXPECT_EQ(A.Console, B.Console);
  EXPECT_EQ(0, std::memcmp(&A.Counters, &B.Counters, sizeof(A.Counters)));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(A.Final.Regs[I], B.Final.Regs[I]);
  EXPECT_EQ(A.Final.Nzcv, B.Final.Nzcv);
  EXPECT_EQ(A.Ok, B.Ok);
}

} // namespace

TEST(CodeCacheIo, WarmBootTranslatesNothingAcrossKinds) {
  for (const std::string &Kind : engineKinds()) {
    TempDir Dir;
    // Reference: no cache directory at all.
    const vm::RunReport Plain = runOnce(cfgFor(Kind));
    ASSERT_TRUE(Plain.Ok) << Kind;

    // Cold: directory set, file absent. Must report exactly like Plain —
    // including zero provenance counters.
    std::string Path;
    const vm::RunReport Cold =
        runOnce(cfgFor(Kind).persistentCache(Dir.Path), &Path);
    ASSERT_TRUE(Cold.Ok) << Kind;
    ASSERT_FALSE(Path.empty());
    expectSameGuestRun(Plain, Cold);
    EXPECT_EQ(0u, Cold.Cache.CacheFileHits);
    EXPECT_EQ(0u, Cold.Cache.CacheFileMisses);
    EXPECT_EQ(0u, Cold.Cache.LoadedTbs);
    EXPECT_GT(Cold.Engine.Translations, 0u);
    EXPECT_FALSE(readBytes(Path).empty()) << "cold exit must save " << Path;

    // Warm: every block seeds from the file; zero translation work, but
    // bitwise the same guest execution.
    const vm::RunReport Warm =
        runOnce(cfgFor(Kind).persistentCache(Dir.Path));
    ASSERT_TRUE(Warm.Ok) << Kind;
    expectSameGuestRun(Cold, Warm);
    EXPECT_EQ(1u, Warm.Cache.CacheFileHits) << Kind;
    EXPECT_EQ(0u, Warm.Cache.CacheFileMisses) << Kind;
    EXPECT_EQ(0u, Warm.Engine.Translations) << Kind;
    EXPECT_EQ(0u, Warm.Engine.TranslatedGuestInstrs) << Kind;
    EXPECT_EQ(Cold.Engine.Translations, Warm.Cache.LoadedTbs) << Kind;
  }
}

TEST(CodeCacheIo, PureWarmRunDoesNotRewriteTheFile) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  const std::string Before = readBytes(Path);
  ASSERT_FALSE(Before.empty());
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path)).Ok);
  EXPECT_EQ(Before, readBytes(Path));
}

TEST(CodeCacheIo, SaveOnExitOffLeavesNoFile) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu")
                          .persistentCache(Dir.Path)
                          .persistentCacheSaveOnExit(false),
                      &Path)
                  .Ok);
  EXPECT_TRUE(readBytes(Path).empty());
}

TEST(CodeCacheIo, TruncatedFilesLoadAsMiss) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  const std::string Good = readBytes(Path);
  ASSERT_GT(Good.size(), 32u);

  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();
  ASSERT_TRUE(Key.Valid);

  const std::string Trunc = Dir.Path + "/trunc.bin";
  for (size_t Len = 0; Len < Good.size(); Len += 7) {
    writeBytes(Trunc, Good.substr(0, Len));
    dbt::BlockMap Blocks;
    EXPECT_NE(dbt::CacheLoad::Hit, dbt::CodeCacheIo::load(Trunc, Key, Blocks))
        << "prefix of " << Len << " bytes must not load";
  }
  // One extra trailing byte is corruption too: the stale checksum
  // rejects it, and under a re-sealed one the check after the last block
  // does.
  writeBytes(Trunc, Good + '\0');
  dbt::BlockMap Blocks;
  std::string Err;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Trunc, Key, Blocks, &Err));
  EXPECT_EQ("payload checksum mismatch", Err);
  writeBytes(Trunc, resealed(Good + '\0'));
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Trunc, Key, Blocks, &Err));
  EXPECT_EQ("trailing bytes after last block", Err);
  EXPECT_TRUE(Blocks.empty());
}

TEST(CodeCacheIo, DuplicateBlockKeyRejects) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();
  dbt::BlockMap Blocks;
  ASSERT_EQ(dbt::CacheLoad::Hit, dbt::CodeCacheIo::load(Path, Key, Blocks));
  ASSERT_GT(Blocks.size(), 1u);

  // The first block record, as a file holding only that block stores it
  // after the 20-byte header and the block count.
  constexpr size_t First = 20 + 4;
  const std::string One = Dir.Path + "/one.bin";
  ASSERT_TRUE(dbt::CodeCacheIo::save(One, {*Blocks.begin()}, Key));
  const std::string Record = readBytes(One).substr(First);
  ASSERT_FALSE(Record.empty());

  std::string Dup = readBytes(Path);
  ASSERT_EQ(0, Dup.compare(First, Record.size(), Record));
  const uint32_t Count = static_cast<uint32_t>(Blocks.size()) + 1;
  Dup += Record;
  std::memcpy(&Dup[20], &Count, 4);
  const std::string Forged = Dir.Path + "/dup.bin";
  writeBytes(Forged, resealed(Dup));
  Blocks.clear();
  std::string Err;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Forged, Key, Blocks, &Err));
  EXPECT_EQ("duplicate block key", Err);
  EXPECT_TRUE(Blocks.empty());
}

TEST(CodeCacheIo, SaveOfALoadIsByteIdentical) {
  for (const std::string Kind : {"qemu", "rule:scheduling"}) {
    TempDir Dir;
    std::string Path;
    ASSERT_TRUE(runOnce(cfgFor(Kind).persistentCache(Dir.Path), &Path).Ok);
    vm::Vm Probe(cfgFor(Kind).persistentCache(Dir.Path));
    ASSERT_TRUE(Probe.valid());
    const dbt::CacheKey Key = Probe.cacheKey();

    dbt::BlockMap Blocks;
    ASSERT_EQ(dbt::CacheLoad::Hit, dbt::CodeCacheIo::load(Path, Key, Blocks))
        << Kind;
    ASSERT_FALSE(Blocks.empty()) << Kind;
    const std::string Again = Dir.Path + "/again.bin";
    ASSERT_TRUE(dbt::CodeCacheIo::save(Again, Blocks, Key)) << Kind;
    const std::string Saved = readBytes(Path);
    ASSERT_FALSE(Saved.empty()) << Kind;
    EXPECT_EQ(Saved, readBytes(Again)) << Kind;
  }
}

TEST(CodeCacheIo, OversizedFileRejectsFromItsSize) {
  // A sparse file one byte over the 256 MiB cap: rejected from its size,
  // before any byte is read or any buffer allocated for it.
  TempDir Dir;
  const std::string Big = Dir.Path + "/big.bin";
  writeBytes(Big, "RDTC");
  ASSERT_EQ(0, ::truncate(Big.c_str(), (off_t{256} << 20) + 1));
  dbt::BlockMap Blocks;
  std::string Err;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Big, dbt::CacheKey(), Blocks, &Err));
  EXPECT_EQ("file too large", Err);
}

TEST(CodeCacheIo, RandomBitFlipsLoadAsMiss) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("rule:base").persistentCache(Dir.Path), &Path)
                  .Ok);
  const std::string Good = readBytes(Path);
  ASSERT_FALSE(Good.empty());

  vm::Vm Probe(cfgFor("rule:base").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();

  // Seeded LCG, same style as tools/rdbt_fuzz: deterministic corruption
  // corpus, one flipped bit per attempt. CRC32C catches every single-bit
  // error, so each must reject.
  uint64_t Rng = 0x9E3779B97F4A7C15ull;
  const auto Next = [&Rng] {
    Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(Rng >> 33);
  };
  const std::string Flipped = Dir.Path + "/flip.bin";
  for (int Attempt = 0; Attempt < 300; ++Attempt) {
    std::string Bad = Good;
    const size_t Byte = Next() % Bad.size();
    Bad[Byte] = static_cast<char>(Bad[Byte] ^ (1u << (Next() % 8)));
    writeBytes(Flipped, Bad);
    dbt::BlockMap Blocks;
    EXPECT_EQ(dbt::CacheLoad::Rejected,
              dbt::CodeCacheIo::load(Flipped, Key, Blocks))
        << "bit flip in byte " << Byte << " must reject";
  }
}

TEST(CodeCacheIo, WrongVersionAndMagicReject) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  const std::string Good = readBytes(Path);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();

  // Header layout: magic, version, ImageCrc, ConfigCrc, PayloadCrc.
  const std::string Forged = Dir.Path + "/forged.bin";
  std::string Bad = Good;
  const uint32_t WrongVersion = dbt::CodeCacheIo::FormatVersion + 1;
  std::memcpy(&Bad[4], &WrongVersion, 4);
  writeBytes(Forged, Bad);
  dbt::BlockMap Blocks;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Forged, Key, Blocks));

  Bad = Good;
  Bad[0] = 'X';
  writeBytes(Forged, Bad);
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Forged, Key, Blocks));

  // A set reserved byte in the first block record (after the 20-byte
  // header, the block count, GuestPc, MmuIdx and DefFlags) rejects even
  // under a matching payload checksum.
  constexpr size_t HeaderBytes = 20, ReservedAt = HeaderBytes + 4 + 6;
  ASSERT_GT(Good.size(), ReservedAt);
  Bad = Good;
  Bad[ReservedAt] = 1;
  writeBytes(Forged, resealed(Bad));
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Forged, Key, Blocks));
}

// A probe hit resumes past the miss path's helper call, so a file whose
// probe ends the block, or is not followed by its own load/store helper
// call with code after it, must reject rather than run off the block; so
// must a block whose last instruction falls through, and one whose
// coordination runs or flag-save ranges are not what the emitter and
// chain-time elision rely on.
TEST(CodeCacheIo, CodeThatCouldRunOffItsBlockRejects) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();

  // Re-saves the file with \p Mutate applied to a copy of the first
  // probe's block (the save re-seals the checksum), then loads it.
  auto LoadMutant = [&](const std::function<void(host::HostBlock &,
                                                 size_t)> &Mutate) {
    dbt::BlockMap Blocks;
    EXPECT_EQ(dbt::CacheLoad::Hit, dbt::CodeCacheIo::load(Path, Key, Blocks));
    for (auto &[K, Block] : Blocks)
      for (size_t I = 0; I < Block->Code.size(); ++I)
        if (Block->Code[I].Op == host::HOp::Probe) {
          auto Copy = std::make_shared<host::HostBlock>(*Block);
          Mutate(*Copy, I);
          Block = std::move(Copy);
          const std::string Mutant = Dir.Path + "/mutant.bin";
          EXPECT_TRUE(dbt::CodeCacheIo::save(Mutant, Blocks, Key));
          dbt::BlockMap Out;
          std::string Why;
          const dbt::CacheLoad L =
              dbt::CodeCacheIo::load(Mutant, Key, Out, &Why);
          std::remove(Mutant.c_str());
          return std::make_pair(L, Why);
        }
    ADD_FAILURE() << "no probe in the qemu cache file";
    return std::make_pair(dbt::CacheLoad::Absent, std::string());
  };

  EXPECT_EQ(dbt::CacheLoad::Hit,
            LoadMutant([](host::HostBlock &, size_t) {}).first);
  const std::vector<std::function<void(host::HostBlock &, size_t)>> Mutants =
      {[](host::HostBlock &B, size_t I) { B.Code = {B.Code[I]}; },
       [](host::HostBlock &B, size_t I) {
         B.Code = {B.Code[I], B.Code[I + 1]};
       },
       [](host::HostBlock &B, size_t I) {
         B.Code[I + 1].Op = host::HOp::Nop;
       },
       [](host::HostBlock &B, size_t I) {
         B.Code[I + 1].Helper = dbt::HelperEmulate;
       },
       [](host::HostBlock &B, size_t I) {
         B.Code[I].AccIsWrite = !B.Code[I].AccIsWrite;
       }};
  for (size_t M = 0; M < Mutants.size(); ++M) {
    const auto Result = LoadMutant(Mutants[M]);
    EXPECT_EQ(dbt::CacheLoad::Rejected, Result.first) << "mutant " << M;
    EXPECT_EQ("probe not followed by its helper call", Result.second)
        << "mutant " << M;
  }
  // The probe clobbers t0 and t1, so its address never lives there.
  auto Result = LoadMutant([](host::HostBlock &B, size_t I) {
    B.Code[I].Src = host::ScratchReg1;
  });
  EXPECT_EQ(dbt::CacheLoad::Rejected, Result.first);
  EXPECT_EQ("probe address in a scratch register", Result.second);
  // Nor may any other last instruction fall through.
  Result = LoadMutant([](host::HostBlock &B, size_t) {
    B.Code.resize(1);
    B.Code[0] = host::HInst();
  });
  EXPECT_EQ(dbt::CacheLoad::Rejected, Result.first);
  EXPECT_EQ("block ends in an instruction that falls through", Result.second);

  // Coordination runs and flag-save ranges, in a rule translator's file:
  // each header must charge what it covers and cover two or more
  // coordination instructions only, inside the block, with no jump
  // landing inside; each range must start at a SyncOp marker inside a
  // run, end at its exit's chain slot, and neither overlap the other nor
  // be jumped into.
  std::string RulePath;
  ASSERT_TRUE(
      runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path), &RulePath)
          .Ok);
  vm::Vm RuleProbe(cfgFor("rule:scheduling").persistentCache(Dir.Path));
  ASSERT_TRUE(RuleProbe.valid());
  const dbt::CacheKey RuleKey = RuleProbe.cacheKey();
  // Like LoadMutant, on the first block whose two exits both save flags,
  // passing the header of the run slot 0's flag save starts inside.
  auto LoadRunMutant = [&](const std::function<void(host::HostBlock &,
                                                    size_t)> &Mutate) {
    dbt::BlockMap Blocks;
    EXPECT_EQ(dbt::CacheLoad::Hit,
              dbt::CodeCacheIo::load(RulePath, RuleKey, Blocks));
    for (auto &[K, Block] : Blocks) {
      const int Begin = Block->Chains[0].FlagSaveBegin;
      if (Begin < 0 || Block->Chains[1].FlagSaveBegin < 0)
        continue;
      size_t Head = static_cast<size_t>(Begin);
      while (Block->Code[Head].Op != host::HOp::CoordRun)
        --Head;
      auto Copy = std::make_shared<host::HostBlock>(*Block);
      Mutate(*Copy, Head);
      Block = std::move(Copy);
      const std::string Mutant = Dir.Path + "/mutant.bin";
      EXPECT_TRUE(dbt::CodeCacheIo::save(Mutant, Blocks, RuleKey));
      dbt::BlockMap Out;
      std::string Why;
      const dbt::CacheLoad L =
          dbt::CodeCacheIo::load(Mutant, RuleKey, Out, &Why);
      std::remove(Mutant.c_str());
      return std::make_pair(L, Why);
    }
    ADD_FAILURE() << "no block with two flag saves in the rule cache file";
    return std::make_pair(dbt::CacheLoad::Absent, std::string());
  };
  EXPECT_EQ(dbt::CacheLoad::Hit,
            LoadRunMutant([](host::HostBlock &, size_t) {}).first);
  // A jump in place of the block's last exit, to \p Target.
  const auto JumpTo = [](host::HostBlock &B, size_t Target) {
    host::HInst &Last = B.Code.back();
    Last.Op = host::HOp::Jmp;
    Last.Target = static_cast<int32_t>(Target);
  };
  const std::vector<std::pair<
      std::function<void(host::HostBlock &, size_t)>, std::string>>
      RunMutants = {
          {[](host::HostBlock &B, size_t H) { ++B.Code[H].Imm; },
           "coordination run sync cycles mismatch"},
          {[](host::HostBlock &B, size_t H) { --B.Code[H].Imm; },
           "coordination run sync cycles mismatch"},
          {[](host::HostBlock &B, size_t H) { ++B.Code[H].Target; },
           "coordination run glue cycles mismatch"},
          {[](host::HostBlock &B, size_t H) { ++B.Code[H].Helper; },
           "coordination run marker count mismatch"},
          {[](host::HostBlock &B, size_t H) { --B.Code[H].Helper; },
           "coordination run marker count mismatch"},
          {[](host::HostBlock &B, size_t H) { B.Code[H].Slot = 1; },
           "coordination run length out of range"},
          {[](host::HostBlock &B, size_t H) {
             B.Code[H].Slot = static_cast<uint16_t>(B.Code.size() - H);
           },
           "coordination run length out of range"},
          {[](host::HostBlock &B, size_t H) {
             B.Code[H + 1].Op = host::HOp::Mov;
           },
           "non-coordination op inside a coordination run"},
          {[&](host::HostBlock &B, size_t H) { JumpTo(B, H + 2); },
           "jump into a coordination run"},
          {[](host::HostBlock &B, size_t) { ++B.Chains[0].FlagSaveBegin; },
           "flag-save range does not start at a SyncOp marker"},
          {[](host::HostBlock &B, size_t H) {
             // The run opens with the exit's own SyncOp marker.
             B.Chains[0].FlagSaveBegin = static_cast<int>(H + 1);
           },
           "flag-save range does not start inside a coordination run"},
          {[](host::HostBlock &B, size_t) { --B.Chains[0].FlagSaveEnd; },
           "flag-save range does not end at its chain slot"},
          {[](host::HostBlock &B, size_t) {
             B.Chains[1].FlagSaveBegin = B.Chains[0].FlagSaveBegin;
           },
           "flag-save ranges overlap"},
          {[&](host::HostBlock &B, size_t) {
             JumpTo(B, static_cast<size_t>(B.Chains[0].FlagSaveEnd));
           },
           "jump into a flag-save range"},
      };
  for (size_t M = 0; M < RunMutants.size(); ++M) {
    Result = LoadRunMutant(RunMutants[M].first);
    EXPECT_EQ(dbt::CacheLoad::Rejected, Result.first) << "run mutant " << M;
    EXPECT_EQ(RunMutants[M].second, Result.second) << "run mutant " << M;
  }
}

// A file of an earlier format (version 3, the 12-instruction probe;
// version 4, code without its CoordRun headers) is a clean miss: the
// session runs exactly like a cold one and rewrites it.
TEST(CodeCacheIo, VersionThreeFileIsACleanMiss) {
  for (const uint32_t Version : {3u, 4u}) {
    TempDir Dir;
    std::string Path;
    const vm::RunReport Cold =
        runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path), &Path);
    ASSERT_TRUE(Cold.Ok);
    std::string Old = readBytes(Path);
    std::memcpy(&Old[4], &Version, 4);
    writeBytes(Path, Old);

    const vm::RunReport Recover =
        runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path));
    ASSERT_TRUE(Recover.Ok) << Version;
    expectSameGuestRun(Cold, Recover);
    EXPECT_EQ(0u, Recover.Cache.CacheFileHits) << Version;
    EXPECT_EQ(1u, Recover.Cache.CacheFileMisses) << Version;
    EXPECT_EQ(Cold.Engine.Translations, Recover.Engine.Translations);
    EXPECT_NE(Old, readBytes(Path)) << "the miss must rewrite the file";
  }
}

TEST(CodeCacheIo, StaleKeyRejects) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());

  // The same bytes under a key for different guest bytes / different
  // translator config: the file's key echo must reject both.
  dbt::CacheKey Stale = Probe.cacheKey();
  Stale.ImageCrc ^= 1;
  dbt::BlockMap Blocks;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Path, Stale, Blocks));
  Stale = Probe.cacheKey();
  Stale.ConfigCrc ^= 1;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Path, Stale, Blocks));

  // Missing file: Absent, not Rejected — the caller counts nothing.
  EXPECT_EQ(dbt::CacheLoad::Absent,
            dbt::CodeCacheIo::load(Dir.Path + "/nope.bin", Probe.cacheKey(),
                                   Blocks));
}

TEST(CodeCacheIo, CorruptFileDegradesToColdStartInAFullSession) {
  TempDir Dir;
  std::string Path;
  const vm::RunReport Cold =
      runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path), &Path);
  ASSERT_TRUE(Cold.Ok);

  // Corrupt the file in place; the next session must run exactly like a
  // cold one (counted as one CacheFileMiss) and repair the file on exit.
  std::string Bad = readBytes(Path);
  Bad[Bad.size() / 2] = static_cast<char>(Bad[Bad.size() / 2] ^ 0x40);
  writeBytes(Path, Bad);

  const vm::RunReport Recover =
      runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path));
  ASSERT_TRUE(Recover.Ok);
  expectSameGuestRun(Cold, Recover);
  EXPECT_EQ(0u, Recover.Cache.CacheFileHits);
  EXPECT_EQ(1u, Recover.Cache.CacheFileMisses);
  EXPECT_EQ(0u, Recover.Cache.LoadedTbs);
  EXPECT_EQ(Cold.Engine.Translations, Recover.Engine.Translations);

  // The rewrite is a valid file again: the third boot is warm.
  const vm::RunReport Warm =
      runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path));
  ASSERT_TRUE(Warm.Ok);
  expectSameGuestRun(Cold, Warm);
  EXPECT_EQ(1u, Warm.Cache.CacheFileHits);
  EXPECT_EQ(0u, Warm.Engine.Translations);
}

TEST(CodeCacheIo, WrongKindsFileAtTheRightPathRejects) {
  TempDir Dir;
  std::string QemuPath, RulePath;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &QemuPath)
                  .Ok);
  // A rule:base probe names a different file (ConfigCrc differs), so a
  // stale deployment would have to copy bytes across — simulate that.
  vm::Vm Probe(cfgFor("rule:base").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  RulePath = Probe.cacheFilePath();
  ASSERT_NE(QemuPath, RulePath);
  writeBytes(RulePath, readBytes(QemuPath));

  const vm::RunReport R =
      runOnce(cfgFor("rule:base").persistentCache(Dir.Path));
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(0u, R.Cache.CacheFileHits);
  EXPECT_EQ(1u, R.Cache.CacheFileMisses);
}

TEST(CodeCacheIo, TranslationStoreValidatesGuestWords) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());

  dbt::BlockMap Blocks;
  ASSERT_EQ(dbt::CacheLoad::Hit,
            dbt::CodeCacheIo::load(Path, Probe.cacheKey(), Blocks));
  ASSERT_FALSE(Blocks.empty());
  const auto &[Key, Block] = *Blocks.begin();
  ASSERT_TRUE(Block);
  const uint32_t Pc = Block->GuestPc;
  const unsigned MmuIdx = static_cast<unsigned>((Key >> 32) & 1);
  const uint32_t Asid = static_cast<uint32_t>(Key >> 33) & 0xFF;
  ASSERT_EQ(Key, dbt::CodeCache::key(Pc, MmuIdx, Asid));
  std::vector<uint32_t> Words = Block->GuestWords;
  ASSERT_FALSE(Words.empty());

  // A copy whose guest words differ from the file's (the stored block of
  // code that has since been modified).
  dbt::BlockMap Modified = Blocks;
  auto Copy = std::make_shared<host::HostBlock>(*Block);
  Copy->GuestWords[0] ^= 1;
  Modified[Key] = std::move(Copy);

  const dbt::TranslationStore Store(Blocks);
  EXPECT_EQ(Blocks.size(), Store.blocks());
  const auto Out = Store.lookup(Pc, MmuIdx, Asid, Words);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Block, Out) << "a hit hands out the stored block itself";
  EXPECT_EQ(Pc, Out->GuestPc);
  EXPECT_EQ(Words.size(), static_cast<size_t>(Out->NumGuestInstrs));

  // Same key, different guest words (self-modified code): must miss.
  Words[0] ^= 1;
  EXPECT_FALSE(Store.lookup(Pc, MmuIdx, Asid, Words));
  // ...and a store holding the modified copy hits on exactly those words.
  const dbt::TranslationStore ModifiedStore(std::move(Modified));
  EXPECT_TRUE(ModifiedStore.lookup(Pc, MmuIdx, Asid, Words));
  Words[0] ^= 1;
  EXPECT_FALSE(ModifiedStore.lookup(Pc, MmuIdx, Asid, Words));
  EXPECT_TRUE(Store.lookup(Pc, MmuIdx, Asid, Words));
  // Different ASID: must miss (distinct cache key).
  EXPECT_FALSE(Store.lookup(Pc, MmuIdx, Asid ^ 0x5, Words));
}

TEST(CodeCacheIo, Crc32cKnownAnswerAndChaining) {
  // The standard CRC-32C check value; every cache file name and payload
  // checksum depends on this function.
  const std::string Check = "123456789";
  EXPECT_EQ(0xE3069283u, dbt::crc32c(Check.data(), Check.size()));
  EXPECT_EQ(0u, dbt::crc32c(nullptr, 0));

  const std::string A = "rule:scheduling", B = "guest image bytes";
  const std::string AB = A + B;
  EXPECT_EQ(dbt::crc32c(AB.data(), AB.size()),
            dbt::crc32c(B.data(), B.size(), dbt::crc32c(A.data(), A.size())));

  const uint32_t Word = 0xE3A0102Au;
  const uint8_t Le[4] = {0x2A, 0x10, 0xA0, 0xE3};
  EXPECT_EQ(dbt::crc32c(Le, 4, 0x1234u), dbt::crc32cWord(Word, 0x1234u));
}

TEST(CodeCacheIo, Crc32cMatchesABytewiseReferenceAtEveryLengthAndOffset) {
  // Every length from 0 to 72 (up to nine 8-byte steps) at every
  // alignment of the start, so each split between the 8-byte loop and
  // the byte tail is covered. Each seed fills the buffer and also seeds
  // the CRC, so chaining from a non-zero value is covered too.
  for (const uint32_t Seed : {0u, 0x1EDC6F41u, 0xFFFFFFFFu}) {
    uint8_t Buf[7 + 72];
    uint64_t Rng = Seed ^ 0x9E3779B97F4A7C15ull;
    for (uint8_t &B : Buf) {
      Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
      B = static_cast<uint8_t>(Rng >> 56);
    }
    for (size_t Off = 0; Off < 8; ++Off)
      for (size_t Len = 0; Len <= 72; ++Len)
        EXPECT_EQ(crc32cBytewise(Buf + Off, Len, Seed),
                  dbt::crc32c(Buf + Off, Len, Seed))
            << "seed " << Seed << ", offset " << Off << ", length " << Len;
  }
}

TEST(CodeCacheIo, RuleCorpusKeysByContent) {
  TempDir Dir;
  // The cache file a rule:scheduling session over \p RS would use; null
  // means the built-in corpus.
  auto pathFor = [&](const rules::RuleSet *RS) {
    vm::VmConfig Cfg = cfgFor("rule:scheduling")
                           .persistentCache(Dir.Path)
                           .persistentCacheSaveOnExit(false);
    if (RS)
      Cfg.rules(RS);
    vm::Vm V(Cfg);
    EXPECT_TRUE(V.valid()) << V.error();
    return V.cacheFilePath();
  };
  const std::string BuiltIn = pathFor(nullptr);
  ASSERT_FALSE(BuiltIn.empty());

  // A freshly built copy has the same text, so the same file.
  const rules::RuleSet Copy = rules::buildReferenceRuleSet();
  EXPECT_EQ(BuiltIn, pathFor(&Copy));

  const rules::RuleSet Thinned =
      rules::filterRuleSetByShape(Copy, rules::PatShape::DpRegShiftImm);
  ASSERT_LT(Thinned.size(), Copy.size());
  EXPECT_NE(BuiltIn, pathFor(&Thinned));

  // A set whose key was read and cached, then grown by add(), keys anew.
  rules::RuleSet Grown = rules::buildReferenceRuleSet();
  EXPECT_EQ(BuiltIn, pathFor(&Grown));
  Grown.add(Grown.rule(0));
  EXPECT_NE(BuiltIn, pathFor(&Grown));
  const std::string Text = rules::writeRuleSet(Grown);
  EXPECT_EQ(dbt::crc32c(Text.data(), Text.size()), Grown.contentCrc());
}

TEST(CodeCacheIo, ConcurrentWarmSessionsAgree) {
  // Eight sessions start warm at once over one filled directory. The
  // directory is filled through a separately built copy of the reference
  // corpus, which keys to the same file, so when this test runs alone
  // the eight are the first users of the process-wide corpus and of its
  // cached key.
  TempDir Dir;
  const rules::RuleSet Copy = rules::buildReferenceRuleSet();
  const vm::RunReport Cold =
      runOnce(cfgFor("rule:scheduling").rules(&Copy).persistentCache(Dir.Path));
  ASSERT_TRUE(Cold.Ok);
  ASSERT_GT(Cold.Engine.Translations, 0u);

  constexpr int Threads = 8;
  std::vector<vm::RunReport> Reports(Threads);
  std::vector<std::string> Errors(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      vm::Vm V(cfgFor("rule:scheduling")
                   .persistentCache(Dir.Path)
                   .persistentCacheSaveOnExit(false));
      if (!V.valid())
        Errors[T] = V.error();
      else
        Reports[T] = V.run();
    });
  for (std::thread &T : Pool)
    T.join();

  for (int T = 0; T < Threads; ++T) {
    ASSERT_TRUE(Errors[T].empty()) << "session " << T << ": " << Errors[T];
    const vm::RunReport &R = Reports[T];
    EXPECT_TRUE(R.Ok) << "session " << T;
    EXPECT_EQ(1u, R.Cache.CacheFileHits) << "session " << T;
    EXPECT_EQ(0u, R.Cache.CacheFileMisses) << "session " << T;
    EXPECT_EQ(0u, R.Engine.Translations) << "session " << T;
    EXPECT_EQ(Cold.Engine.Translations, R.Cache.LoadedTbs) << "session " << T;
    expectSameGuestRun(Cold, R);
    expectSameGuestRun(Reports[0], R);
  }
  // Nothing was translated, so nothing was rewritten.
  EXPECT_EQ(1u, Dir.files().size());
}

TEST(CodeCacheIo, ConcurrentSavesOfOneKeyAllSucceed) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();
  const std::string Before = readBytes(Path);
  dbt::BlockMap Blocks;
  ASSERT_EQ(dbt::CacheLoad::Hit, dbt::CodeCacheIo::load(Path, Key, Blocks));

  // Threads of one process saving the same key must never share a temp
  // file: every save succeeds. Each thread records its own failures; the
  // checks run after joining.
  constexpr int Threads = 4, Rounds = 25;
  std::vector<std::vector<std::string>> Errors(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int R = 0; R < Rounds; ++R) {
        std::string Err;
        if (!dbt::CodeCacheIo::save(Path, Blocks, Key, &Err))
          Errors[T].push_back(Err);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_TRUE(Errors[T].empty())
        << Errors[T].size() << " failed saves, first: " << Errors[T][0];

  dbt::BlockMap Back;
  std::string Err;
  EXPECT_EQ(dbt::CacheLoad::Hit, dbt::CodeCacheIo::load(Path, Key, Back, &Err))
      << Err;
  EXPECT_EQ(Blocks.size(), Back.size());
  EXPECT_EQ(Before, readBytes(Path));
  // Every temp file was renamed into place: the file is all that is left.
  EXPECT_EQ(1u, Dir.files().size());
}

TEST(CodeCacheIo, PreRunForkNamesTheFreshSessionsFile) {
  TempDir Dir;
  for (const std::string &Kind : engineKinds()) {
    const vm::VmConfig Cfg =
        cfgFor(Kind).persistentCache(Dir.Path).persistentCacheSaveOnExit(false);
    vm::Vm Fresh(Cfg);
    ASSERT_TRUE(Fresh.valid()) << Fresh.error();
    const vm::Snapshot Snap = Fresh.capture();
    ASSERT_FALSE(Snap.hasRun());
    vm::VmConfig ForkCfg = Cfg;
    vm::Vm Fork(ForkCfg.snapshot(&Snap));
    ASSERT_TRUE(Fork.valid()) << Fork.error();
    ASSERT_TRUE(Fork.forked());
    EXPECT_FALSE(Fresh.cacheFilePath().empty());
    EXPECT_EQ(Fresh.cacheFilePath(), Fork.cacheFilePath()) << Kind;
  }
}

TEST(CodeCacheIo, ImageKeySeparatesFlatImages) {
  TempDir Dir;
  // The cache file a qemu session over \p Words at \p Base, on a board of
  // \p Ram bytes, would use.
  auto pathFor = [&](std::vector<uint32_t> Words, uint32_t Base,
                     uint32_t Ram) {
    vm::Vm V(vm::VmConfig()
                 .translator("qemu")
                 .ramBytes(Ram)
                 .flatImage(std::move(Words), Base)
                 .persistentCache(Dir.Path)
                 .persistentCacheSaveOnExit(false));
    EXPECT_TRUE(V.valid()) << V.error();
    return V.cacheFilePath();
  };
  const uint32_t Code = 0xE3A0102Au; // mov r1, #42
  const uint32_t Ram = 64 << 10;
  const std::string Ref = pathFor({Code}, 0x1000, Ram);
  ASSERT_FALSE(Ref.empty());
  EXPECT_EQ(Ref, pathFor({Code}, 0x1000, Ram));

  // One byte, the last of page 2, which is otherwise zero here and all
  // zero in Ref.
  std::vector<uint32_t> OneByte(2 * 1024, 0);
  OneByte[0] = Code;
  OneByte.back() = 0x01000000;
  EXPECT_NE(Ref, pathFor(OneByte, 0x1000, Ram));
  // The same words at the same offset of a different page.
  EXPECT_NE(Ref, pathFor({Code}, 0x2000, Ram));
  // The same image on a larger board: only zero pages are added.
  EXPECT_NE(Ref, pathFor({Code}, 0x1000, 2 * Ram));
}

TEST(CodeCacheIo, RezeroedPageKeysLikeAnUnwrittenOne) {
  // A master over one code word writes a word into a page that is zero
  // in its image and then clears it again: the page is now a private
  // copy of zeros. A fork of it must still name the file of a board
  // that never touched the page, because the image key hashes content.
  TempDir Dir;
  const vm::VmConfig Cfg = vm::VmConfig()
                               .translator("qemu")
                               .ramBytes(64 << 10)
                               .flatImage({0xE3A0102Au}, 0x1000)
                               .persistentCache(Dir.Path)
                               .persistentCacheSaveOnExit(false);
  vm::Vm Master(Cfg);
  ASSERT_TRUE(Master.valid()) << Master.error();
  Master.board().Ram.write(0x3000, 4, 0xDEADBEEFu);
  Master.board().Ram.write(0x3000, 4, 0);
  const vm::Snapshot Snap = Master.capture();
  vm::VmConfig ForkCfg = Cfg;
  vm::Vm Fork(ForkCfg.snapshot(&Snap));
  ASSERT_TRUE(Fork.valid()) << Fork.error();
  ASSERT_TRUE(Fork.forked());
  EXPECT_FALSE(Master.cacheFilePath().empty());
  EXPECT_EQ(Master.cacheFilePath(), Fork.cacheFilePath());
  EXPECT_EQ(Master.cacheKey().ImageCrc, Fork.cacheKey().ImageCrc);
}

TEST(CodeCacheIo, ImageCrcOfEveryWorkloadIsPinned) {
  // The image key of every workload's freshly installed board at scale
  // 1. A change to how RAM is stored must not move these: they name the
  // cache files already on disk.
  const std::pair<const char *, uint32_t> Pinned[] = {
      {"perlbench", 0x10CB099Du}, {"bzip2", 0xDA0ECA96u},
      {"gcc", 0xFF72F3BAu},       {"mcf", 0x95035DB7u},
      {"gobmk", 0xBD6D08B0u},     {"hmmer", 0xE0E3E964u},
      {"sjeng", 0x0F10484Bu},     {"libquantum", 0x7D7C8C38u},
      {"h264ref", 0xB36F25B5u},   {"omnetpp", 0x717185A6u},
      {"astar", 0x21584F30u},     {"xalancbmk", 0xA1BE7F5Au},
      {"memcached", 0xA9FDDD41u}, {"sqlite", 0x762928C2u},
      {"fileio", 0x98B521C7u},    {"untar", 0xE1234F96u},
      {"cpu-prime", 0xC20AB07Du}, {"ctxswitch", 0xD37290E4u},
      {"fuzz", 0x2AE54A83u},
  };
  ASSERT_EQ(std::size(Pinned), guestsw::workloads().size())
      << "a new workload needs its image key pinned here";
  TempDir Dir;
  for (const auto &[Name, Crc] : Pinned) {
    vm::Vm V(vm::VmConfig()
                 .translator("qemu")
                 .workload(Name)
                 .scale(1)
                 .persistentCache(Dir.Path)
                 .persistentCacheSaveOnExit(false));
    ASSERT_TRUE(V.valid()) << Name << ": " << V.error();
    ASSERT_TRUE(V.cacheKey().Valid) << Name;
    EXPECT_EQ(Crc, V.cacheKey().ImageCrc) << Name;
  }
}

TEST(CodeCacheIo, SpecStringCarriesTheCacheDir) {
  std::string Err;
  const vm::VmConfig C =
      vm::VmConfig::fromSpec("qemu/libquantum,cache=/tmp/tc", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ("/tmp/tc", C.persistentCache());
  EXPECT_EQ("qemu/libquantum,cache=/tmp/tc", C.toSpec());

  vm::VmConfig::fromSpec("qemu/libquantum,cache=", &Err);
  EXPECT_FALSE(Err.empty());
}
