//===- dbt/CodeCacheIo.cpp - Persistent translation cache ------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "dbt/CodeCacheIo.h"

#include "dbt/GuestBlock.h"
#include "dbt/Helpers.h"
#include "sys/Env.h"

#include <atomic>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace rdbt;
using namespace rdbt::dbt;

//===----------------------------------------------------------------------===//
// crc32c
//===----------------------------------------------------------------------===//

namespace {

/// Slicing-by-8 tables: T[0] is the bytewise table, and T[K][B] is the
/// CRC of byte B followed by K zero bytes, so eight table lookups fold
/// eight input bytes in one step.
struct Crc32cTables {
  uint32_t T[8][256];
  constexpr Crc32cTables() : T() {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? (C >> 1) ^ 0x82F63B78u : C >> 1;
      T[0][I] = C;
    }
    for (uint32_t I = 0; I < 256; ++I)
      for (int K = 1; K < 8; ++K)
        T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFF];
  }
};

constexpr Crc32cTables CrcTab;

/// The little-endian u32 at \p P, from single bytes (any alignment, any
/// host byte order).
uint32_t loadLe32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

} // namespace

uint32_t dbt::crc32c(const void *Data, size_t Len, uint32_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  const auto &T = CrcTab.T;
  uint32_t C = ~Seed;
  for (; Len >= 8; P += 8, Len -= 8) {
    // The upper half does not depend on C: its lookups run ahead of the
    // lower half's, which are on the step-to-step critical path.
    const uint32_t Hi = loadLe32(P + 4);
    const uint32_t FromHi = (T[3][Hi & 0xFF] ^ T[2][(Hi >> 8) & 0xFF]) ^
                            (T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24]);
    const uint32_t Lo = C ^ loadLe32(P);
    C = ((T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF]) ^
         (T[5][(Lo >> 16) & 0xFF] ^ T[4][Lo >> 24])) ^
        FromHi;
  }
  for (; Len > 0; ++P, --Len)
    C = (C >> 8) ^ T[0][(C ^ *P) & 0xFF];
  return ~C;
}

uint32_t dbt::crc32cWord(uint32_t Word, uint32_t Seed) {
  uint8_t B[4] = {static_cast<uint8_t>(Word), static_cast<uint8_t>(Word >> 8),
                  static_cast<uint8_t>(Word >> 16),
                  static_cast<uint8_t>(Word >> 24)};
  return crc32c(B, 4, Seed);
}

//===----------------------------------------------------------------------===//
// CacheKey
//===----------------------------------------------------------------------===//

std::string CacheKey::fileName() const {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "rdbt-tc-%08x-%08x.bin", ImageCrc,
                ConfigCrc);
  return Buf;
}

std::string CacheKey::pathIn(const std::string &Dir) const {
  if (Dir.empty())
    return fileName();
  return Dir.back() == '/' ? Dir + fileName() : Dir + "/" + fileName();
}

//===----------------------------------------------------------------------===//
// Little-endian byte stream
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t Magic = 0x43544452u; // "RDTC" little-endian
constexpr size_t MaxFileBytes = 256u << 20;
constexpr uint32_t MaxBlocks = 1u << 20;
constexpr uint32_t MaxCodeLen = 1u << 16;

class Writer {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u16(uint16_t V) {
    u8(static_cast<uint8_t>(V));
    u8(static_cast<uint8_t>(V >> 8));
  }
  void u32(uint32_t V) {
    u16(static_cast<uint16_t>(V));
    u16(static_cast<uint16_t>(V >> 16));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  std::string Buf;
};

/// The little-endian u16 at \p P.
uint16_t loadLe16(const uint8_t *P) {
  return static_cast<uint16_t>(P[0] | P[1] << 8);
}

/// A bounds-checked cursor over the file's bytes. take() hands out the
/// next \p Bytes in one check, so a fixed-size record costs one
/// comparison and its fields decode from the returned pointer.
class Reader {
public:
  Reader(const uint8_t *Data, size_t Len) : P(Data), Left(Len) {}

  /// The next \p Bytes bytes, or null (consuming nothing) if fewer are
  /// left.
  const uint8_t *take(size_t Bytes) {
    if (Bytes > Left)
      return nullptr;
    const uint8_t *R = P;
    P += Bytes;
    Left -= Bytes;
    return R;
  }
  bool done() const { return Left == 0; }

private:
  const uint8_t *P;
  size_t Left;
};

void writeInst(Writer &W, const host::HInst &H) {
  W.u8(static_cast<uint8_t>(H.Op));
  W.u8(static_cast<uint8_t>(H.Cc));
  W.u8(static_cast<uint8_t>(H.Cls));
  W.u8(static_cast<uint8_t>((H.SetFlags ? 1 : 0) | (H.UseImm ? 2 : 0) |
                            (H.AccIsWrite ? 4 : 0)));
  W.u8(H.Size);
  W.u8(H.Dst);
  W.u8(H.Src);
  W.u8(H.Src2);
  W.u16(H.Slot);
  W.u16(H.Helper);
  W.i32(H.Imm);
  W.i32(H.Target);
  W.u32(H.GuestPc);
}

/// Bytes of the fixed-size records save() writes: a block's header
/// (GuestPc, MmuIdx, DefFlags, reserved, padding, Asid and the four
/// instruction counts), one chain, and one writeInst() instruction.
constexpr size_t BlockHeaderBytes = 28;
constexpr size_t ChainBytes = 12;
constexpr size_t InstBytes = 24;

/// Decodes and range-checks the writeInst() record at \p P.
bool readInst(const uint8_t *P, uint32_t NumCode, host::HInst &H,
              std::string &Why) {
  const uint8_t Op = P[0], Cc = P[1], Cls = P[2], Flags = P[3];
  H.Size = P[4];
  H.Dst = P[5];
  H.Src = P[6];
  H.Src2 = P[7];
  H.Slot = loadLe16(P + 8);
  H.Helper = loadLe16(P + 10);
  H.Imm = static_cast<int32_t>(loadLe32(P + 12));
  H.Target = static_cast<int32_t>(loadLe32(P + 16));
  H.GuestPc = loadLe32(P + 20);
  if (Op > static_cast<uint8_t>(host::HOp::CoordRun)) {
    Why = "opcode out of range";
    return false;
  }
  if (Cc > static_cast<uint8_t>(host::HCond::Al)) {
    Why = "condition out of range";
    return false;
  }
  if (Cls >= host::NumCostClasses) {
    Why = "cost class out of range";
    return false;
  }
  if (Flags >= 8) {
    Why = "flag bits out of range";
    return false;
  }
  H.Op = static_cast<host::HOp>(Op);
  H.Cc = static_cast<host::HCond>(Cc);
  H.Cls = static_cast<host::CostClass>(Cls);
  H.SetFlags = (Flags & 1) != 0;
  H.UseImm = (Flags & 2) != 0;
  H.AccIsWrite = (Flags & 4) != 0;
  if (H.Dst >= host::NumHostRegs || H.Src >= host::NumHostRegs ||
      H.Src2 >= host::NumHostRegs) {
    Why = "register out of range";
    return false;
  }
  if (H.Size != 1 && H.Size != 2 && H.Size != 4) {
    Why = "access size out of range";
    return false;
  }
  if ((H.Op == host::HOp::LdEnv || H.Op == host::HOp::StEnv ||
       H.Op == host::HOp::StEnvI) &&
      H.Slot >= sys::envWordCount()) {
    Why = "env slot out of range";
    return false;
  }
  if (H.Op == host::HOp::Probe &&
      (H.Src == host::ScratchReg0 || H.Src == host::ScratchReg1)) {
    Why = "probe address in a scratch register";
    return false;
  }
  if (H.Op == host::HOp::CallHelper && H.Helper >= NumHelpers) {
    Why = "helper id out of range";
    return false;
  }
  if (H.Op == host::HOp::ChainSlot && (H.Imm < 0 || H.Imm > 1)) {
    Why = "chain slot index out of range";
    return false;
  }
  const bool IsJump = H.Op == host::HOp::Jcc || H.Op == host::HOp::Jmp;
  const int32_t MinTarget = IsJump ? 0 : -1;
  if (H.Target < MinTarget || H.Target >= static_cast<int32_t>(NumCode)) {
    Why = "jump target out of range";
    return false;
  }
  return true;
}

/// Why \p B's CoordRun headers or flag-save ranges could make it run, or
/// be elided, other than its instructions say; null if none.
const char *badRuns(const host::HostBlock &B, std::vector<uint8_t> &InRun) {
  using host::HOp;
  const std::vector<host::HInst> &Code = B.Code;
  const int N = static_cast<int>(Code.size());
  InRun.assign(Code.size(), 0);
  for (int I = 0; I < N; ++I) {
    const host::HInst &H = Code[I];
    if (H.Op != HOp::CoordRun)
      continue;
    if (H.Slot < 2 || I + H.Slot >= N)
      return "coordination run length out of range";
    host::HInst Run = host::coordRun();
    for (int K = I + 1; K <= I + H.Slot; ++K) {
      if (!host::isCoordination(Code[K]))
        return "non-coordination op inside a coordination run";
      host::addToRun(Run, Code[K]);
      InRun[K] = 1;
    }
    if (Run.Imm != H.Imm)
      return "coordination run sync cycles mismatch";
    if (Run.Target != H.Target)
      return "coordination run glue cycles mismatch";
    if (Run.Helper != H.Helper)
      return "coordination run marker count mismatch";
    I += H.Slot;
  }
  const host::HostBlock::Chain *Ch = B.Chains;
  for (int S = 0; S < 2; ++S) {
    const int Begin = Ch[S].FlagSaveBegin, End = Ch[S].FlagSaveEnd;
    if (Begin == -1 && End == -1)
      continue;
    if (Begin < 0 || Begin >= End || End >= N)
      return "flag-save range out of range";
    if (Code[Begin].Op != HOp::Marker ||
        Code[Begin].Imm != static_cast<int32_t>(host::MarkerKind::SyncOp))
      return "flag-save range does not start at a SyncOp marker";
    if (!InRun[Begin] || Code[Begin - 1].Op == HOp::CoordRun)
      return "flag-save range does not start inside a coordination run";
    if (Code[End].Op != HOp::ChainSlot || Code[End].Imm != S)
      return "flag-save range does not end at its chain slot";
  }
  if (Ch[0].FlagSaveBegin >= 0 && Ch[0].FlagSaveEnd >= Ch[1].FlagSaveBegin &&
      Ch[1].FlagSaveEnd >= Ch[0].FlagSaveBegin)
    return "flag-save ranges overlap";
  for (const host::HInst &H : Code) {
    if (H.Op != HOp::Jcc && H.Op != HOp::Jmp)
      continue;
    if (InRun[H.Target])
      return "jump into a coordination run";
    for (int S = 0; S < 2; ++S)
      if (H.Target > Ch[S].FlagSaveBegin && H.Target <= Ch[S].FlagSaveEnd)
        return "jump into a flag-save range";
  }
  return nullptr;
}

bool reject(std::string *Err, const std::string &Why) {
  if (Err)
    *Err = Why;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

bool CodeCacheIo::save(const std::string &Path, const BlockMap &Blocks,
                       const CacheKey &Key, std::string *Err) {
  Writer Body; // everything the payload checksum covers

  uint32_t NumBlocks = 0;
  Writer Records;
  for (const auto &[K, Block] : Blocks) {
    const host::HostBlock &B = *Block;
    // A block without its guest words (hand-built in a test, or predating
    // this format) can never be validated at seed time — leave it out.
    if (B.NumGuestInstrs == 0 || B.NumGuestInstrs > MaxGuestInstrsPerTb ||
        B.GuestWords.size() != B.NumGuestInstrs)
      continue;
    if (B.Code.empty() || B.Code.size() > MaxCodeLen)
      continue;

    Records.u32(B.GuestPc);
    Records.u8(static_cast<uint8_t>((K >> 32) & 1)); // MmuIdx
    Records.u8(B.DefinesFlagsBeforeUse ? 1 : 0);
    Records.u8(0); // reserved, must be 0 (a never-set flag until v2)
    Records.u8(0); // padding
    Records.u32(static_cast<uint32_t>(K >> 33) & 0xFF); // Asid
    Records.u32(B.NumGuestInstrs);
    Records.u32(B.NumMemInstrs);
    Records.u32(B.NumSysInstrs);
    Records.u32(B.NumIrqChecks);
    for (const host::HostBlock::Chain &Ch : B.Chains) {
      // TargetTb is a process-local id — never stored; chains re-resolve
      // at run time exactly like a cold session's. An empty flag-save
      // range is stored canonically as (-1, -1): translators may leave a
      // dangling End (RuleTranslator writes (-1, End) when Begin == End)
      // that every consumer ignores once Begin is -1.
      Records.u32(Ch.GuestTarget);
      Records.i32(Ch.FlagSaveBegin);
      Records.i32(Ch.FlagSaveBegin < 0 ? -1 : Ch.FlagSaveEnd);
    }
    for (const uint32_t W : B.GuestWords)
      Records.u32(W);
    Records.u32(static_cast<uint32_t>(B.Code.size()));
    for (const host::HInst &H : B.Code)
      writeInst(Records, H);
    ++NumBlocks;
  }

  Body.u32(NumBlocks);
  Body.Buf += Records.Buf;

  Writer File;
  File.u32(Magic);
  File.u32(FormatVersion);
  File.u32(Key.ImageCrc);
  File.u32(Key.ConfigCrc);
  File.u32(crc32c(Body.Buf.data(), Body.Buf.size()));
  File.Buf += Body.Buf;

  // Atomic publish: a temp file unique to this call (pid plus a
  // process-wide counter, so threads of one process never share one) in
  // the same directory, then rename(2). Concurrent savers of the same
  // key race benignly — both write identical bytes and the last rename
  // wins.
  static std::atomic<uint64_t> SaveSeq{0};
  std::string Tmp = Path + ".tmp.";
#if defined(__unix__) || defined(__APPLE__)
  Tmp += std::to_string(::getpid()) + ".";
#endif
  Tmp += std::to_string(SaveSeq++);
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return reject(Err, "cannot create " + Tmp);
  const size_t Wrote = std::fwrite(File.Buf.data(), 1, File.Buf.size(), F);
  const bool Flushed = std::fclose(F) == 0;
  if (Wrote != File.Buf.size() || !Flushed) {
    std::remove(Tmp.c_str());
    return reject(Err, "short write to " + Tmp);
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return reject(Err, "cannot rename into " + Path);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Load
//===----------------------------------------------------------------------===//

CacheLoad CodeCacheIo::load(const std::string &Path, const CacheKey &Key,
                            BlockMap &Out, std::string *Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return CacheLoad::Absent;
  const auto Bad = [&](const std::string &Why) {
    reject(Err, Why);
    return CacheLoad::Rejected;
  };

  // Size the file, refuse an oversized one before reading a byte, then
  // read it whole in one call, unbuffered: the stream needs no buffer of
  // its own for a single read into Bytes.
  struct stat St {};
  const bool Sized = ::fstat(fileno(F), &St) == 0;
  if (!Sized || static_cast<unsigned long long>(St.st_size) > MaxFileBytes) {
    std::fclose(F);
    return Bad(Sized ? "file too large" : "cannot size file");
  }
  std::setvbuf(F, nullptr, _IONBF, 0);
  std::vector<uint8_t> Bytes(static_cast<size_t>(St.st_size));
  const size_t Got = std::fread(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  if (Got != Bytes.size())
    return Bad("short read");

  constexpr size_t HeaderBytes = 5 * 4;
  Reader R(Bytes.data(), Bytes.size());
  const uint8_t *Head = R.take(HeaderBytes);
  if (!Head)
    return Bad("truncated header");
  if (loadLe32(Head) != Magic)
    return Bad("bad magic");
  if (loadLe32(Head + 4) != FormatVersion)
    return Bad("format version mismatch");
  if (loadLe32(Head + 8) != Key.ImageCrc ||
      loadLe32(Head + 12) != Key.ConfigCrc)
    return Bad("stale cache key");
  if (crc32c(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes) !=
      loadLe32(Head + 16))
    return Bad("payload checksum mismatch");

  const uint8_t *Count = R.take(4);
  if (!Count)
    return Bad("truncated block count");
  const uint32_t NumBlocks = loadLe32(Count);
  if (NumBlocks > MaxBlocks)
    return Bad("block count out of range");

  BlockMap Blocks;
  std::vector<uint8_t> InRun;
  for (uint32_t I = 0; I < NumBlocks; ++I) {
    const uint8_t *Hdr = R.take(BlockHeaderBytes);
    if (!Hdr)
      return Bad("truncated block header");
    const uint32_t GuestPc = loadLe32(Hdr);
    const uint8_t MmuIdx = Hdr[4], DefFlags = Hdr[5];
    const uint32_t Asid = loadLe32(Hdr + 8), NumGuest = loadLe32(Hdr + 12);
    if (MmuIdx > 1 || DefFlags > 1 || Hdr[6] != 0 || Hdr[7] != 0)
      return Bad("block header field out of range");
    if (Asid > 0xFF)
      return Bad("ASID out of range");
    if (NumGuest == 0 || NumGuest > MaxGuestInstrsPerTb)
      return Bad("guest instruction count out of range");

    auto B = std::make_shared<host::HostBlock>();
    B->GuestPc = GuestPc;
    B->NumGuestInstrs = NumGuest;
    B->NumMemInstrs = loadLe32(Hdr + 16);
    B->NumSysInstrs = loadLe32(Hdr + 20);
    B->NumIrqChecks = loadLe32(Hdr + 24);
    B->DefinesFlagsBeforeUse = DefFlags != 0;
    for (host::HostBlock::Chain &Ch : B->Chains) {
      const uint8_t *C = R.take(ChainBytes);
      if (!C)
        return Bad("truncated chain record");
      Ch.GuestTarget = loadLe32(C);
      Ch.FlagSaveBegin = static_cast<int32_t>(loadLe32(C + 4));
      Ch.FlagSaveEnd = static_cast<int32_t>(loadLe32(C + 8));
      Ch.TargetTb = -1;
    }
    const uint8_t *Words = R.take(size_t{NumGuest} * 4);
    if (!Words)
      return Bad("truncated guest words");
    B->GuestWords.resize(NumGuest);
    for (uint32_t W = 0; W < NumGuest; ++W)
      B->GuestWords[W] = loadLe32(Words + 4 * W);

    const uint8_t *Len = R.take(4);
    if (!Len)
      return Bad("truncated code length");
    const uint32_t NumCode = loadLe32(Len);
    if (NumCode == 0 || NumCode > MaxCodeLen)
      return Bad("code length out of range");
    const uint8_t *Code = R.take(size_t{NumCode} * InstBytes);
    if (!Code)
      return Bad("truncated instruction record");
    B->Code.resize(NumCode);
    std::string Why;
    for (uint32_t C = 0; C < NumCode; ++C)
      if (!readInst(Code + C * InstBytes, NumCode, B->Code[C], Why))
        return Bad(Why);
    // Execution must never run off the block: a probe hit resumes two
    // instructions on, past its miss path's call, and the last
    // instruction never falls through.
    for (uint32_t I = 0; I < NumCode; ++I) {
      const host::HInst &H = B->Code[I];
      if (H.Op == host::HOp::Probe &&
          (I + 2 >= NumCode || B->Code[I + 1].Op != host::HOp::CallHelper ||
           B->Code[I + 1].Helper != memHelperId(H.Size, H.AccIsWrite)))
        return Bad("probe not followed by its helper call");
    }
    if (B->Code.back().Op != host::HOp::ExitTb &&
        B->Code.back().Op != host::HOp::Jmp)
      return Bad("block ends in an instruction that falls through");
    if (const char *Why = badRuns(*B, InRun))
      return Bad(Why);

    if (!Blocks.emplace(CodeCache::key(GuestPc, MmuIdx, Asid), std::move(B))
             .second)
      return Bad("duplicate block key");
  }
  if (!R.done())
    return Bad("trailing bytes after last block");

  Out = std::move(Blocks);
  return CacheLoad::Hit;
}

//===----------------------------------------------------------------------===//
// TranslationStore
//===----------------------------------------------------------------------===//

std::shared_ptr<const host::HostBlock>
TranslationStore::lookup(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid,
                         const std::vector<uint32_t> &Words) const {
  const auto It = Blocks_.find(CodeCache::key(Pc, MmuIdx, Asid));
  if (It == Blocks_.end() || It->second->GuestWords != Words)
    return nullptr;
  return It->second;
}
