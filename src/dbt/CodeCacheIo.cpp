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

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace rdbt;
using namespace rdbt::dbt;

//===----------------------------------------------------------------------===//
// crc32c
//===----------------------------------------------------------------------===//

namespace {

struct Crc32cTable {
  uint32_t T[256];
  Crc32cTable() {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? (C >> 1) ^ 0x82F63B78u : C >> 1;
      T[I] = C;
    }
  }
};

const Crc32cTable &crcTable() {
  static const Crc32cTable Tab;
  return Tab;
}

} // namespace

uint32_t dbt::crc32c(const void *Data, size_t Len, uint32_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  const Crc32cTable &Tab = crcTable();
  uint32_t C = ~Seed;
  for (size_t I = 0; I < Len; ++I)
    C = (C >> 8) ^ Tab.T[(C ^ P[I]) & 0xFF];
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

class Reader {
public:
  Reader(const uint8_t *Data, size_t Len) : P(Data), N(Len) {}

  bool u8(uint8_t &V) {
    if (Pos + 1 > N)
      return false;
    V = P[Pos++];
    return true;
  }
  bool u16(uint16_t &V) {
    uint8_t A, B;
    if (!u8(A) || !u8(B))
      return false;
    V = static_cast<uint16_t>(A | (B << 8));
    return true;
  }
  bool u32(uint32_t &V) {
    uint16_t A, B;
    if (!u16(A) || !u16(B))
      return false;
    V = static_cast<uint32_t>(A) | (static_cast<uint32_t>(B) << 16);
    return true;
  }
  bool i32(int32_t &V) {
    uint32_t U;
    if (!u32(U))
      return false;
    V = static_cast<int32_t>(U);
    return true;
  }
  bool done() const { return Pos == N; }

private:
  const uint8_t *P;
  size_t N;
  size_t Pos = 0;
};

void writeInst(Writer &W, const host::HInst &H) {
  W.u8(static_cast<uint8_t>(H.Op));
  W.u8(static_cast<uint8_t>(H.Cc));
  W.u8(static_cast<uint8_t>(H.Cls));
  // Dead is a chain-time, process-local artifact: always stored clear so
  // a loaded block starts unelided, exactly like a fresh translation.
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

bool readInst(Reader &R, uint32_t NumCode, host::HInst &H,
              std::string &Why) {
  uint8_t Op, Cc, Cls, Flags;
  if (!R.u8(Op) || !R.u8(Cc) || !R.u8(Cls) || !R.u8(Flags) || !R.u8(H.Size) ||
      !R.u8(H.Dst) || !R.u8(H.Src) || !R.u8(H.Src2) || !R.u16(H.Slot) ||
      !R.u16(H.Helper) || !R.i32(H.Imm) || !R.i32(H.Target) ||
      !R.u32(H.GuestPc)) {
    Why = "truncated instruction record";
    return false;
  }
  if (Op > static_cast<uint8_t>(host::HOp::ExitTb)) {
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
  H.Dead = false;
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

bool reject(std::string *Err, const std::string &Why) {
  if (Err)
    *Err = Why;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

bool CodeCacheIo::save(const std::string &Path, const CodeCache::Image &Img,
                       const CacheKey &Key, std::string *Err) {
  Writer Body; // everything the payload checksum covers

  uint32_t NumBlocks = 0;
  Writer Records;
  for (const CodeCache::Entry &E : Img.Entries) {
    if (!E.Block)
      continue; // invalidated slot
    const host::HostBlock &B = *E.Block;
    // A block without its guest words (hand-built in a test, or predating
    // this format) can never be validated at seed time — leave it out.
    if (B.NumGuestInstrs == 0 || B.NumGuestInstrs > MaxGuestInstrsPerTb ||
        B.GuestWords.size() != B.NumGuestInstrs)
      continue;
    if (B.Code.empty() || B.Code.size() > MaxCodeLen)
      continue;

    Records.u32(B.GuestPc);
    Records.u8(static_cast<uint8_t>((E.Key >> 32) & 1)); // MmuIdx
    Records.u8(B.DefinesFlagsBeforeUse ? 1 : 0);
    Records.u8(0); // reserved, must be 0 (a never-set flag until v2)
    Records.u8(0); // padding
    Records.u32(E.Asid);
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
                            CodeCache::Image &Out, std::string *Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return CacheLoad::Absent;

  std::vector<uint8_t> Bytes;
  {
    uint8_t Chunk[65536];
    size_t Got;
    while ((Got = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0) {
      Bytes.insert(Bytes.end(), Chunk, Chunk + Got);
      if (Bytes.size() > MaxFileBytes)
        break;
    }
    std::fclose(F);
  }
  const auto Bad = [&](const std::string &Why) {
    reject(Err, Why);
    return CacheLoad::Rejected;
  };
  if (Bytes.size() > MaxFileBytes)
    return Bad("file too large");

  Reader R(Bytes.data(), Bytes.size());
  uint32_t FileMagic, Version, ImageCrc, ConfigCrc, PayloadCrc;
  if (!R.u32(FileMagic) || !R.u32(Version) || !R.u32(ImageCrc) ||
      !R.u32(ConfigCrc) || !R.u32(PayloadCrc))
    return Bad("truncated header");
  if (FileMagic != Magic)
    return Bad("bad magic");
  if (Version != FormatVersion)
    return Bad("format version mismatch");
  if (ImageCrc != Key.ImageCrc || ConfigCrc != Key.ConfigCrc)
    return Bad("stale cache key");
  constexpr size_t HeaderBytes = 5 * 4;
  if (crc32c(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes) !=
      PayloadCrc)
    return Bad("payload checksum mismatch");

  uint32_t NumBlocks;
  if (!R.u32(NumBlocks))
    return Bad("truncated block count");
  if (NumBlocks > MaxBlocks)
    return Bad("block count out of range");

  CodeCache::Image Img;
  Img.Entries.reserve(NumBlocks);
  for (uint32_t I = 0; I < NumBlocks; ++I) {
    uint32_t GuestPc, Asid, NumGuest, NumMem, NumSys, NumIrq;
    uint8_t MmuIdx, DefFlags, Reserved, Pad;
    if (!R.u32(GuestPc) || !R.u8(MmuIdx) || !R.u8(DefFlags) ||
        !R.u8(Reserved) || !R.u8(Pad) || !R.u32(Asid) ||
        !R.u32(NumGuest) || !R.u32(NumMem) || !R.u32(NumSys) ||
        !R.u32(NumIrq))
      return Bad("truncated block header");
    if (MmuIdx > 1 || DefFlags > 1 || Reserved != 0 || Pad != 0)
      return Bad("block header field out of range");
    if (Asid > 0xFF)
      return Bad("ASID out of range");
    if (NumGuest == 0 || NumGuest > MaxGuestInstrsPerTb)
      return Bad("guest instruction count out of range");

    auto B = std::make_shared<host::HostBlock>();
    B->GuestPc = GuestPc;
    B->NumGuestInstrs = NumGuest;
    B->NumMemInstrs = NumMem;
    B->NumSysInstrs = NumSys;
    B->NumIrqChecks = NumIrq;
    B->DefinesFlagsBeforeUse = DefFlags != 0;
    for (host::HostBlock::Chain &Ch : B->Chains) {
      if (!R.u32(Ch.GuestTarget) || !R.i32(Ch.FlagSaveBegin) ||
          !R.i32(Ch.FlagSaveEnd))
        return Bad("truncated chain record");
      Ch.TargetTb = -1;
    }
    B->GuestWords.resize(NumGuest);
    for (uint32_t &W : B->GuestWords)
      if (!R.u32(W))
        return Bad("truncated guest words");

    uint32_t NumCode;
    if (!R.u32(NumCode))
      return Bad("truncated code length");
    if (NumCode == 0 || NumCode > MaxCodeLen)
      return Bad("code length out of range");
    B->Code.resize(NumCode);
    std::string Why;
    for (host::HInst &H : B->Code)
      if (!readInst(R, NumCode, H, Why))
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
    for (const host::HostBlock::Chain &Ch : B->Chains) {
      const bool NoRange = Ch.FlagSaveBegin == -1 && Ch.FlagSaveEnd == -1;
      const bool GoodRange = Ch.FlagSaveBegin >= 0 &&
                             Ch.FlagSaveBegin <= Ch.FlagSaveEnd &&
                             Ch.FlagSaveEnd <= static_cast<int32_t>(NumCode);
      if (!NoRange && !GoodRange)
        return Bad("flag-save range out of range");
    }

    CodeCache::Entry E;
    E.Key = CodeCache::key(GuestPc, MmuIdx, Asid);
    E.Asid = Asid;
    E.FirstPage = GuestPc >> 12;
    E.LastPage = (GuestPc + NumGuest * 4 - 1) >> 12;
    E.Block = std::move(B);

    const int Id = static_cast<int>(Img.Entries.size());
    if (!Img.Index.emplace(E.Key, Id).second)
      return Bad("duplicate block key");
    for (uint32_t P = E.FirstPage; P <= E.LastPage; ++P)
      Img.PageIndex[P].push_back(Id);
    Img.AsidIndex[E.Asid].push_back(Id);
    Img.SeenKeys.insert(E.Key);
    Img.Entries.push_back(std::move(E));
  }
  if (!R.done())
    return Bad("trailing bytes after last block");

  Img.BaseId = 0;
  Img.LiveBlocks = Img.Entries.size();
  Img.Stats = CacheStats(); // provenance only; counters restart at zero
  Out = std::move(Img);
  return CacheLoad::Hit;
}

//===----------------------------------------------------------------------===//
// TranslationStore
//===----------------------------------------------------------------------===//

bool TranslationStore::lookup(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid,
                              const std::vector<uint32_t> &Words,
                              host::HostBlock &Out) const {
  if (!Img_)
    return false;
  const auto It = Img_->Index.find(CodeCache::key(Pc, MmuIdx, Asid));
  if (It == Img_->Index.end())
    return false;
  const size_t Idx = static_cast<size_t>(It->second - Img_->BaseId);
  if (Idx >= Img_->Entries.size())
    return false;
  const auto &Block = Img_->Entries[Idx].Block;
  if (!Block || Block->GuestWords != Words)
    return false;
  Out = *Block;
  return true;
}
