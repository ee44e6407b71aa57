//===- sys/Platform.h - Guest physical memory, devices, clock ---*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The emulated board: guest RAM, the MMIO device set (UART console,
/// interrupt controller, periodic timer, DMA block device), and the
/// virtual wall clock that drives asynchronous interrupts.
///
/// The wall clock advances with emulation cost (host instructions
/// executed), so a slower translator observes proportionally more timer
/// interrupts per guest instruction — as on real hardware. Device
/// latencies (disk) are wall-clock deadlines, which is what makes the
/// I/O-bound workloads of Fig. 19 insensitive to translator quality.
///
/// The board caches the earliest device deadline, refreshed whenever a
/// device arms or disarms, so the per-instruction advance() of the
/// interpreter is one compare until a deadline is due.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_SYS_PLATFORM_H
#define RDBT_SYS_PLATFORM_H

#include "support/Bits.h"
#include "sys/Env.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rdbt {
namespace sys {

/// The board's one copy-on-write store: guest RAM starting at physical
/// address 0, and the disk's media (DiskDevice), each held as a table of
/// refcounted immutable 4 KiB pages plus one flag byte and two host
/// pointers per page.
///
///  * A fresh table points every entry at one process-wide zero page.
///  * A write privatizes its page first unless this PhysMem owns it (the
///    Owned flag): it copies the page into one only this table references.
///  * capture() copies the page pointers, not the bytes, and clears every
///    Owned flag, so the next write on either side clones that page. A
///    fork (the Image constructor) adopts a captured table.
///
/// A page another table or Image may reference is never written, so any
/// number of boards read one Image concurrently (vm/Snapshot.h rides on
/// this). Naturally-aligned 1/2/4-byte accesses, and 512-byte disk
/// sectors, never cross a page; the block operations split per page.
///
/// The rest concerns RAM; on a disk the walk marks and pointers stay unused.
/// An MMU table walk marks every RAM page it reads (markWalked), and a
/// write to a marked page bumps walkGeneration(), also when it privatizes
/// the page. The Mmu's fetch memo compares that generation, so a
/// page-table edit voids it with no TLB maintenance.
///
/// Hot paths that know they hit RAM (translated code, softmmu TLB hits,
/// the interpreter's fetch) go through the pointers, not through
/// Platform::physRead/physWrite. Every page has a read pointer, to its
/// current bytes. A page has a write pointer only while it is Owned and
/// not walk-marked; otherwise it is null and a write takes the slow path
/// (pageForWrite), which privatizes the page or bumps the generation. The
/// two constructors, pageForWrite, capture() and markWalked maintain the
/// pointers, so neither copy-on-write nor the walk marks need a check on
/// the fast path.
class PhysMem {
public:
  enum : uint32_t { PageBytes = 4096, PageShift = 12 };

  struct Page { uint8_t Bytes[PageBytes]; };
  using PageRef = std::shared_ptr<const Page>;

  /// A captured table: its size and pages, shared read-only.
  struct Image {
    uint32_t Size = 0;
    std::vector<PageRef> Pages;
  };

  /// A fresh, all-zero table of \p Size bytes.
  explicit PhysMem(uint32_t Size);

  /// A fork of \p Img: adopts its page table, owning no page.
  explicit PhysMem(const Image &Img);

  /// Neither copyable nor assignable: a copy would share owned pages, and
  /// replacing the contents under a live Mmu would restart
  /// walkGeneration() and revive stale fetch-memo entries.
  PhysMem(const PhysMem &) = delete;
  PhysMem &operator=(const PhysMem &) = delete;

  uint32_t size() const { return RamBytes; }

  bool contains(uint32_t Pa, uint32_t Len) const {
    return Pa + Len <= size() && Pa + Len >= Pa;
  }

  /// Reads a naturally-aligned 1/2/4-byte value (little endian).
  uint32_t read(uint32_t Pa, unsigned Size) const {
    assert(contains(Pa, Size) && "physical read out of RAM");
    return loadLe(page(Pa >> PageShift) + (Pa & (PageBytes - 1)), Size);
  }
  void write(uint32_t Pa, unsigned Size, uint32_t Value) {
    assert(contains(Pa, Size) && "physical write out of RAM");
    uint8_t *P = WritePtrs[Pa >> PageShift];
    if (!P)
      P = pageForWrite(Pa >> PageShift);
    storeLe(P + (Pa & (PageBytes - 1)), Size, Value);
  }

  void writeBlock(uint32_t Pa, const void *Src, uint32_t Len);
  void readBlock(uint32_t Pa, void *Dst, uint32_t Len) const;

  /// Loads a word image (e.g. AsmBuilder::finish output) at \p Pa.
  void loadWords(uint32_t Pa, const std::vector<uint32_t> &Words);

  /// The current bytes of page \p Pn, read in place. Valid up to the next
  /// write; the last page of a RAM size that is not a page multiple holds
  /// only size() - (Pn << PageShift) bytes.
  const uint8_t *page(uint32_t Pn) const { return ReadPtrs[Pn]; }

  /// The host pointer tables, one entry per page, for code outside sys/
  /// (host::PhysPort). The tables never move; their entries change as
  /// described above. A null write pointer means: write through write().
  const uint8_t *const *readPointers() const { return ReadPtrs.data(); }
  uint8_t *const *writePointers() const { return WritePtrs.data(); }
  uint32_t numPages() const { return static_cast<uint32_t>(Pages.size()); }

  /// The process-wide zero page every untouched entry points at.
  static const uint8_t *zeroPage();

  // --- Copy-on-write forking (vm/Snapshot.h) ------------------------------

  /// Freezes the current contents: shares every page with the returned
  /// Image and gives up ownership of them, so the next write to a page
  /// clones it.
  std::shared_ptr<const Image> capture();

  /// Pages privatized by writes since the fork (its working set); 0 on a
  /// fresh board.
  uint64_t cowPrivatePages() const { return PrivatePages; }

  // --- Walk marks (sys/Mmu.h fetch memo) ----------------------------------

  /// Marks the page holding \p Pa as read by an MMU table walk, so every
  /// later write to it takes the slow path.
  void markWalked(uint32_t Pa) {
    Flags[Pa >> PageShift] |= Walked;
    WritePtrs[Pa >> PageShift] = nullptr;
  }
  /// Bumped by every write to a marked page.
  uint64_t walkGeneration() const { return WalkGen; }

private:
  enum : uint8_t { Owned = 1, Walked = 2 };

  uint32_t RamBytes;
  std::vector<PageRef> Pages;
  std::vector<const uint8_t *> ReadPtrs; ///< Pages[Pn]->Bytes
  std::vector<uint8_t *> WritePtrs;      ///< the same if Owned & !Walked
  std::vector<uint8_t> Flags; ///< Owned | Walked, one byte per page
  const bool Fork = false;    ///< counts privatizations (cowPrivatePages)
  uint64_t PrivatePages = 0;
  uint64_t WalkGen = 0;

  /// The bytes of page \p Pn, privatized first unless owned; bumps
  /// WalkGen if the page is walk-marked, and otherwise hands out its
  /// write pointer.
  uint8_t *pageForWrite(uint32_t Pn);
};

class Platform;

/// Frozen device-and-clock state of one board, captured by
/// Platform::captureState() and re-applied by Platform::restoreState()
/// (the device half of a vm::Snapshot). The disk media is a captured
/// PhysMem table, exactly as RAM is: a board that adopts it clones a
/// page only when the guest writes a sector on it.
struct PlatformState {
  // IntController
  uint32_t IntcRaw = 0, IntcEnabled = 0;
  // Uart
  std::string UartOutput;
  // TimerDevice
  bool TimerEnabled = false;
  uint32_t TimerInterval = 0;
  uint64_t TimerDeadline = ~0ull;
  uint64_t TimerTicks = 0;
  // DiskDevice
  std::shared_ptr<const PhysMem::Image> DiskMedia;
  uint64_t DiskLatency = 0;
  uint32_t DiskSector = 0, DiskDmaAddr = 0, DiskCount = 1;
  uint32_t DiskPendingCmd = 0;
  uint64_t DiskDeadline = ~0ull;
  // Board
  uint64_t Now = 0;
  bool ShutdownRequested = false;
};

/// Base class for MMIO devices. Each device occupies a 4 KiB page.
class Device {
public:
  Device(Platform &P, uint32_t Base) : Parent(P), BaseAddr(Base) {}
  virtual ~Device();

  uint32_t base() const { return BaseAddr; }
  virtual const char *name() const = 0;
  virtual uint32_t mmioRead(uint32_t Offset) = 0;
  virtual void mmioWrite(uint32_t Offset, uint32_t Value) = 0;
  /// Earliest wall-clock time this device needs service, or ~0ull. A
  /// device that changes it calls Platform::refreshDeadline().
  virtual uint64_t nextDeadline() const { return ~0ull; }
  /// Called when the wall clock reaches nextDeadline().
  virtual void onDeadline() {}

protected:
  Platform &Parent;
  uint32_t BaseAddr;
};

/// Interrupt lines.
enum : uint32_t { IrqLineTimer = 0, IrqLineUart = 1, IrqLineDisk = 2 };

/// A minimal level-triggered interrupt controller.
class IntController : public Device {
public:
  enum : uint32_t { RegPending = 0x0, RegEnable = 0x4, RegAck = 0x8,
                    RegRaw = 0xC };

  using Device::Device;
  const char *name() const override { return "intc"; }
  uint32_t mmioRead(uint32_t Offset) override;
  void mmioWrite(uint32_t Offset, uint32_t Value) override;

  void raise(uint32_t Line);
  void clear(uint32_t Line);
  /// Raw & Enabled.
  uint32_t pending() const { return Raw & Enabled; }

  void saveState(PlatformState &S) const {
    S.IntcRaw = Raw;
    S.IntcEnabled = Enabled;
  }
  /// Sets the lines directly; the caller restores Env.IrqPending itself
  /// (it is part of the captured CpuEnv), so no refreshIrq here.
  void loadState(const PlatformState &S) {
    Raw = S.IntcRaw;
    Enabled = S.IntcEnabled;
  }

private:
  uint32_t Raw = 0;
  uint32_t Enabled = 0;
};

/// Console UART. TX bytes accumulate into \ref output(). Nothing feeds
/// RX, so every register reads as zero (no byte, status idle).
class Uart : public Device {
public:
  enum : uint32_t { RegTx = 0x0, RegRx = 0x4, RegStatus = 0x8,
                    RegShutdown = 0xC };

  using Device::Device;
  const char *name() const override { return "uart"; }
  uint32_t mmioRead(uint32_t Offset) override;
  void mmioWrite(uint32_t Offset, uint32_t Value) override;

  const std::string &output() const { return Output; }

  void saveState(PlatformState &S) const { S.UartOutput = Output; }
  void loadState(const PlatformState &S) { Output = S.UartOutput; }

private:
  std::string Output;
};

/// Periodic timer raising IrqLineTimer every `Interval` wall cycles.
class TimerDevice : public Device {
public:
  enum : uint32_t { RegCtrl = 0x0, RegInterval = 0x4, RegCount = 0x8 };

  using Device::Device;
  const char *name() const override { return "timer"; }
  uint32_t mmioRead(uint32_t Offset) override;
  void mmioWrite(uint32_t Offset, uint32_t Value) override;
  uint64_t nextDeadline() const override;
  void onDeadline() override;

  uint64_t ticks() const { return Ticks; }

  void saveState(PlatformState &S) const {
    S.TimerEnabled = Enabled;
    S.TimerInterval = Interval;
    S.TimerDeadline = Deadline;
    S.TimerTicks = Ticks;
  }
  void loadState(const PlatformState &S) {
    Enabled = S.TimerEnabled;
    Interval = S.TimerInterval;
    Deadline = S.TimerDeadline;
    Ticks = S.TimerTicks;
  }

private:
  bool Enabled = false;
  uint32_t Interval = 0;
  uint64_t Deadline = ~0ull;
  uint64_t Ticks = 0;
};

/// DMA block device with a wall-clock access latency. Sector size 512.
///
/// The media is a PhysMem of NumSectors * SectorSize bytes, like RAM: a
/// blank disk points every entry at the zero page, saveState() captures the
/// table, loadState() and adoptMedia() adopt one as a RAM fork does, and a
/// sector write privatizes only the 4 KiB page it lands on.
class DiskDevice : public Device {
public:
  enum : uint32_t {
    RegSector = 0x0,
    RegDmaAddr = 0x4,
    RegCount = 0x8,
    RegCmd = 0xC,
    RegStatus = 0x10,
  };
  enum : uint32_t { CmdRead = 1, CmdWrite = 2 };
  enum : uint32_t { SectorSize = 512, DefaultSectors = 4096 };

  /// A blank disk of \p NumSectors sectors.
  DiskDevice(Platform &P, uint32_t Base, uint32_t NumSectors,
             uint64_t LatencyPerSector)
      : Device(P, Base), Media(std::in_place, NumSectors * SectorSize),
        Latency(LatencyPerSector) {}

  const char *name() const override { return "disk"; }
  uint32_t mmioRead(uint32_t Offset) override;
  void mmioWrite(uint32_t Offset, uint32_t Value) override;
  uint64_t nextDeadline() const override;
  void onDeadline() override;

  /// Host-side access to the media, for preloading and inspecting images.
  PhysMem &media() { return *Media; }

  /// Replaces the media by a fork of \p Img: no page is copied, and the
  /// device never writes a page \p Img holds.
  void adoptMedia(const PhysMem::Image &Img) { Media.emplace(Img); }

  void saveState(PlatformState &S) {
    S.DiskMedia = Media->capture();
    S.DiskLatency = Latency;
    S.DiskSector = Sector;
    S.DiskDmaAddr = DmaAddr;
    S.DiskCount = Count;
    S.DiskPendingCmd = PendingCmd;
    S.DiskDeadline = Deadline;
  }
  void loadState(const PlatformState &S) {
    adoptMedia(*S.DiskMedia);
    Latency = S.DiskLatency;
    Sector = S.DiskSector;
    DmaAddr = S.DiskDmaAddr;
    Count = S.DiskCount;
    PendingCmd = S.DiskPendingCmd;
    Deadline = S.DiskDeadline;
  }

private:
  /// Always engaged: optional only so that adoptMedia() can rebuild the
  /// table in place, since a PhysMem is not assignable.
  std::optional<PhysMem> Media;
  uint64_t Latency;
  uint32_t Sector = 0, DmaAddr = 0, Count = 1;
  uint32_t PendingCmd = 0;
  uint64_t Deadline = ~0ull;
};

/// MMIO window layout.
enum : uint32_t {
  MmioBase = 0xF0000000u,
  MmioUart = 0xF0000000u,
  MmioIntc = 0xF0001000u,
  MmioTimer = 0xF0002000u,
  MmioDisk = 0xF0003000u,
  MmioLimit = 0xF0004000u,
};

/// The whole board: env + RAM + devices + wall clock.
class Platform {
public:
  /// \p RamSize guest RAM bytes; \p DiskSectors size of the block device;
  /// \p DiskLatency wall cycles per sector access.
  explicit Platform(uint32_t RamSize,
                    uint32_t DiskSectors = DiskDevice::DefaultSectors,
                    uint64_t DiskLatency = 50000);

  /// Fork construction: RAM adopts the page table of \p RamImage (see
  /// PhysMem), then restoreState(\p State); the disk adopts its media
  /// with no blank table built first. Env still resets; the caller
  /// applies a captured CpuEnv on top (vm/Snapshot.h).
  Platform(const PhysMem::Image &RamImage, const PlatformState &State);

  CpuEnv Env;
  PhysMem Ram;
  /// Set when the guest writes the UART shutdown register (the guest
  /// kernel's "power off"); the engine stops cleanly.
  bool ShutdownRequested = false;

  Uart &uart() { return *UartDev; }
  IntController &intc() { return *Intc; }
  TimerDevice &timer() { return *Timer; }
  DiskDevice &disk() { return *Disk; }

  // --- Wall clock ---------------------------------------------------------

  uint64_t now() const { return Now; }
  /// Advances the wall clock and services due device deadlines. While no
  /// deadline is due this is one compare against the cached deadline.
  void advance(uint64_t Cycles) {
    Now += Cycles;
    if (Now >= NextDue)
      serviceDeadlines();
  }
  /// Earliest pending device deadline (~0ull if none). A cached value:
  /// TimerDevice and DiskDevice call refreshDeadline() whenever they arm
  /// or disarm, and initBoard/restoreState recompute it.
  uint64_t nextDeadline() const { return NextDue; }
  /// Recomputes nextDeadline() from the devices.
  void refreshDeadline();
  /// Jumps the clock to the next deadline (WFI sleep). Returns the number
  /// of cycles skipped.
  uint64_t fastForward();

  /// Recomputes Env.IrqPending/ExitRequest from controller state. Called
  /// by devices and by the CPSR-write paths that unmask IRQs.
  void refreshIrq();

  // --- Snapshot support (vm/Snapshot.h) -----------------------------------

  /// Freezes every device register, the disk media (PhysMem::capture():
  /// shared, not copied), the wall clock, and the shutdown latch into \p S.
  /// RAM and CpuEnv are captured separately (PhysMem::capture(), the Env
  /// member).
  void captureState(PlatformState &S);

  /// Re-applies a captured device state. The caller restores Env and RAM
  /// itself; nothing here touches Env, so restore order does not matter.
  void restoreState(const PlatformState &S);

  // --- Physical address space ---------------------------------------------

  bool isIoPage(uint32_t Pa) const {
    return Pa >= MmioBase && Pa < MmioLimit;
  }
  /// Physical read/write with MMIO routing. Returns false for holes.
  bool physRead(uint32_t Pa, unsigned Size, uint32_t &Value);
  bool physWrite(uint32_t Pa, unsigned Size, uint32_t Value);

private:
  friend class IntController;

  std::unique_ptr<Uart> UartDev;
  std::unique_ptr<IntController> Intc;
  std::unique_ptr<TimerDevice> Timer;
  std::unique_ptr<DiskDevice> Disk;
  Device *Devices[4];
  uint64_t Now = 0;
  uint64_t NextDue = ~0ull; ///< min of the devices' nextDeadline()

  void initBoard(uint32_t DiskSectors, uint64_t DiskLatency);
  /// Fires every device whose deadline is due, until none is.
  void serviceDeadlines();
  Device *deviceAt(uint32_t Pa);
};

} // namespace sys
} // namespace rdbt

#endif // RDBT_SYS_PLATFORM_H
