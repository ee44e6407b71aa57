//===- sys/Platform.cpp - Guest physical memory, devices, clock -----------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "sys/Platform.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace rdbt;
using namespace rdbt::sys;

static const PhysMem::Page ZeroPage = {};

const uint8_t *PhysMem::zeroPage() { return ZeroPage.Bytes; }

// Every entry aliases the zero page with no control block, so filling the
// table, and copying it into a fork, touches no reference count for it.
PhysMem::PhysMem(uint32_t Size)
    : RamBytes(Size), Pages((Size + PageBytes - 1) >> PageShift,
                            PageRef(PageRef(), &ZeroPage)),
      ReadPtrs(Pages.size(), ZeroPage.Bytes),
      WritePtrs(Pages.size(), nullptr), Flags(Pages.size(), 0) {}

PhysMem::PhysMem(const Image &Img)
    : RamBytes(Img.Size), Pages(Img.Pages), ReadPtrs(Pages.size()),
      WritePtrs(Pages.size(), nullptr), Flags(Pages.size(), 0), Fork(true) {
  for (size_t Pn = 0; Pn < Pages.size(); ++Pn)
    ReadPtrs[Pn] = Pages[Pn]->Bytes;
}

uint8_t *PhysMem::pageForWrite(uint32_t Pn) {
  uint8_t &F = Flags[Pn];
  if (!(F & Owned)) {
    Pages[Pn] = std::make_shared<Page>(*Pages[Pn]);
    ReadPtrs[Pn] = Pages[Pn]->Bytes;
    F |= Owned;
    PrivatePages += Fork;
  }
  // Owned: allocated mutable just above, and no other table refers to it.
  uint8_t *Bytes = const_cast<uint8_t *>(Pages[Pn]->Bytes);
  if (F & Walked)
    ++WalkGen;
  else
    WritePtrs[Pn] = Bytes;
  return Bytes;
}

void PhysMem::writeBlock(uint32_t Pa, const void *Src, uint32_t Len) {
  assert(contains(Pa, Len) && "physical block write out of RAM");
  const uint8_t *From = static_cast<const uint8_t *>(Src);
  while (Len) {
    const uint32_t Off = Pa & (PageBytes - 1);
    const uint32_t Chunk = Len < PageBytes - Off ? Len : PageBytes - Off;
    std::memcpy(pageForWrite(Pa >> PageShift) + Off, From, Chunk);
    Pa += Chunk;
    From += Chunk;
    Len -= Chunk;
  }
}

void PhysMem::readBlock(uint32_t Pa, void *Dst, uint32_t Len) const {
  assert(contains(Pa, Len) && "physical block read out of RAM");
  uint8_t *To = static_cast<uint8_t *>(Dst);
  while (Len) {
    const uint32_t Off = Pa & (PageBytes - 1);
    const uint32_t Chunk = Len < PageBytes - Off ? Len : PageBytes - Off;
    std::memcpy(To, page(Pa >> PageShift) + Off, Chunk);
    Pa += Chunk;
    To += Chunk;
    Len -= Chunk;
  }
}

void PhysMem::loadWords(uint32_t Pa, const std::vector<uint32_t> &Words) {
  writeBlock(Pa, Words.data(), static_cast<uint32_t>(Words.size() * 4));
}

std::shared_ptr<const PhysMem::Image> PhysMem::capture() {
  auto Img = std::make_shared<const Image>(Image{RamBytes, Pages});
  for (uint8_t &F : Flags)
    F &= ~Owned;
  std::fill(WritePtrs.begin(), WritePtrs.end(), nullptr);
  return Img;
}

Device::~Device() = default;

//===----------------------------------------------------------------------===//
// IntController
//===----------------------------------------------------------------------===//

uint32_t IntController::mmioRead(uint32_t Offset) {
  switch (Offset) {
  case RegPending:
    return pending();
  case RegEnable:
    return Enabled;
  case RegRaw:
    return Raw;
  default:
    return 0;
  }
}

void IntController::mmioWrite(uint32_t Offset, uint32_t Value) {
  switch (Offset) {
  case RegEnable:
    Enabled = Value;
    break;
  case RegAck:
    Raw &= ~(1u << (Value & 31));
    break;
  default:
    break;
  }
  Parent.refreshIrq();
}

void IntController::raise(uint32_t Line) {
  Raw |= 1u << Line;
  Parent.refreshIrq();
}

void IntController::clear(uint32_t Line) {
  Raw &= ~(1u << Line);
  Parent.refreshIrq();
}

//===----------------------------------------------------------------------===//
// Uart
//===----------------------------------------------------------------------===//

uint32_t Uart::mmioRead(uint32_t) { return 0; }

void Uart::mmioWrite(uint32_t Offset, uint32_t Value) {
  if (Offset == RegTx)
    Output.push_back(static_cast<char>(Value & 0xFF));
  else if (Offset == RegShutdown)
    Parent.ShutdownRequested = true;
}

//===----------------------------------------------------------------------===//
// TimerDevice
//===----------------------------------------------------------------------===//

uint32_t TimerDevice::mmioRead(uint32_t Offset) {
  switch (Offset) {
  case RegCtrl:
    return Enabled ? 1u : 0u;
  case RegInterval:
    return Interval;
  case RegCount:
    return static_cast<uint32_t>(Parent.now());
  default:
    return 0;
  }
}

void TimerDevice::mmioWrite(uint32_t Offset, uint32_t Value) {
  switch (Offset) {
  case RegCtrl:
    Enabled = (Value & 1) != 0;
    Deadline = Enabled && Interval ? Parent.now() + Interval : ~0ull;
    break;
  case RegInterval:
    Interval = Value;
    if (Enabled && Interval)
      Deadline = Parent.now() + Interval;
    break;
  default:
    return;
  }
  Parent.refreshDeadline();
}

uint64_t TimerDevice::nextDeadline() const { return Deadline; }

void TimerDevice::onDeadline() {
  ++Ticks;
  Parent.intc().raise(IrqLineTimer);
  Deadline = Interval ? Parent.now() + Interval : ~0ull;
  Parent.refreshDeadline();
}

//===----------------------------------------------------------------------===//
// DiskDevice
//===----------------------------------------------------------------------===//

uint32_t DiskDevice::mmioRead(uint32_t Offset) {
  switch (Offset) {
  case RegSector:
    return Sector;
  case RegDmaAddr:
    return DmaAddr;
  case RegCount:
    return Count;
  case RegStatus:
    return PendingCmd ? 1u : 0u;
  default:
    return 0;
  }
}

void DiskDevice::mmioWrite(uint32_t Offset, uint32_t Value) {
  switch (Offset) {
  case RegSector:
    Sector = Value;
    break;
  case RegDmaAddr:
    DmaAddr = Value;
    break;
  case RegCount:
    Count = Value ? Value : 1;
    break;
  case RegCmd:
    if (PendingCmd || (Value != CmdRead && Value != CmdWrite))
      return;
    PendingCmd = Value;
    Deadline = Parent.now() + Latency * Count;
    Parent.refreshDeadline();
    break;
  default:
    break;
  }
}

uint64_t DiskDevice::nextDeadline() const { return Deadline; }

void DiskDevice::onDeadline() {
  // Checked in sectors, so that no product or sum wraps in 32 bits. A
  // transfer out of range moves nothing but still completes.
  const uint32_t NumSectors = Media->size() / SectorSize;
  if (Sector < NumSectors && Count <= NumSectors - Sector &&
      Parent.Ram.contains(DmaAddr, Count * SectorSize)) {
    for (uint32_t I = 0; I < Count; ++I) {
      const uint32_t Off = (Sector + I) * SectorSize;
      const uint32_t Pa = DmaAddr + I * SectorSize;
      if (PendingCmd == CmdRead) {
        Parent.Ram.writeBlock(Pa,
                              Media->page(Off >> PhysMem::PageShift) +
                                  (Off & (PhysMem::PageBytes - 1)),
                              SectorSize);
      } else {
        uint8_t Bytes[SectorSize];
        Parent.Ram.readBlock(Pa, Bytes, SectorSize);
        Media->writeBlock(Off, Bytes, SectorSize);
      }
    }
  }
  PendingCmd = 0;
  Deadline = ~0ull;
  Parent.refreshDeadline();
  Parent.intc().raise(IrqLineDisk);
}

//===----------------------------------------------------------------------===//
// Platform
//===----------------------------------------------------------------------===//

Platform::Platform(uint32_t RamSize, uint32_t DiskSectors,
                   uint64_t DiskLatency)
    : Ram(RamSize) {
  initBoard(DiskSectors, DiskLatency);
}

// A disk of zero sectors allocates no table; restoreState() then adopts the
// captured one.
Platform::Platform(const PhysMem::Image &RamImage, const PlatformState &State)
    : Ram(RamImage) {
  initBoard(/*DiskSectors=*/0, State.DiskLatency);
  restoreState(State);
}

void Platform::initBoard(uint32_t DiskSectors, uint64_t DiskLatency) {
  resetEnv(Env);
  UartDev = std::make_unique<Uart>(*this, MmioUart);
  Intc = std::make_unique<IntController>(*this, MmioIntc);
  Timer = std::make_unique<TimerDevice>(*this, MmioTimer);
  Disk = std::make_unique<DiskDevice>(*this, MmioDisk, DiskSectors,
                                      DiskLatency);
  Devices[0] = UartDev.get();
  Devices[1] = Intc.get();
  Devices[2] = Timer.get();
  Devices[3] = Disk.get();
  refreshDeadline();
}

void Platform::refreshIrq() {
  Env.IrqPending = Intc->pending() ? 1u : 0u;
  if (Env.IrqPending && !Env.IrqDisabled)
    Env.ExitRequest = 1;
}

void Platform::serviceDeadlines() {
  // Devices may re-arm inside onDeadline(), so sweep until none is due.
  for (bool Fired = true; Fired;) {
    Fired = false;
    for (Device *D : Devices) {
      if (D->nextDeadline() <= Now) {
        D->onDeadline();
        Fired = true;
      }
    }
  }
}

void Platform::refreshDeadline() {
  uint64_t Min = ~0ull;
  for (const Device *D : Devices)
    Min = D->nextDeadline() < Min ? D->nextDeadline() : Min;
  NextDue = Min;
}

uint64_t Platform::fastForward() {
  const uint64_t Deadline = nextDeadline();
  if (Deadline == ~0ull || Deadline <= Now)
    return 0;
  const uint64_t Skipped = Deadline - Now;
  advance(Skipped);
  return Skipped;
}

void Platform::captureState(PlatformState &S) {
  UartDev->saveState(S);
  Intc->saveState(S);
  Timer->saveState(S);
  Disk->saveState(S);
  S.Now = Now;
  S.ShutdownRequested = ShutdownRequested;
}

void Platform::restoreState(const PlatformState &S) {
  UartDev->loadState(S);
  Intc->loadState(S);
  Timer->loadState(S);
  Disk->loadState(S);
  Now = S.Now;
  ShutdownRequested = S.ShutdownRequested;
  refreshDeadline();
}

Device *Platform::deviceAt(uint32_t Pa) {
  for (Device *D : Devices)
    if (Pa >= D->base() && Pa < D->base() + 0x1000)
      return D;
  return nullptr;
}

bool Platform::physRead(uint32_t Pa, unsigned Size, uint32_t &Value) {
  if (isIoPage(Pa)) {
    Device *D = deviceAt(Pa);
    if (!D)
      return false;
    Value = D->mmioRead(Pa - D->base());
    return true;
  }
  if (!Ram.contains(Pa, Size))
    return false;
  Value = Ram.read(Pa, Size);
  return true;
}

bool Platform::physWrite(uint32_t Pa, unsigned Size, uint32_t Value) {
  if (isIoPage(Pa)) {
    Device *D = deviceAt(Pa);
    if (!D)
      return false;
    D->mmioWrite(Pa - D->base(), Value);
    return true;
  }
  if (!Ram.contains(Pa, Size))
    return false;
  Ram.write(Pa, Size, Value);
  return true;
}
