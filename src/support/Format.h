//===- support/Format.h - String formatting helpers -------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal printf-backed string formatting used by the disassemblers and
/// statistics printers. Library code returns std::string instead of writing
/// to iostreams (which are banned from library code by the coding
/// standards); tools decide where the text goes.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_SUPPORT_FORMAT_H
#define RDBT_SUPPORT_FORMAT_H

#include <cstdarg>
#include <cstdio>
#include <string>

namespace rdbt {

/// printf-style formatting into a std::string.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
inline std::string
format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Buffer[512];
  const int Len = std::vsnprintf(Buffer, sizeof(Buffer), Fmt, Args);
  va_end(Args);
  if (Len <= 0)
    return std::string();
  return std::string(Buffer, static_cast<size_t>(
                                 Len < static_cast<int>(sizeof(Buffer))
                                     ? Len
                                     : sizeof(Buffer) - 1));
}

} // namespace rdbt

#endif // RDBT_SUPPORT_FORMAT_H
