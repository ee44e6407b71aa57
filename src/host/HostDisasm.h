//===- host/HostDisasm.h - Host code disassembler ---------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders generated host code in an x86-flavoured syntax, annotated with
/// the cost class of each instruction — the tool behind the
/// compare_translators example and the translator debug dumps.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_HOST_HOSTDISASM_H
#define RDBT_HOST_HOSTDISASM_H

#include "host/HostInst.h"

#include <string>

namespace rdbt {
namespace host {

/// One instruction, e.g. "add %h3, %h5".
std::string disassemble(const HInst &H);

/// A whole block, one line per instruction with index and class tag.
std::string disassembleBlock(const HostBlock &B);

} // namespace host
} // namespace rdbt

#endif // RDBT_HOST_HOSTDISASM_H
