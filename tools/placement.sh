#!/bin/sh
# Prints where the executor's hot functions sit in a binary: the nm address
# of each modulo 64, the fetch-window offset that has moved ns per guest
# instruction by several percent when unrelated code changed size
# (EXPERIMENTS.md). Informational: it always exits 0.
#
#   tools/placement.sh build/rdbt_scenarios
#
# A function missing from the binary prints "absent".

Binary=${1:-build/rdbt_scenarios}
if ! command -v nm > /dev/null 2>&1 || [ ! -f "$Binary" ]; then
  echo "placement: cannot read symbols of $Binary" >&2
  exit 0
fi
Symbols=$(nm -C "$Binary" 2> /dev/null)
for Name in rdbt::host::HostMachine::run rdbt::sys::Interpreter::stepAt \
  rdbt::sys::Interpreter::executeGrouped rdbt::sys::Mmu::fetchWord; do
  Addr=$(printf '%s\n' "$Symbols" |
    awk -v n="$Name(" '$2 ~ /^[Tt]$/ && index($0, n) && $0 !~ /\[clone/ { print $1; exit }')
  if [ -n "$Addr" ]; then
    printf '%-40s %s mod 64 = %d\n' "$Name" "$Addr" $((0x$Addr % 64))
  else
    printf '%-40s absent\n' "$Name"
  fi
done
exit 0
