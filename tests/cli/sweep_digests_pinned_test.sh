#!/bin/sh
# Pins the engine's output bytes across commits. Every other byte-identity
# test compares two outputs of the same binary, so an engine change that
# alters results passes them all; this one compares sha256 digests of the
# packaged sweep (serial, parallel, rebuild-per-run worlds), the three
# family sweeps and a seeded family search against digests recorded from
# an earlier build.
#
# When a change alters these outputs on purpose, re-record the digests from
# the new binary in the same change and say why in CHANGES.md. A digest
# that differs only on another compiler or standard library is a
# determinism bug, not a reason to re-record.
#
# Usage: sweep_digests_pinned_test.sh /path/to/epa_cli
set -eu

cli=$1
[ -x "$cli" ] || {
  echo "no epa_cli at '$cli'" >&2
  exit 2
}
if command -v sha256sum >/dev/null 2>&1; then
  digest() { sha256sum "$1" | cut -c1-64; }
else
  digest() { shasum -a 256 "$1" | cut -c1-64; }
fi

out=cli_digests.out
mismatches=0
# check WANT ARGS...: run epa_cli ARGS (exit 0, or 3 for findings) and
# compare the digest of its stdout with WANT.
check() {
  want=$1
  shift
  rc=0
  "$cli" "$@" > "$out" 2> /dev/null || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    echo "DIGEST_RUN_FAILED: epa_cli $* exited $rc"
    mismatches=$((mismatches + 1))
    return
  fi
  got=$(digest "$out")
  if [ "$got" != "$want" ]; then
    echo "DIGEST_MISMATCH: epa_cli $*: got $got, pinned $want"
    mismatches=$((mismatches + 1))
  fi
}

sweep=b3a2a732ddea7c4965db0fca41778e545fffd7e79f86567957aa9e2efe3d0b09
check "$sweep" sweep --json --jobs 1
check "$sweep" sweep --json --jobs 4
check "$sweep" sweep --json --jobs 4 --no-world-cache
check 77ac9532ec2dd5cc0aa5555c718b928c5be5fb50b725ef501b16d12a657f9a1b \
  sweep --family fam-spool --json
check 1a96f34e85dba30c643d3cfab830904151b258302970d90923b33fcd449803a7 \
  sweep --family fam-regchain --json
check 8bd9eb82483561fc9420fa6c0047de5537033620d04cffb2387e1f9e5772bea4 \
  sweep --family fam-relay --json
check 54e1aa3c573d5408a0fa79ecf71bb2e5a4c7c98bfe50ac897e9780e4cf4f110a \
  search --family fam-relay --budget 150 --json --seed 1
rm -f "$out"

[ "$mismatches" -eq 0 ] && echo DIGESTS_PINNED_OK
