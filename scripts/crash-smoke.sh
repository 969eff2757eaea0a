#!/usr/bin/env bash
# Kill-and-resume smoke, for real: SIGKILL cmd/litmus right after its
# first checkpoint commit (-crash-after 1, exit 137), resume from the
# snapshot the kill left behind, and diff the resumed -json summary
# field by field against an uninterrupted reference run.
#
#   scripts/crash-smoke.sh hashed-128                   # -checkpoint alone: hash pairs on disk
#   scripts/crash-smoke.sh collapsed -compress          # collapsed tuples + component tables
#   scripts/crash-smoke.sh hashed-128 -membudget 4096   # hash pairs, spilled segments included
#
# The first argument is the "keys" value every summary must report (the
# key mode is the file's on resume); the rest are extra litmus flags
# passed to all three runs. Used by CI's crash-recovery job and
# `make crash`.
set -euo pipefail
want_keys="$1"
shift
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/litmus" ./cmd/litmus
scenario=examples/dekker-nofence.litmus

# expect CODE CMD...: run CMD, demand exit status CODE.
expect() {
	local want="$1" code=0
	shift
	"$@" || code=$?
	if [ "$code" -ne "$want" ]; then
		echo "crash-smoke: exit $code, want $want: $*" >&2
		exit 1
	fi
}

# Uninterrupted reference (exit 1: the unfenced protocol violates).
expect 1 "$tmp/litmus" -file "$scenario" "$@" -json >"$tmp/ref.json"
# Same scenario, SIGKILL'd right after the first snapshot commit.
expect 137 "$tmp/litmus" -file "$scenario" "$@" -checkpoint "$tmp/ckpt" -checkpoint-every 300 -crash-after 1 -json >/dev/null
test -f "$tmp/ckpt/checkpoint.lbmf"
# Resume from the snapshot the kill left behind.
expect 1 "$tmp/litmus" -file "$scenario" "$@" -checkpoint "$tmp/ckpt" -checkpoint-every 300 -resume -json >"$tmp/resumed.json"

python3 - "$tmp/ref.json" "$tmp/resumed.json" "$want_keys" <<'PY'
import json, sys
ref, res, want_keys = json.load(open(sys.argv[1])), json.load(open(sys.argv[2])), sys.argv[3]
keys = ['name', 'threads', 'states', 'transitions', 'outcomes',
        'deadlocks', 'violations', 'property', 'pass', 'keys']
bad = [k for k in keys if ref.get(k) != res.get(k)]
if not res.get('resumed'):
    bad.append('resumed flag unset')
if res.get('keys') != want_keys:
    bad.append(f"keys={res.get('keys')!r}, want {want_keys!r}")
if bad:
    print('resumed run diverges from uninterrupted reference:', bad)
    print('reference:', {k: ref.get(k) for k in keys})
    print('resumed:  ', {k: res.get(k) for k in keys})
    sys.exit(1)
print('resumed summary identical to uninterrupted reference '
      f"({res['states']} states, {res['violations']} violating, {res['keys']} keys)")
PY
