#!/usr/bin/env bash
# Profile one program with the SIGPROF sampler, then print its table.
#
#   scripts/profile/profile.sh [-o PROFILE] [--by symbol] PROGRAM [ARGS...]
#
# Builds sampler.c into build-profile/ (never part of a shipped binary),
# runs PROGRAM with it preloaded, and symbolizes the profile it writes at
# exit (default build-profile/prof.<pid>.txt).  NETPART_PROF_HZ sets the
# rate.  The table goes to stderr and the program's own output is left
# as it is.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out_dir="$root/build-profile"
mkdir -p "$out_dir"

out=""
by=function
while [[ $# -gt 0 ]]; do
  case "$1" in
    -o) out="$2"; shift 2 ;;
    --by) by="$2"; shift 2 ;;
    --) shift; break ;;
    *) break ;;
  esac
done
[[ $# -ge 1 ]] || { echo "usage: $0 [-o PROFILE] [--by symbol] PROGRAM [ARGS...]" >&2; exit 2; }

lib="$out_dir/libnpsampler.so"
if [[ ! -f "$lib" || "$here/sampler.c" -nt "$lib" ]]; then
  "${CC:-cc}" -O2 -Wall -Wextra -shared -fPIC -o "$lib" "$here/sampler.c"
fi
if [[ -z "$out" ]]; then
  out="$out_dir/prof.$$.txt"
fi

status=0
NETPART_PROF_OUT="$out" LD_PRELOAD="$lib" "$@" || status=$?
python3 "$here/symbolize.py" "$out" --by "$by" >&2
exit "$status"
