#!/usr/bin/env bash
# The fleet daemon end to end over its production transport: a real csmd
# process on a unix socket, a collector push, a stats scrape and a clean
# SIGTERM shutdown. The daemon-drained signature file must be byte-identical
# to a single-process `csmcli stream` run with the same method, window and
# step (the protocol adds no drift), and replaying the daemon's capture must
# reproduce it too. push registers its CS nodes with n_sensors 0 ("take the
# count from the model"), so the capture's node table holds the engine's
# resolved counts; the replay must report as many nodes as push registered.
#
#   tools/daemon_e2e.sh CSMD CSMCLI WORK_DIR
#
# Exits non-zero on the first failing step. The socket lives under /tmp
# (sockaddr_un caps the path length, so build trees are out) with this
# shell's PID in its name; a failing run still stops csmd and removes it.
set -euo pipefail

if [ "$#" -ne 3 ]; then
  echo "usage: $0 CSMD CSMCLI WORK_DIR" >&2
  exit 1
fi
csmd=$1
csmcli=$2
work=$3
sock="/tmp/csmd-e2e-$$.sock"
csmd_pid=""

cleanup() {
  if [ -n "$csmd_pid" ]; then
    kill -TERM "$csmd_pid" 2>/dev/null || true
    wait "$csmd_pid" 2>/dev/null || true
  fi
  rm -f "$sock"
}
trap cleanup EXIT

mkdir -p "$work"

"$csmd" --socket "$sock" --window 32 --step 8 --record "$work/csmd.csmr" &
csmd_pid=$!
for _ in $(seq 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ] || { echo "csmd did not bind $sock" >&2; exit 1; }

"$csmcli" push fault --socket "$sock" --method cs:blocks=4 \
  --sig-out "$work/push.sigs" | tee "$work/push.txt"
"$csmcli" fleet-stats --socket "$sock" | tee "$work/fleet-stats.txt"
grep -q 'server' "$work/fleet-stats.txt"
grep -q 'drift detector:' "$work/fleet-stats.txt"

kill -TERM "$csmd_pid"
wait "$csmd_pid"  # csmd's own exit status: 0 on a clean shutdown.
csmd_pid=""

"$csmcli" stream fault --method cs:blocks=4 --window 32 --step 8 \
  --sig-out "$work/stream.sigs"
cmp "$work/push.sigs" "$work/stream.sigs"
# The capture is sealed on SIGTERM; replaying it through a local engine with
# the daemon's window geometry reproduces the pushed signatures byte for
# byte.
"$csmcli" replay "$work/csmd.csmr" --method cs:blocks=4 --window 32 \
  --step 8 --sig-out "$work/replayed.sigs" | tee "$work/replay.txt"
pushed=$(sed -n 's/^registered \([0-9]*\) nodes with .*/\1/p' "$work/push.txt")
replayed=$(sed -n 's/^recording .*: \([0-9]*\) nodes, .*/\1/p' \
  "$work/replay.txt")
if [ -z "$pushed" ] || [ "$pushed" = 0 ] || [ "$pushed" != "$replayed" ]; then
  echo "capture holds ${replayed:-?} nodes, push registered ${pushed:-?}" >&2
  exit 1
fi
cmp "$work/push.sigs" "$work/replayed.sigs"
echo "daemon e2e: OK"
