#!/usr/bin/env bash
# Build the benchmark once and run it in the foreground:
#
#   bash benchmark/run.sh --workload fwd-small --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh compare A.json B.json
#
# Run it from the root of a checkout. Everything it writes — the
# binary, the Go build cache, traces — goes under benchmark/out/.
# No `go run`, no background job, no daemon, no socket: the binary is
# the only process left after the build, and the script ends by
# checking that it has no children.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
# Keep the Go toolchain's own files (build cache, work directory,
# telemetry, env file) inside the checkout, and off the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off

# Rebuild only when a source file is newer than the binary (always, on
# a fresh checkout).
if [ ! -x "$out/bench" ] || [ -n "$(find "$here/.." -path "$out" -prune -o -name '*.go' -newer "$out/bench" -print -quit)" ]; then
	(cd "$here" && go build -o "$out/bench" .)
fi

rc=0
"$out/bench" "$@" || rc=$?

# Process hygiene: nothing this script started may outlive it. Read
# /proc with builtins only, so the check itself forks nothing.
for st in /proc/[0-9]*/status; do
	pid="" ppid=""
	while read -r key val _; do
		case "$key" in
		Pid:) pid="$val" ;;
		PPid:) ppid="$val" ;;
		esac
	done <"$st" 2>/dev/null || continue
	if [ "$ppid" = "$$" ] && [ "$pid" != "$$" ]; then
		echo "run.sh: child process $pid is still running" >&2
		exit 70
	fi
done
exit "$rc"
