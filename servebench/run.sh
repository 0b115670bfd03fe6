#!/usr/bin/env bash
# Builds the serving benchmark from the source tree around it and runs it,
# passing every argument through:
#
#   bash servebench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root of
# that tree, so nothing is written outside it. A failed build exits
# non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

# The program's identity: the git commit when the tree is a checkout,
# otherwise a digest of its Go sources.
if [ -e "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	git -C "$root" diff --quiet HEAD -- . 2>/dev/null || rev="$rev-dirty"
else
	rev="src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

go -C "$here" build -ldflags "-X main.sourceRev=$rev" -o "$out/servebench" .
exec "$out/servebench" "$@"
