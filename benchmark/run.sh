#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (binary and Go build
# cache both stay inside the checkout) and runs it with the caller's
# arguments from the checkout root, where BENCHMARK.json lives.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
# The revision is stamped by hand: go's own VCS stamping fails the whole
# build when git is present but refuses the directory.
rev=unknown
if [ -e "$root/.git" ] && rev="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	[ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ] || rev="$rev+dirty"
else
	rev=unknown
fi
(cd "$here" && go build -buildvcs=false -ldflags "-X main.buildRevision=$rev" -o "$out/oocbenchmark" .) >&2
# A first build leaves a hundred megabytes of cache to be written back; the
# run's fsyncs should not queue behind it.
sync || true
cd "$root"
exec "$out/oocbenchmark" "$@"
