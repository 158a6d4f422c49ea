#!/usr/bin/env bash
# reach.sh: list the functions that no run of this repository reaches.
#
# Builds every shipped program with coverage instrumentation of all of
# repro/..., runs each the way the repository runs it, merges the
# coverage data and prints the non-test functions at 0.0 % (the bench
# module's own rows dropped). The runs:
#   - CI's report run: fragbench -quick -obs -report ... -optrace ... all
#   - each example under examples/
#   - layoutmap on both backends, at CI's smoke scale
#   - fragserve driven by fragbench loadgen over loopback
#   - each BENCHMARK.json workload for 3 s, through `go -C bench run .`
#     with GOFLAGS carrying -cover, so the fragserve child it builds is
#     covered too
# Everything is built and run in a copy of the checkout under $TMPDIR,
# so no binary or bench/out lands in the tree. Takes about half a
# minute on two CPUs; it is a tool, not a CI gate.
#
# Usage: scripts/reach.sh
set -euo pipefail

src="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")"
srv=""
cleanup() {
	if [ -n "$srv" ]; then
		kill -TERM "$srv" 2>/dev/null || true
		wait "$srv" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT

tree="$work/src"
bin="$work/bin"
run="$work/run"
export GOCOVERDIR="$work/cov"
mkdir -p "$tree" "$bin" "$run" "$GOCOVERDIR"
tar -C "$src" --exclude=./.git --exclude=./bench/out -cf - . | tar -C "$tree" -xf -
cd "$tree"

cover=(-cover -coverpkg=repro/...)
say() { echo "reach: $*" >&2; }

say "building"
examples=()
for dir in examples/*/; do
	examples+=("$(basename "$dir")")
done
for prog in fragbench fragserve layoutmap; do
	go build "${cover[@]}" -o "$bin/$prog" "./cmd/$prog"
done
for ex in "${examples[@]}"; do
	go build "${cover[@]}" -o "$bin/$ex" "./examples/$ex"
done

cd "$run"
say "fragbench -quick all"
"$bin/fragbench" -quick -obs -report report.json -optrace optrace.json all >/dev/null

for ex in "${examples[@]}"; do
	say "example $ex"
	"$bin/$ex" >/dev/null
done

for backend in fs db; do
	say "layoutmap -backend $backend"
	"$bin/layoutmap" -backend "$backend" -capacity 256M -object 1M -age 2 >/dev/null
done

say "fragserve + fragbench loadgen"
port="$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1])')"
url="http://127.0.0.1:$port"
"$bin/fragserve" -addr "127.0.0.1:$port" -backend file -capacity 2G -mode data \
	-maxinflight 128 -maxqueue 256 2>fragserve.log &
srv=$!
for _ in $(seq 1 100); do
	curl -sf "$url/v1/stats" >/dev/null && break
	sleep 0.1
done
"$bin/fragbench" loadgen -url "$url" -clients 16 -ramp 4,16 -duration 1s \
	-objects 128 -size 64K >/dev/null
curl -sf "$url/report" >/dev/null
kill -TERM "$srv"
wait "$srv"
srv=""

cd "$tree"
for w in $(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json); do
	say "bench workload $w"
	GOFLAGS="${cover[*]}" go -C bench run . --workload "$w" --seconds 3 >/dev/null
done

mkdir -p "$work/merged"
go tool covdata merge -i="$GOCOVERDIR" -o="$work/merged"
say "functions no run reaches (bench/ excluded):"
go tool covdata func -i="$work/merged" | awk '$NF == "0.0%" && $1 !~ /^repro\/bench\// && $1 !~ /_test\.go:/'
