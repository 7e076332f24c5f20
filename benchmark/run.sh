#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build and the run write — Go's build cache, the binary, the
# store's files — stays under <checkout>/.bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$here"
	GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local \
		XDG_CONFIG_HOME="$build/config" \
		go build -o "$build/durable-bench" .
)

cd "$root"
exec "$build/durable-bench" "$@"
