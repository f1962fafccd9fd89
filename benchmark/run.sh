#!/bin/sh
# Build the benchmark from source, then run it with the given arguments
# (see benchmark/README.md).  Build output goes to stderr so that the
# result stays the last line of standard output.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
