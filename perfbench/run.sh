#!/usr/bin/env bash
# Build the benchmark and the rca_main CLI (which serve-mixed-small runs as
# its daemon) from source, then run the benchmark from the repository root.
# The build stays inside the checkout: no shared dune cache, and compiler
# temporaries go under perfbench/_work.  Build output goes to stderr so the
# last line of stdout stays the benchmark's JSON result.
#
#   bash perfbench/run.sh --workload pipeline-gn-paper --seed 1 --seconds 40 --trace 0
set -euo pipefail
mkdir -p perfbench/_work/tmp
export TMPDIR="$PWD/perfbench/_work/tmp"
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/rca_main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
