#!/usr/bin/env bash
# Build perfbench from the sources of this checkout, then run it.
#   bash perfbench/run.sh --workload tune|serve|ingest --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no stardust sources beside perfbench/ (dune-project, lib/)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
