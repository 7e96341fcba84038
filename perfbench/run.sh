#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
# Pin the run -- the probe child, the workload and any daemons it
# spawns, which inherit the mask -- to the last CPU this process may
# use.  The probe then reads the speed of the very CPU the work runs
# on: on a shared host each virtual CPU is slowed on its own, and a
# probe on the other one does not see it.  Where taskset is missing or
# may not set the mask, the run is not pinned.
cpu=none
pin=()
if allowed=$(taskset -pc $$ 2>/dev/null); then
  allowed=${allowed##*: }
  if taskset -c "${allowed##*[,-]}" true 2>/dev/null; then
    cpu=${allowed##*[,-]}
    pin=(taskset -c "$cpu")
  fi
fi
exec "${pin[@]}" ./_build/default/perfbench/main.exe "$@" \
  --nproc "$(nproc)" --profile "${DUNE_PROFILE:-dev}" --cpu "$cpu"
