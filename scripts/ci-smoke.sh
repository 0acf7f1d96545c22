#!/usr/bin/env bash
# End-to-end smoke test: build the examples in release mode and run the two
# that exercise the whole stack (operators, selector, runtime pool, and the
# message-passing simulator). Used by CI after the unit-test stage; also
# handy locally before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release -p repro-examples

echo "== quickstart =="
cargo run --release -p repro-examples --bin quickstart

echo "== distributed_reduction =="
cargo run --release -p repro-examples --bin distributed_reduction

# A killed rank plus message drops: the run must heal, report its recovery
# counters, and stay bitwise identical to the survivor-set reference — on
# every fault-tolerant topology.
for topology in binomial flat chain; do
  echo "== chaos (fault-injected reduction, fixed seed, $topology) =="
  chaos_out=$(cargo run --release -p repro-cli --bin repro-reduce -- chaos \
    --ranks 8 --n 4096 --dr 12 --seed 2015 --drop 0.1 --kill 1 --topology "$topology")
  echo "$chaos_out"
  echo "$chaos_out" | grep -q "survivor reference (PR fold=3): OK (bitwise)" \
    || { echo "chaos run ($topology) lost bitwise reproducibility" >&2; exit 1; }
  echo "$chaos_out" | grep -Eq "report: completed=[0-9]+ failed=[0-9]+ retries=[0-9]+ heals=[0-9]+" \
    || { echo "chaos run ($topology) did not surface WorldReport counters" >&2; exit 1; }
  echo "$chaos_out" | grep -Eq "checkpoint demo: retries=1 heals=1 checkpoint_restores=[0-9]+" \
    || { echo "chaos run ($topology) did not surface RuntimeStats recovery counters" >&2; exit 1; }
done

echo "== select --bitwise picks the reproducible rung (DS) =="
select_out=$(cargo run --release -p repro-cli --bin repro-reduce -- select --bitwise 1 2 3)
echo "$select_out"
echo "$select_out" | grep -q "^# selected: DS " \
  || { echo "select --bitwise did not report DS" >&2; exit 1; }

echo "== smoke OK =="
