#!/bin/bash
# Regenerates every table and figure and the §V-B runtime table; outputs
# land in results_*.txt. Build first: cargo build --release -p taxorec-bench
set -u
cd "$(dirname "$0")"
export TAXOREC_SEEDS=${TAXOREC_SEEDS:-1}
for name in table1 table2 table3 fig6 table5 fig3 fig5 table4 runtime; do
  echo "=== running $name ==="
  ./target/release/taxorec-bench $name > results_$name.txt 2>&1
  echo "=== $name done (exit $?) ==="
done
