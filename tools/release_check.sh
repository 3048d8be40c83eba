#!/bin/bash
# One-command release gate: full test suite, full oracle sweep at sf0.01,
# and a bench smoke at sf0.01. Run before closing out a round.
# Usage: bash tools/release_check.sh [sweep_sf_dir]
set -u -o pipefail
cd "$(dirname "$0")/.." || exit 1
SF=${1:-/root/testdata/sf0.01}
rc=0

echo "== pytest =="
python -m pytest tests/ -q || rc=1

echo "== oracle sweep ($SF) =="
python tools/correctness_sweep.py "$SF" | tail -1 || rc=1

echo "== bench smoke (sf0.01, 4k imgs; image join-tier parity) =="
GRAFT_SF_DIR=/root/testdata/sf0.01 BENCH_IMG_ROWS=4000 python bench.py \
  | tail -1 || rc=1
BENCH_IMG_ROWS=4000 python bench.py image --join-tier | tail -1 || rc=1

exit $rc
