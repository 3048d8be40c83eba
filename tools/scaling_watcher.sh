#!/bin/bash
# Watch host memory bandwidth; when a clean window appears (two probes 30s
# apart both >= 2.2 GB/s and no /tmp/graft_busy lock), fire one scaling run
# and exit. Results land in /tmp/scaling_watch_result.json.
#
# Rationale: this sandbox VM's memory bandwidth randomly degrades 10-40x
# (see BENCH/BASELINE.md "host health" notes); scaling-efficiency samples
# are only meaningful in clean windows.
cd "$(dirname "$0")/.." || exit 1
OUT=${1:-/tmp/scaling_watch_result.json}
probe() {
  python - <<'EOF'
import bench, json
print(bench.host_health_probe()["host_mem_gbps"])
EOF
}
while true; do
  if [ -e /tmp/graft_busy ]; then
    echo "$(date +%H:%M:%S) busy lock present; sleeping"
    sleep 90; continue
  fi
  BW1=$(probe)
  echo "$(date +%H:%M:%S) probe1 ${BW1} GB/s"
  if python -c "import sys; sys.exit(0 if float('${BW1}') >= 2.2 else 1)"; then
    sleep 15
    BW2=$(probe)
    echo "$(date +%H:%M:%S) probe2 ${BW2} GB/s"
    if python -c "import sys; sys.exit(0 if float('${BW2}') >= 2.2 else 1)"; then
      echo "$(date +%H:%M:%S) clean window; firing scaling run"
      touch /tmp/graft_busy
      BENCH_IMG_ROWS=150000 python bench.py scaling > "$OUT" 2>/tmp/scaling_watch_err.log
      RC=$?
      rm -f /tmp/graft_busy
      echo "$(date +%H:%M:%S) scaling run rc=$RC -> $OUT"
      if [ $RC -eq 0 ]; then
        cat "$OUT"
        exit 0
      fi
    fi
  fi
  sleep 75
done
