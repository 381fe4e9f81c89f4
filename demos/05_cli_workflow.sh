#!/usr/bin/env bash
# End-to-end command-line workflow: simulate -> screen -> fit -> benchmark.
set -euo pipefail
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

echo "== simulate a small autoregressive dataset =="
tarpreg simulate --scheme ar1 --n 120 --p 400 --n-test 40 --n-active 8 \
    --seed 1 --out "$out/sim"
ls "$out/sim"

echo
echo "== screening diagnostics (default exponent) =="
tarpreg screen "$out/sim/train.csv" --delta auto --replicates 50 --seed 2 \
    --out "$out/screen" --export "$out/screened.csv"
python3 - "$out/screen.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
print(f"delta = {s['delta']:.3f}, expected screened count = "
      f"{s['expected_selected']:.1f}, union size = {s['union_size']}")
PY

echo
echo "== the export ends with y, so it screens again as a dataset =="
tarpreg screen "$out/screened.csv" --replicates 50 --seed 2 --out "$out/rescreen"
python3 - "$out/screen.json" "$out/rescreen.json" <<'PY'
import json, sys
first, again = (json.load(open(path)) for path in sys.argv[1:])
print(f"{len(again['column_names'])} predictors read back of a union of "
      f"{first['union_size']}; union size now {again['union_size']}")
PY

echo
echo "== fit/predict with a config file, flags overriding =="
printf 'replicates=40\nlevel=0.5\naggregation=average\n' > "$out/run.cfg"
tarpreg fit "$out/sim/train.csv" "$out/sim/test.csv" --config "$out/run.cfg" \
    --backend ris-pcr --seed 3 --out "$out/fit"
head -4 "$out/fit.predictions.csv"

echo
echo "== tiny benchmark (deterministic for any --workers) =="
tarpreg benchmark --scheme ar1 --n 120 --p 400 --n-test 40 --n-active 8 \
    --seed 4 --datasets 6 --replicates 30 --workers 2 --out "$out/bench"
python3 - "$out/bench.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))["report"]
for k, v in r.items():
    print(f"{k:6s} mean {v['mean']:.3f}  sd {v['sd']:.3f}")
PY
