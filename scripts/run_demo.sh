#!/usr/bin/env bash
# Run every icdkit subcommand over a demo workspace (see make_demo_data.py).
set -euo pipefail

WORKSPACE="${1:-demo}"
# run from a source checkout as well as from an install
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"

if [ ! -f "$WORKSPACE/stats.json" ]; then
    echo "no configs in $WORKSPACE/ - run: python scripts/make_demo_data.py --out $WORKSPACE" >&2
    exit 1
fi

# run SUBCOMMAND CONFIG: run the subcommand on $WORKSPACE/CONFIG.json and
# print the first scalar results of its report
run() {
    echo "== icdkit $1 ($2.json)"
    python3 -m icdkit.cli "$1" --config "$WORKSPACE/$2.json"
    report="$WORKSPACE/out/$2/$(echo "$1" | tr '-' '_').json"
    python3 - "$report" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
results = report["results"]
keys = ", ".join(f"{k}={results[k]}" for k in list(results)[:4] if not isinstance(results[k], (dict, list)))
print(f"   {sys.argv[1]}: {keys}")
EOF
}

# import-selection reads the export-candidates output, so order matters
for cmd in parse stats agreement index retrieve eval-ner eval-coding eval-dp \
           export-candidates import-selection; do
    run "$cmd" "$cmd"
done
# the same candidates, resolved through a reranker's selection file
run import-selection import-selection-reranked

echo "all reports under $WORKSPACE/out/"
