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

# import-selection reads the export-candidates output, so order matters
for cmd in parse stats agreement index retrieve eval-ner eval-coding eval-dp \
           export-candidates import-selection; do
    echo "== icdkit $cmd"
    python3 -m icdkit.cli "$cmd" --config "$WORKSPACE/$cmd.json"
    report="$WORKSPACE/out/$cmd/$(echo "$cmd" | tr '-' '_').json"
    python3 - "$report" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
results = report["results"]
keys = ", ".join(f"{k}={results[k]}" for k in list(results)[:4] if not isinstance(results[k], (dict, list)))
print(f"   {sys.argv[1]}: {keys}")
EOF
done

echo "all reports under $WORKSPACE/out/"
