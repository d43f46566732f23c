#!/bin/sh
# Run every bundled scenario config; exits nonzero if any scenario fails.
# Runs the lab from src/, so it works in a checkout without `pip install`.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
for cfg in scripts/*.json; do
    echo "== $cfg"
    python -m mmlab.cli run "$cfg" --threads 2
done
