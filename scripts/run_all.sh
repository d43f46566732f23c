#!/bin/sh
# Run every bundled scenario config; exits nonzero if any scenario fails.
# Runs the lab from src/, so it works in a checkout without `pip install`.
# Each scenario writes into its own directory under a fresh temporary
# directory, never into the committed golden tables in out/.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
dest=$(mktemp -d)
echo "writing tables to $dest"
for cfg in scripts/*.json; do
    echo "== $cfg"
    python -m mmlab.cli run "$cfg" --threads 2 --out "$dest/$(basename "$cfg" .json)"
done
echo "tables written to $dest"
