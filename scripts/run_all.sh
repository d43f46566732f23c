#!/bin/sh
# Run every bundled scenario config; exits nonzero if any scenario fails.
# Usage: scripts/run_all.sh [DIR]
# Runs the lab from src/, so it works in a checkout without `pip install`.
# Each scenario writes into its own directory under DIR, or under a fresh
# temporary directory when no DIR is given.  DIR may not lie inside out/,
# which holds the committed golden tables.
set -e
root=$(cd "$(dirname "$0")/.." && pwd -P)
if [ $# -gt 0 ]; then
    dest=$(python -c 'import os, sys; print(os.path.realpath(sys.argv[1]))' "$1")
    case "$dest/" in
        "$root/out/"*)
            echo "refusing $1: out/ holds the committed golden tables" >&2
            exit 2 ;;
    esac
    mkdir -p "$dest"
else
    dest=$(mktemp -d)
fi
cd "$root"
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
echo "writing tables to $dest"
for cfg in scripts/*.json; do
    echo "== $cfg"
    python -m mmlab.cli run "$cfg" --threads 2 --out "$dest/$(basename "$cfg" .json)"
done
echo "tables written to $dest"
