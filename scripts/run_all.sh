#!/bin/sh
# Run every bundled scenario config; exits nonzero if any scenario fails.
set -e
cd "$(dirname "$0")/.."
for cfg in scripts/*.json; do
    echo "== $cfg"
    lab run "$cfg" --threads 2
done
