#!/bin/sh
# Run every bundled scenario config; exits nonzero if any scenario fails.
set -e
cd "$(dirname "$0")/.."
for cfg in scripts/torus_collapse.json scripts/cone_interval.json \
           scripts/ou_family.json scripts/reflected_family.json \
           scripts/custom_finite.json; do
    echo "== $cfg"
    lab run "$cfg" --threads 2
done
