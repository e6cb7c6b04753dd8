#!/usr/bin/env bash
# Refreshes every committed golden file under tests/golden/.
#
# Run this only when an output change is *intentional* (simulator
# behaviour, seed derivation, or TSV format changed on purpose), then
# review the diff like any other code change.
#
# Every integration suite that calls common::compare_golden runs once
# with UPDATE_GOLDEN=1 (each comparison rewrites its golden instead of
# checking it), then once more without it: a suite that compares a
# variant against a golden another test wrote must still agree with it.
set -euo pipefail
cd "$(dirname "$0")/.."

suites=()
for f in $(grep -l 'compare_golden' tests/*.rs); do
  name=$(basename "$f" .rs)
  suites+=(--test "$name")
done

mkdir -p tests/golden
UPDATE_GOLDEN=1 cargo test --offline "${suites[@]}" -- --test-threads=1
cargo test --offline "${suites[@]}"
git --no-pager diff --stat -- tests/golden || true
