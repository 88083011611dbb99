#!/usr/bin/env sh
# Walkthrough of the adversarial scenario-pack evaluation:
#
#   list packs -> run the model x scenario matrix -> inspect cells ->
#   gate against the committed baseline (schema and per-cell value band)
#
# Run from the repository root:
#
#   sh examples/scenarios/run.sh
#
# Everything happens in a scratch directory; the script cleans up after
# itself. See README.md "Adversarial scenario packs" for the story.
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "==> building hotscen"
go build -o "$WORK/hotscen" ./cmd/hotscen

echo "==> 1. the built-in packs and what each overlay does to the labels"
"$WORK/hotscen" -list

echo "==> 2. run two packs x five models on a small grid"
"$WORK/hotscen" -packs baseline,outage-wave -models Random,Average,Tree,RF-F1,GBT-F1 \
  -sectors 150 -weeks 8 -o "$WORK/matrix.json"

echo "==> 3. the per-(model, scenario) cells (mean lift per pack)"
grep -E '"pack"|"model"|"mean_lift"' "$WORK/matrix.json"

echo "==> 4. gate a fresh run against the committed baseline's schema and band"
"$WORK/hotscen" -packs baseline,outage-wave -models Random,Average,Tree,RF-F1,GBT-F1 \
  -sectors 150 -weeks 8 -o "$WORK/again.json" -diff BENCH_scenarios.json

echo "==> 5. the full matrix (all 7 packs x all 9 models) is one command:"
echo "       hotscen -packs all -models all -o matrix.json"
echo "==> done"
