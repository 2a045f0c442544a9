#!/usr/bin/env bash
# CI smoke test: builds the harness, runs all four workloads in both
# passes on a tiny model (seconds in total), and checks that every
# emitted result carries every metric of the spec, is correct, and
# that each Chrome trace parses. Run from the repository root.
set -euo pipefail
exec bash "$(dirname "$0")/run.sh" --smoke
