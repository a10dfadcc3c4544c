#!/usr/bin/env bash
# slingbench: builds the benchmark, runs it, verifies its outputs and
# prints every metric by name with its unit. Run from the repository
# root; see benchmark/README.md for the options.
exec python3 "$(dirname "$0")/run.py" "$@"
