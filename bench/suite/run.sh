#!/usr/bin/env bash
# The msol benchmark; see bench/suite/README.md and run.py --help.
#   bench/suite/run.sh [--seed S] [--quick] [--sets N]
exec python3 "$(dirname "$0")/run.py" "$@"
