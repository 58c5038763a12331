#!/usr/bin/env bash
# Runs `validate` and then each bundled scenario's own command through
# `python -m reformgame.cli` in the current directory, and checks each exit
# code: 1 for bad_gain_bound.json, whose parameters break the participant
# gain bound, and 0 for every other scenario. Run it from a directory
# outside the checkout, so that a relative case_data.path has to resolve
# against the scenario's directory, not the working one:
#
#     cd "$(mktemp -d)" && PYTHONPATH=/path/to/repo/src \
#         bash /path/to/repo/tests/check_bundled_scenarios.sh
#
# PYTHON names the interpreter (default: python).
set -euo pipefail

python=${PYTHON:-python}
data=$("$python" -c "import reformgame; print(reformgame.bundled_path('baseline.json').parent)")
failures=0
for scenario in "$data"/*.json; do
    name=$(basename "$scenario")
    run=$("$python" -c "import json, sys; print(json.load(open(sys.argv[1], encoding='utf-8'))['run'])" "$scenario")
    expected=0
    if [ "$name" = bad_gain_bound.json ]; then
        expected=1
    fi
    for command in validate "$run"; do
        code=0
        stderr=$("$python" -m reformgame.cli "$command" --scenario "$scenario" 2>&1 >/dev/null) || code=$?
        if [ "$code" -eq "$expected" ]; then
            echo "ok   $command $name: exit $code"
        else
            echo "FAIL $command $name: exit $code, expected $expected: $stderr"
            failures=$((failures + 1))
        fi
    done
done
exit $((failures > 0))
