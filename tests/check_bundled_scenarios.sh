#!/usr/bin/env bash
# Runs `validate` and then each bundled scenario's own command through
# `python -X importtime -m reformgame.cli` in the current directory, and
# checks each exit code: 1 for bad_gain_bound.json, whose parameters break
# the participant gain bound, and 0 for every other scenario. It also checks
# from the import-time report that a run loads only the modules it needs:
# numpy only for `simulate`, reformgame.abm only for a simulate run and
# reformgame.sweep only for a sweep run, where `validate` makes the run of
# its scenario's `run` field, whose section it checks. Run it from a
# directory outside the checkout, so that a relative case_data.path has to
# resolve against the scenario's directory, not the working one:
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
        stderr=$("$python" -X importtime -m reformgame.cli "$command" --scenario "$scenario" 2>&1 >/dev/null) || code=$?
        # Import-time lines end in the module's name after a "|".
        loaded=$(sed -n 's/^import time:.*| *\([^ ]*\)$/\1/p' <<<"$stderr")
        message=$(grep -v '^import time:' <<<"$stderr" || true)
        if [ "$code" -eq "$expected" ]; then
            echo "ok   $command $name: exit $code"
        else
            echo "FAIL $command $name: exit $code, expected $expected: $message"
            failures=$((failures + 1))
        fi
        for module in numpy reformgame.abm reformgame.sweep; do
            case "$module:$command:$run" in
                numpy:simulate:* | reformgame.abm:*:simulate | reformgame.sweep:*:sweep) continue ;;
            esac
            if grep -qx "$module" <<<"$loaded"; then
                echo "FAIL $command $name: loads $module"
                failures=$((failures + 1))
            fi
        done
    done
done
exit $((failures > 0))
