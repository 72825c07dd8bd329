#!/usr/bin/env bash
# Run every demo and one small run of each CLI subcommand, failing on the
# first error, RuntimeWarning or UserWarning (such as a spurious
# incomplete-family warning).  Run from the repository root:
#   bash scripts/smoke.sh
set -e
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONWARNINGS=error::RuntimeWarning,error::UserWarning
for demo in demos/*.py; do python "$demo" > /dev/null; done
python -m krauslab.cli analyze --input demos/data/pinching.json > /dev/null
python -m krauslab.cli analyze --input demos/data/unitary_mix.json > /dev/null
python -m krauslab.cli analyze --input demos/data/tensor_mix.json > /dev/null
python -m krauslab.cli analyze --input demos/data/reflection_mix.json > /dev/null
python -m krauslab.cli cuntz --dim 8 > /dev/null
python -m krauslab.cli commuting --dim 4 --trials 4 > /dev/null
# theta's factor spans with one generator and with more than three
python -m krauslab.cli commuting --dim 5 --ops 1 --trials 4 > /dev/null
python -m krauslab.cli commuting --dim 5 --ops 4 --trials 4 > /dev/null
python -m krauslab.cli commuting --dim 12 --trials 2 > /dev/null
python -m krauslab.cli commuting --dim 12 --trials 4 --tol 1e-12 > /dev/null
python -m krauslab.cli fuzz --trials 20 > /dev/null
python -m krauslab.cli schur --input demos/data/measure.json > /dev/null
python -m krauslab.cli schur --input demos/data/symbol.json > /dev/null
# one bad input: a family whose Gram sums overflow must exit 2, not write NaN
bad=$(mktemp)
trap 'rm -f "$bad"' EXIT
echo '{"dim": 2, "kraus": [{"rows": 2, "cols": 2, "data": [[1e200, 0], [1e200, 0], [0, 0], [2e200, 0]]}]}' > "$bad"
status=0
err=$(python -m krauslab.cli analyze --input "$bad" 2>&1 > /dev/null) || status=$?
if [ "$status" -ne 2 ]; then
    echo "$err" >&2
    echo "analyze of an overflowing family exited $status, expected 2" >&2
    exit 1
fi
