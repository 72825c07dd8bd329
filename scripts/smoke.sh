#!/usr/bin/env bash
# Run every demo and one small run of each CLI subcommand, failing on the
# first error or RuntimeWarning.  Run from the repository root:
#   bash scripts/smoke.sh
set -e
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONWARNINGS=error::RuntimeWarning
for demo in demos/*.py; do python "$demo" > /dev/null; done
python -m krauslab.cli analyze --input demos/data/pinching.json > /dev/null
python -m krauslab.cli analyze --input demos/data/unitary_mix.json > /dev/null
python -m krauslab.cli analyze --input demos/data/tensor_mix.json > /dev/null
python -m krauslab.cli analyze --input demos/data/reflection_mix.json > /dev/null
python -m krauslab.cli cuntz --dim 8 > /dev/null
python -m krauslab.cli commuting --dim 4 --trials 4 > /dev/null
python -m krauslab.cli commuting --dim 12 --trials 2 > /dev/null
python -m krauslab.cli commuting --dim 12 --trials 4 --tol 1e-12 > /dev/null
python -m krauslab.cli fuzz --trials 20 > /dev/null
python -m krauslab.cli schur --input demos/data/measure.json > /dev/null
python -m krauslab.cli schur --input demos/data/symbol.json > /dev/null
