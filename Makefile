.PHONY: test accept repro demos check bench-smoke verify parity pairs

test:
	pytest

# acceptance gate with one PASS line per criterion (criteria needing real
# MNIST skip unless FUZZY_KAN_DATA points at the dataset layout in README.md)
accept:
	pytest tests/test_acceptance.py -v -s

# full benchmark reproduction (long-running; hours on a laptop core)
repro:
	FUZZY_KAN_FULL=1 pytest tests/test_acceptance.py -v -s -k "criterion_8 or criterion_9"

demos:
	for demo in demos/*.py; do PYTHONPATH=src python $$demo || exit 1; done

# the diagnostic property suites: gradients, pooling oracle, spline basis
check:
	for kind in grad pool-oracle spline; do PYTHONPATH=src python -m fuzzykan.cli check $$kind || exit 1; done

# the benchmark's own smoke test: every workload at a tiny length
bench-smoke:
	python3 -m pytest perfbench/test_smoke.py

# the tier-1 tests; they also run the three check suites (tests/test_cli.py) and the benchmark smoke
# test (tests/test_bench_contract.py)
verify:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

# bit-for-bit comparison of every battery array with another checkout: make parity PARENT=../parent
parity:
	python3 tools/parity.py $(PARENT) .

# the no-regression check against another checkout: make pairs PARENT=../parent
# four alternating pairs of 30 s runs per BENCHMARK.json workload (about 5 minutes each); stops at the first REGRESSION
WORKLOADS = $(shell python3 -c "import json; print(*(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")
pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=<checkout of the parent commit>"; exit 2; }
	for workload in $(WORKLOADS); do python3 tools/bench_pairs.py --parent $(PARENT) --change . --workload $$workload --seeds 1-4 --raw pairs.jsonl || exit 1; done
