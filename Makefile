.PHONY: test accept repro demos check bench-smoke verify parity

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

# the tier-1 tests, the check suites and the benchmark smoke test, stopping at the first failure
verify:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
	$(MAKE) check
	$(MAKE) bench-smoke

# bit-for-bit comparison of every battery array with another checkout: make parity PARENT=../parent
parity:
	python3 tools/parity.py $(PARENT) .
