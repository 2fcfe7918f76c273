.PHONY: test accept repro demos bench-smoke

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
	PYTHONPATH=src python demos/01_autodiff_basics.py
	PYTHONPATH=src python demos/02_fuzzy_pooling.py
	PYTHONPATH=src python demos/03_kan_layer.py
	PYTHONPATH=src python demos/04_train_small.py

# the benchmark's own smoke test: every workload at a tiny length
bench-smoke:
	python3 -m pytest perfbench/test_smoke.py
