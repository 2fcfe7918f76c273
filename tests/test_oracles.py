"""The exactness contract has one home: ``fuzzykan.oracles`` defines every scalar reference and imports no kernel."""

import ast
import sys
from pathlib import Path

import pytest

import fuzzykan.checks as checks
import fuzzykan.kan as kan
import fuzzykan.pooling as pooling
from fuzzykan import oracles

ORACLES = [
    "fuzzify",
    "algebraic_sum_score",
    "select_fuzzy_patch",
    "defuzzify_cog",
    "fuzzy_window_reference",
    "pool_window_oracle",
    "bspline_reference",
    "bspline_derivative_reference",
    "spline_oracle",
]


def test_imports_numpy_and_the_standard_library_alone():
    tree = ast.parse(Path(oracles.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert {m.split(".")[0] for m in modules} - set(sys.stdlib_module_names) == {"numpy"}


@pytest.mark.parametrize("name", ORACLES)
def test_each_oracle_is_defined_in_oracles(name):
    assert getattr(oracles, name).__module__ == "fuzzykan.oracles"


@pytest.mark.parametrize("module", [pooling, kan, checks], ids=lambda m: m.__name__)
def test_kernel_and_suite_modules_define_no_oracle(module):
    tree = ast.parse(Path(module.__file__).read_text())
    assert not {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)} & set(ORACLES)


def test_readers_of_the_old_homes_get_the_same_objects():
    # perfbench/bench.py reads pooling.fuzzy_window_reference; tools/parity.py imports checks.pool_window_oracle
    assert pooling.fuzzy_window_reference is oracles.fuzzy_window_reference
    assert checks.pool_window_oracle is oracles.pool_window_oracle
