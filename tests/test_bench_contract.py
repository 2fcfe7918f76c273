"""The benchmark's own smoke test, run as part of the tier-1 suite.

``perfbench`` calls into the library (``Model.params`` and
``tensor.default_dtype`` among others), so a library change that drops or
renames one of them breaks every benchmark run while the library's own tests
stay green.  The smoke test cannot be collected in this process: ``run.pin_environment``
refuses to run once numpy is imported, since the BLAS thread count must be set
first.  So it runs in a subprocess from the repository root, as ``make
bench-smoke`` runs it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
