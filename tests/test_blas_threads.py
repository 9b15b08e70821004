"""The golden digests do not depend on the BLAS thread count.

perfbench pins one BLAS thread before numpy loads.  Two subprocesses set the
same three variables to 2 and to 4, recompute tests/test_golden.py's
pretraining and experiment digests, and compare them with its constants.
OpenBLAS caps the count at the machine's cores, so on a 2-core machine both
run 2 threads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # perfbench/run.py's
CHECK = """
import test_golden as g
assert g.pretrain_digest() == g.PRETRAIN_DIGEST, "pretraining digest differs"
assert g.experiment_digest() == g.EXPERIMENT_DIGEST, "experiment digest differs"
"""


def test_golden_digests_hold_at_two_and_four_blas_threads():
    path = os.pathsep.join(filter(None, (str(SRC), str(TESTS), os.environ.get("PYTHONPATH"))))
    procs = [
        subprocess.Popen([sys.executable, "-c", CHECK], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         env={**os.environ, **dict.fromkeys(BLAS_VARS, str(threads)),
                              "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"})
        for threads in (2, 4)
    ]
    for threads, proc in zip((2, 4), procs):
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{threads} BLAS threads: {err}"
