"""The first sigmoid's expit: scipy's _special_ufuncs extension, or scipy.special.

The test process imports scipy.special while it collects the reference
tests, so each loader path runs in a fresh interpreter here.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

# run as: python -X dev -W error -c SCRIPT MODE [DIR]; prints "ok" at the end
SCRIPT = """
import sys
from pathlib import Path

import numpy as np
from spiderft import tensors

mode = sys.argv[1]


def scipy_modules():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))


assert scipy_modules() == [], scipy_modules()
if mode == "missing":
    def no_file():
        raise FileNotFoundError("no _special_ufuncs extension module")
    tensors._ufuncs_file = no_file
elif mode == "broken":
    # a module that fails while it initialises
    path = Path(sys.argv[2]) / "_special_ufuncs.py"
    path.write_text("expit = None\\nraise ImportError('broken')\\n")
    tensors._ufuncs_file = lambda: str(path)

if mode != "direct":
    try:
        tensors._load_ufuncs()
    except (ImportError, OSError):
        pass
    else:
        raise AssertionError("the direct load did not fail")
    assert scipy_modules() == [], scipy_modules()

x = np.random.default_rng(0).normal(0.0, 300.0, 1 << 20)
grid = np.linspace(-800.0, 800.0, 100001)
edges = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, -745.2, 709.8, 36.7, 37.5,
                  -36.7, -37.5])
got = [tensors.sigmoid_array(v) for v in (x, grid, edges)]
loaded = scipy_modules()
if mode == "direct":
    # the extension alone: not the scipy package, nor any other module of it
    assert loaded == ["scipy.special._special_ufuncs"], loaded
else:
    assert "scipy.special" in loaded, loaded

import scipy.special

assert scipy.special.expit is tensors._expit()
for v, out in zip((x, grid, edges), got):
    want = np.clip(scipy.special.expit(v), tensors._SIG_LO, tensors._SIG_HI)
    assert out.tobytes() == want.tobytes()
print("ok")
"""


@pytest.mark.parametrize("mode", ["direct", "missing", "broken"])
def test_both_loader_paths_give_scipy_special_expit(mode, tmp_path):
    # direct: the extension alone, and a later import of scipy.special binds
    # the same ufunc; missing / broken: a failed direct load leaves no scipy
    # module behind and falls back to the import
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT, mode, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
