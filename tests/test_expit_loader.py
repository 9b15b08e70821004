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
from types import SimpleNamespace

import numpy as np
from spiderft import tensors

mode = sys.argv[1]
UFUNCS = "scipy.special._special_ufuncs"


def scipy_modules():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))


assert scipy_modules() == [], scipy_modules()
if mode == "missing":
    # no scipy package on the path
    tensors.find_spec = lambda name: None
elif mode == "broken":
    # a scipy root whose module fails while it initialises
    root = Path(sys.argv[2])
    (root / "special").mkdir()
    (root / "special" / "_special_ufuncs.py").write_text(
        "expit = None\\nraise ImportError('broken')\\n")
    tensors.find_spec = lambda name: SimpleNamespace(submodule_search_locations=[str(root)])
elif mode == "imported":
    import scipy.special

    before = sys.modules[UFUNCS]
    tensors.find_spec = None  # the imported module is used: no search for its file
    assert tensors._expit() is scipy.special.expit
    assert sys.modules[UFUNCS] is before

if mode in ("missing", "broken"):
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
    assert loaded == [UFUNCS], loaded
else:
    assert "scipy.special" in loaded, loaded

import scipy.special

assert scipy.special.expit is tensors._expit()
for v, out in zip((x, grid, edges), got):
    want = np.clip(scipy.special.expit(v), tensors._SIG_LO, tensors._SIG_HI)
    assert out.tobytes() == want.tobytes()
print("ok")
"""


@pytest.mark.parametrize("mode", ["direct", "missing", "broken", "imported"])
def test_both_loader_paths_give_scipy_special_expit(mode, tmp_path):
    # direct: the extension alone, and a later import of scipy.special binds
    # the same ufunc; missing / broken: a failed direct load leaves no scipy
    # module behind and falls back to the import; imported: scipy.special's
    # own extension module is used as it is
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT, mode, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
