"""The first sigmoid's expit: scipy's _ufuncs extension, or scipy.special.

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


def special_modules():
    return sorted(n for n in sys.modules if n == "scipy.special" or n.startswith("scipy.special."))


if mode == "missing":
    def no_file():
        raise FileNotFoundError("no _ufuncs extension module")
    tensors._ufuncs_file = no_file
elif mode == "broken":
    # a module that loads a sibling of its own, then fails
    folder = Path(sys.argv[2])
    (folder / "_sibling.py").write_text("")
    (folder / "_ufuncs.py").write_text("from . import _sibling\\nraise ImportError('broken')\\n")
    tensors._ufuncs_file = lambda: str(folder / "_ufuncs.py")

if mode != "direct":
    try:
        tensors._load_ufuncs()
    except (ImportError, OSError):
        pass
    else:
        raise AssertionError("the direct load did not fail")
    assert special_modules() == [], special_modules()

x = np.random.default_rng(0).normal(0.0, 300.0, 1 << 20)
grid = np.linspace(-800.0, 800.0, 100001)
got = [tensors.sigmoid_array(v) for v in (x, grid)]
loaded = special_modules()
if mode == "direct":
    assert "scipy.special._ufuncs" in loaded and "scipy.special" not in loaded, loaded
else:
    assert "scipy.special" in loaded, loaded

import scipy.special

assert scipy.special.expit is tensors._expit()
for v, out in zip((x, grid), got):
    want = np.clip(scipy.special.expit(v), tensors._SIG_LO, tensors._SIG_HI)
    assert out.tobytes() == want.tobytes()
print("ok")
"""


@pytest.mark.parametrize("mode", ["direct", "missing", "broken"])
def test_both_loader_paths_give_scipy_special_expit(mode, tmp_path):
    # direct: the extension alone, and a later import of scipy.special binds
    # the same ufunc; missing / broken: a failed direct load leaves no
    # scipy.special module behind and falls back to the import
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT, mode, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
