"""Importing shiftbench pins BLAS to one thread unless the caller chose a count.

``--jobs N`` runs N worker processes; threaded BLAS in each of them would
oversubscribe the CPUs.  Each case runs in a fresh interpreter, since BLAS
reads its thread count once, when numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import shiftbench

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the thread count numpy's bundled OpenBLAS runs with, where it exposes one
PROBE = """
import ctypes, glob, json, os, shiftbench, numpy
count = None
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
for path in libs:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            count = getattr(lib, name)()
print(json.dumps({"env": [os.environ.get(v) for v in %r], "blas": count}))
""" % (PINS,)


def probe(**pins):
    paths = [str(Path(shiftbench.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in PINS}
    env.update(pins, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                            capture_output=True, text=True)
    return json.loads(result.stdout)


def test_import_pins_blas_to_one_thread():
    got = probe()
    assert got["env"] == ["1", "1", "1"]
    assert got["blas"] in (None, 1)


def test_explicit_thread_count_wins():
    got = probe(OPENBLAS_NUM_THREADS="2")
    assert got["env"] == ["2", "1", "1"]
    # OpenBLAS runs no more threads than there are CPUs
    assert got["blas"] in (None, min(2, os.cpu_count()))
