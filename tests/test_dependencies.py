import os
import subprocess
import sys

import tripletkit


def test_importing_every_module_loads_no_scipy():
    # a fresh interpreter: this process may already have scipy loaded
    code = (
        "import importlib, pkgutil, sys, tripletkit\n"
        "names = [m.name for m in pkgutil.iter_modules(tripletkit.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('tripletkit.' + name)\n"
        "print(len(names), sorted(m for m in sys.modules\n"
        "                         if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(tripletkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split(" ", 1)
    assert int(out[0]) >= 9
    assert out[1].strip() == "[]"
