"""Importing the package loads only its declared dependencies."""

import os
import subprocess
import sys

import repro

#: Import ``repro`` and every submodule, then report whether networkx
#: came along (it is not a dependency of the package).
_PROBE = """
import pkgutil
import sys

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(module.name)
print("networkx" in sys.modules)
"""


def test_no_networkx_after_importing_every_submodule():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
