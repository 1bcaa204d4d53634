"""What a fresh interpreter loads to classify a spec and evaluate one density point.

numpy is the package's only run-time dependency: mpmath, the verification
module and the CLI's argparse, csv and json load when a command that uses
them runs, and every public name still resolves.
"""

import os
import subprocess
import sys

import pytest

import gammaratio
from gammaratio import foxh

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gammaratio.__file__)))

DEFERRED = ("mpmath", "gammaratio.verification", "argparse", "csv", "json")

SCRIPT = """
import sys
import gammaratio, gammaratio.cli
spec = gammaratio.RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6))
gammaratio.classify(spec)
gammaratio.fox_h(spec, 0.01728)
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
"""


def fresh(code, *args):
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return done.stdout.split()


def test_classify_and_fox_h_load_no_deferred_module():
    assert fresh(SCRIPT, *DEFERRED) == []


def test_deferred_names_resolve():
    code = SCRIPT + """
from gammaratio import foxh
from gammaratio import *
assert gammaratio.laplace_reconstruct is gammaratio.verification.laplace_reconstruct
assert set(gammaratio.__all__) <= set(dir(gammaratio))
assert all(getattr(gammaratio, name) is globals()[name] for name in gammaratio.__all__)
assert foxh.mpmath is sys.modules["mpmath"]
print("ok")
"""
    assert fresh(code) == ["ok"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        gammaratio.no_such_name
    with pytest.raises(AttributeError):
        foxh.no_such_name
