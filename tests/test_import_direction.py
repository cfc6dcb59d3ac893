"""Import direction: the scheme and serving layers never load the simulator.

``repro.core`` (the compiler and the paper's kernel plans), ``repro.tpu``
(the device model) and ``repro.perf`` (the paper's figures) price and model
the HE stack; the stack itself -- ``repro.ckks``, the serving tier a shard
process boots and the circuits it serves -- must not import them.  Each check
runs in a fresh interpreter, so modules other tests loaded do not mask an
import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SIMULATOR_PACKAGES = ("repro.core", "repro.tpu", "repro.perf")


@pytest.mark.parametrize(
    "module",
    # repro.testing.chaos holds circuits a shard unpickles at its first request.
    ["repro.ckks", "repro.serving.shard", "repro.testing.chaos"],
)
def test_loads_no_simulator_module(module):
    code = (
        f"import sys, {module}\n"
        f"for name in sorted(sys.modules):\n"
        f"    if name.startswith({SIMULATOR_PACKAGES!r}):\n"
        f"        print(name)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == []
