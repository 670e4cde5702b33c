"""What a run loads is what it uses.

No run needs scipy.  Its one use was erfc, in the two real-space
Ewald kernels (``pair_forces``, ``ewald_real_space``); they now call
``repro.namd.erfc``, a numpy port with the same bytes.  scipy.special
cost a NAMD run about 17 MiB of peak RSS and 280 modules (its
array-API layer pulls in ``numpy.f2py``, ``numpy.testing``,
``unittest`` and ``email``) for that one function.  The linter and the
trace tools load no numpy at all.

Each check runs in one fresh interpreter: this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys

import repro.analysis, repro.trace
lint_and_trace_numpy = "numpy" in sys.modules

import repro.namd
from repro.converse import RunConfig
from repro.harness.pingpong import pingpong_run

cfg = RunConfig(nnodes=2, processes_per_node=1, workers_per_process=1)
run = pingpong_run(cfg, 32, trips=3, skip=1)
after_pingpong = "scipy" in sys.modules

import numpy as np
from repro.namd import ewald_real_space, pair_forces

pos = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 2.0, 0.5]])
q = np.array([0.4, -0.4, 0.2])
box = np.array([10.0, 10.0, 10.0])
energy = pair_forces(pos, pos, q, q, box, 5.0, 0.3, same_block=True)[0]
after_pair_forces = "scipy" in sys.modules
ewald = ewald_real_space(pos, q, box, 0.3, 5.0)[0]

from repro.harness.workloads import namd_run

step = namd_run(True, 1, 64, 2, 1, 1)
print(json.dumps({
    "lint_and_trace_numpy": lint_and_trace_numpy,
    "after_pingpong": after_pingpong,
    "oneway_us": run["oneway_us"],
    "after_pair_forces": after_pair_forces,
    "energy": energy,
    "ewald": ewald,
    "m2m_steps": len(step["step_times"]),
    "after_m2m_step": "scipy" in sys.modules,
}))
"""


def test_no_kernel_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert seen["lint_and_trace_numpy"] is False
    assert seen["oneway_us"] > 0
    assert seen["after_pingpong"] is False
    assert seen["after_pair_forces"] is False
    assert seen["energy"] != 0.0
    assert seen["ewald"] != 0.0
    assert seen["m2m_steps"] == 1
    assert seen["after_m2m_step"] is False
