"""The concurrent-Environment isolation gate is itself a sound oracle.

Beyond "the shipped workloads pass", the gate must *fail* when
instances genuinely share mutable state — otherwise it proves nothing.
The leak test builds a workload pair coupled through one shared list
(exactly the module-global shape rules G1/G4 forbid) and asserts the
interleaved checksums diverge from solo.
"""

import json

import pytest

from repro.harness.__main__ import main
from repro.harness.isogate import (
    STRIDES,
    gate_workloads,
    isolation_gate,
    run_interleaved,
    run_solo,
)
from repro.harness.workloads import Instance
from repro.sim import Environment


def test_tiny_gate_is_bit_identical():
    report = isolation_gate(scale="tiny")
    assert len(report) == 4
    for name, rec in report.items():
        assert rec["ok"], f"{name}: {rec['solo']} != {rec['interleaved']}"


def test_workload_builders_are_fresh_each_call():
    name, build = gate_workloads("tiny")[0]
    a, b = build(), build()
    assert a.env is not b.env
    assert a.name == b.name == name


def test_solo_matches_plain_run_path():
    """run_solo goes through env.run(until=done) — the production path."""
    _, build = gate_workloads("tiny")[0]
    name, cs = run_solo(build)
    assert name and len(cs) == 12


def _leaky_builder(shared):
    """A workload whose trajectory depends on cross-instance state.

    Each step appends to ``shared`` and schedules its next event after
    a delay derived from ``len(shared)`` — solo, the list grows only by
    this instance's own steps; interleaved, the other instance's
    appends shift every delay.
    """

    def build():
        env = Environment()
        done = env.event()
        trace = []

        def proc():
            for _ in range(5):
                shared.append(1)
                trace.append(env.now)
                yield env.timeout(1.0 + len(shared))
            done.succeed()

        env.process(proc())
        return Instance(
            name="leaky",
            env=env,
            start=lambda: None,
            stop=lambda: None,
            done=done,
            observe=lambda: {"trace": trace},
        )

    return build


def test_gate_detects_shared_mutable_state():
    shared = []
    build_a = _leaky_builder(shared)
    shared_b = shared  # same object: the leak
    build_b = _leaky_builder(shared_b)

    solo = {}
    for build in (build_a, build_b):
        shared.clear()
        _, cs = run_solo(build)
        solo.setdefault("leaky", []).append(cs)

    shared.clear()
    inter = run_interleaved([build_a])  # alone: matches solo
    assert inter["leaky"] == solo["leaky"][0]

    shared.clear()
    # Two coupled instances interleaved: run_interleaved keys by name,
    # so give the second a distinguishable wrapper.
    insts = {}

    def build_b_named():
        inst = build_b()
        inst.name = "leaky-2"
        return inst

    inter = run_interleaved([build_a, build_b_named])
    assert inter["leaky"] != solo["leaky"][0], (
        "the gate failed to detect deliberately shared state"
    )


def test_interleaving_strides_vary():
    assert len(set(STRIDES)) > 1


def test_main_tiny_json_report(tmp_path, capsys):
    out = tmp_path / "iso.json"
    assert main(["iso", "--scale", "tiny", "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gate"] == "iso" and report["pass"] is True
    assert len(report["instances"]) == 4
    assert all(rec["ok"] for rec in report["instances"].values())
    assert "iso: PASS" in capsys.readouterr().out


@pytest.mark.slow
def test_full_gate_includes_charm_layer():
    report = isolation_gate(scale="full")
    assert "namd/std-PME" in report and "namd/m2m-PME" in report
    assert all(rec["ok"] for rec in report.values())
