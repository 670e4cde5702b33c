"""The serve gate's interleave pass is itself a sound oracle.

Beyond "the shipped workloads pass", the pass must *fail* when
instances genuinely share mutable state — otherwise it proves nothing.
The leak test builds a workload pair coupled through one shared list
(exactly the module-global shape rules G1/G4 forbid) and asserts the
interleaved checksums diverge from solo.
"""

import json

import pytest

from repro.harness.__main__ import main
from repro.harness.isogate import STRIDES, gate_workloads, run_interleaved
from repro.harness.servebench import serve_workloads, solo_checksums
from repro.harness.workloads import Instance, run_instance
from repro.sim import Environment


def solo(build):
    """One workload alone through the normal ``run(until=done)`` path."""
    inst = build()
    run_instance(inst)
    return inst.checksum()


def test_tiny_gate_is_bit_identical():
    workloads = gate_workloads("tiny")
    inter = run_interleaved([build for _, build in workloads])
    assert len(inter) == 4
    for name, build in workloads:
        assert inter[name] == solo(build), name


def test_workload_builders_are_fresh_each_call():
    name, build = gate_workloads("tiny")[0]
    a, b = build(), build()
    assert a.env is not b.env
    assert a.name == b.name == name


def test_solo_matches_plain_run_path():
    """The serve gate's one solo map (EnvTasks run to done) is the plain
    ``run_instance`` digest, so the interleaved pass can be held to it."""
    served_solo = solo_checksums(serve_workloads("tiny"))
    for name, build in gate_workloads("tiny"):
        assert served_solo[name] == solo(build)
        assert len(served_solo[name]) == 12


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
    build_b = _leaky_builder(shared)  # same list: the leak

    shared.clear()
    alone = solo(build_a)

    shared.clear()
    assert run_interleaved([build_a])["leaky"] == alone  # alone: matches solo

    def build_b_named():
        inst = build_b()
        inst.name = "leaky-2"
        return inst

    shared.clear()
    inter = run_interleaved([build_a, build_b_named])
    assert inter["leaky"] != alone, (
        "the interleave pass failed to detect deliberately shared state"
    )


def test_interleaving_strides_vary():
    assert len(set(STRIDES)) > 1


@pytest.mark.slow
def test_main_tiny_json_report(tmp_path, capsys):
    out = tmp_path / "serve.json"
    assert main(["serve", "--scale", "tiny", "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gate"] == "serve" and report["pass"] is True
    assert len(report["interleaved"]) == 4
    assert all(rec["ok"] for rec in report["interleaved"].values())
    assert "serve: PASS" in capsys.readouterr().out


@pytest.mark.slow
def test_full_gate_includes_charm_layer():
    workloads = gate_workloads("full")
    inter = run_interleaved([build for _, build in workloads])
    assert "namd/std-PME" in inter and "namd/m2m-PME" in inter
    for name, build in workloads:
        assert inter[name] == solo(build), name
