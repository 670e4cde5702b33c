"""The one gate driver (``python -m repro.harness <gate>``).

Every gate gets the same closing line, report envelope and exit status
from ``harness/__main__.py``; these tests pin that contract with a stub
gate, then drive the real iso gate red through the CLI.
"""

import json
import types

import pytest

from repro.harness import __main__ as cli
from repro.harness import isogate
from repro.harness.workloads import Instance
from repro.sim import Environment


def stub_gate(monkeypatch, gate):
    monkeypatch.setattr(
        cli, "GATES", {"stub": types.SimpleNamespace(__doc__="a stub gate", gate=gate)}
    )


def test_a_failure_is_exit_1_a_report_on_disk_and_a_FAIL_line(
    tmp_path, capsys, monkeypatch
):
    stub_gate(monkeypatch, lambda args: (["x drifted"], ["looked at x"], {"x": 1}))
    out = tmp_path / "new" / "dir" / "report.json"  # parents are created
    assert cli.main(["stub", "--json-out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["gate"] == "stub" and report["pass"] is False
    assert report["failures"] == ["x drifted"] and report["notes"] == ["looked at x"]
    assert report["x"] == 1 and report["wall_s"] >= 0
    captured = capsys.readouterr()
    assert "FAIL: x drifted" in captured.err
    assert "looked at x" in captured.out
    assert captured.out.rstrip().splitlines()[-1].startswith("stub: FAIL")
    assert not list(out.parent.glob("*.tmp"))  # atomic write left nothing behind


def test_a_clean_gate_is_exit_0_and_ends_on_PASS(capsys, monkeypatch):
    stub_gate(monkeypatch, lambda args: ([], [], {}))
    assert cli.main(["stub"]) == 0
    assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith("stub: PASS")


def test_a_missing_input_is_exit_2_could_not_run(capsys, monkeypatch):
    def gate(args):
        raise FileNotFoundError("baseline.json")

    stub_gate(monkeypatch, gate)
    assert cli.main(["stub"]) == 2
    assert "stub: could not run" in capsys.readouterr().err


def test_unknown_gate_name_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-gate"])
    assert exc.value.code == 2
    assert "no-such-gate" in capsys.readouterr().err


def test_every_shipped_gate_is_registered():
    assert sorted(cli.GATES) == [
        "bench", "chaos", "iso", "obs", "serve", "shard", "trace",
    ]
    assert all(callable(module.gate) for module in cli.GATES.values())


def test_coupled_instances_turn_the_iso_gate_red_through_the_cli(
    tmp_path, capsys, monkeypatch
):
    """The gate is only worth its green if shared state turns it red:
    two instances coupled through one list (the module-global shape
    lint rules G1/G4 forbid) must fail `iso` end to end."""
    shared = []

    def leaky(name):
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
            return Instance(env, lambda: None, lambda: None, done,
                            lambda: {"trace": trace}, name)

        return build

    monkeypatch.setattr(
        isogate, "gate_workloads",
        lambda scale: [(name, leaky(name)) for name in ("leaky-a", "leaky-b")],
    )
    out = tmp_path / "iso.json"
    assert cli.main(["iso", "--scale", "tiny", "--json-out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert not any(rec["ok"] for rec in report["instances"].values())
    captured = capsys.readouterr()
    assert "diverged under interleaving" in captured.err
    assert captured.out.rstrip().splitlines()[-1].startswith("iso: FAIL")
