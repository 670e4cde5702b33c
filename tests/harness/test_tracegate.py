"""The trace-gate driver: baseline writing, pass/fail/missing flows."""

import json

import pytest

pytestmark = pytest.mark.slow

from repro.harness import tracegate
from repro.harness.__main__ import main as harness_main


def main(argv):
    return harness_main(["trace", *argv])


#: The shipped configs, captured before the tiny-gate fixture swaps them.
REAL_CONFIGS = list(tracegate.GATE_CONFIGS)

TINY = [
    {
        "name": "gate_tiny",
        "label": "gate tiny",
        "kwargs": dict(n_atoms=128, nnodes=2, workers=2, comm_threads=1,
                       pme_every=2, use_m2m_pme=False, n_steps=2, seed=7),
    }
]


@pytest.fixture(autouse=True)
def tiny_gate(monkeypatch):
    monkeypatch.setattr(tracegate, "GATE_CONFIGS", TINY)


def test_missing_baselines_exit_2(tmp_path, capsys):
    rc = main([
        "--baselines", str(tmp_path / "baselines"),
        "--output", str(tmp_path / "output"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "trace: could not run" in err and "missing baselines" in err


def test_write_then_pass(tmp_path, capsys):
    basedir = tmp_path / "baselines"
    outdir = tmp_path / "output"
    assert main([
        "--baselines", str(basedir), "--output", str(outdir),
        "--write-baselines",
    ]) == 0
    assert (basedir / "gate_tiny.manifest.json").is_file()
    capsys.readouterr()
    # The DES is deterministic: a re-run diffs clean against itself.
    rc = main(["--baselines", str(basedir), "--output", str(outdir)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "trace: PASS" in out


def test_perturbed_baseline_fails_the_gate(tmp_path, capsys):
    basedir = tmp_path / "baselines"
    outdir = tmp_path / "output"
    main(["--baselines", str(basedir), "--output", str(outdir),
          "--write-baselines"])
    base = basedir / "gate_tiny.manifest.json"
    doc = json.loads(base.read_text())
    # Simulate a behavior regression: the committed baseline expects
    # far more MU descriptor traffic than the fresh run produces.
    doc["counters"]["hpm.mu.descriptors"] *= 3
    base.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["--baselines", str(basedir), "--output", str(outdir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL /counters/hpm.mu.descriptors" in out
    assert "trace: FAIL" in out


def test_committed_baselines_match_gate_configs():
    """Every shipped gate config has a committed baseline (CI contract)."""
    import pathlib

    repo = pathlib.Path(__file__).parents[2]
    assert REAL_CONFIGS, "gate ships no configurations"
    for cfg in REAL_CONFIGS:
        path = repo / "benchmarks" / "baselines" / f"{cfg['name']}.manifest.json"
        assert path.is_file(), f"missing committed baseline {path}"
        doc = json.loads(path.read_text())
        assert doc["label"] == cfg["label"]
        assert "counters" in doc and "critical_path" in doc
