"""The reach census over a fixture tree (``python -m repro.analysis reach``)."""

import json
import shutil
from pathlib import Path

from repro.analysis.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "reach"
APP = "src/repro/app.py"


def census(tmp_path, monkeypatch, keep):
    """Run the tool over a copy of the fixture with this ``[keep]`` table."""
    root = tmp_path / "tree"
    shutil.copytree(FIXTURE, root)
    toml = (root / "reach.toml").read_text().split("[keep]")[0]
    rows = "".join(f'"{APP}:{name}" = "{reason}"\n' for name, reason in keep.items())
    (root / "reach.toml").write_text(f"{toml}[keep]\n{rows}")
    monkeypatch.chdir(root)
    code = main(["reach"])
    return code, json.loads((root / "reach_report.json").read_text())


def test_classes_and_a_complete_keep_list_pass(tmp_path, monkeypatch, capsys):
    code, report = census(tmp_path, monkeypatch, {"tested_only": "oracle", "dead": "api"})
    assert code == 0, capsys.readouterr().out
    classes = report["defs"]
    assert classes[f"{APP}:used"] == "program"
    assert classes[f"{APP}:main"] == "program"
    # reached only inside a multiprocessing fork child, which ends in os._exit
    assert classes[f"{APP}:forked_only"] == "program"
    assert classes[f"{APP}:_child"] == "program"
    assert classes[f"{APP}:tested_only"] == "test-only"
    assert classes[f"{APP}:dead"] == "unreached"
    assert report["findings"] == [] and report["keep_errors"] == []


def test_findings_and_stale_keep_entries_turn_it_red(tmp_path, monkeypatch, capsys):
    code, report = census(tmp_path, monkeypatch, {"used": "api", "gone": "oracle"})
    out = capsys.readouterr().out
    assert code == 1
    assert f"reach: test-only {APP}:tested_only (2 lines)" in out
    assert f"reach: unreached {APP}:dead (2 lines)" in out
    assert f"reach: keep {APP}:used: reached by a program" in out
    assert f"reach: keep {APP}:gone: no such def" in out
    assert len(report["findings"]) == 2 and len(report["keep_errors"]) == 2


def test_a_reason_outside_the_set_is_red(tmp_path, monkeypatch, capsys):
    code, report = census(tmp_path, monkeypatch, {"tested_only": "handy", "dead": "api"})
    assert code == 1
    assert report["keep_errors"] == [
        f"keep {APP}:tested_only: 'handy' is not one of "
        "oracle, baseline, human, failure, protocol, api"
    ]


def test_reach_takes_no_options(capsys):
    assert main(["reach", "--fast"]) == 2
    assert "takes no options" in capsys.readouterr().err
