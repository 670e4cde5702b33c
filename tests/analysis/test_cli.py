"""CLI surface: exit codes, formats, self-check."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = "import random\n\n\ndef jitter():\n    return random.random()\n"


def _project(tmp_path, sources, extra_toml=""):
    """A throwaway project root with its own [tool.repro-lint] table."""
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["."]\n' + extra_toml
    )
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_repo_lints_clean():
    assert main(["--root", str(REPO_ROOT)]) == 0


def test_violations_exit_1(tmp_path, capsys):
    root = _project(tmp_path, {"mod.py": BAD_SOURCE})
    assert main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "mod.py:5" in out
    assert "D2" in out


def test_json_format(tmp_path, capsys):
    root = _project(tmp_path, {"mod.py": BAD_SOURCE})
    assert main(["--root", str(root), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["files_analyzed"] == 1
    (violation,) = data["violations"]
    assert violation["rule"] == "D2"
    assert violation["path"] == "mod.py"


def test_rules_filter_disables_other_rules(tmp_path):
    root = _project(tmp_path, {"mod.py": BAD_SOURCE})
    assert main(["--root", str(root), "--rules", "P2"]) == 0
    assert main(["--root", str(root), "--rules", "D2"]) == 1


def test_unknown_rule_is_usage_error(tmp_path):
    root = _project(tmp_path, {"mod.py": BAD_SOURCE})
    with pytest.raises(SystemExit) as exc:
        main(["--root", str(root), "--rules", "Z9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option", ["--write-baseline", "--no-baseline", "--no-cache"])
def test_baseline_options_are_gone(tmp_path, option):
    """Pragmas are the one way to suppress (no grandfather list to write),
    and every run is cold (no result cache to bypass)."""
    root = _project(tmp_path, {"mod.py": BAD_SOURCE})
    with pytest.raises(SystemExit) as exc:
        main(["--root", str(root), option])
    assert exc.value.code == 2
    assert not (root / "lint-baseline.json").exists()


def test_list_rules_prints_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D1", "D2", "D3", "D4", "P1", "P2", "P3", "P4"):
        assert rule_id in out


def test_self_check_passes(capsys):
    assert main(["--root", str(REPO_ROOT), "--self-check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_explicit_path_argument(tmp_path):
    root = _project(tmp_path, {"good.py": "x = 1\n", "bad.py": BAD_SOURCE})
    assert main(["--root", str(root), "good.py"]) == 0
    assert main(["--root", str(root), "bad.py"]) == 1


def test_unknown_rule_in_config_table_is_usage_error(tmp_path):
    """A typo in [tool.repro-lint] rules must not silently disable a rule."""
    root = _project(tmp_path, {"mod.py": "x = 1\n"}, extra_toml='rules = ["D2", "Q7"]\n')
    with pytest.raises(SystemExit) as exc:
        main(["--root", str(root)])
    assert exc.value.code == 2


def test_json_out_writes_report_file(tmp_path):
    root = _project(tmp_path, {"mod.py": BAD_SOURCE})
    out = root / "reports" / "lint.json"
    assert main(["--root", str(root), "--json-out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["files_analyzed"] == 1
    assert data["violations"][0]["rule"] == "D2"
    assert set(data) == {"files_analyzed", "violations", "pragma_suppressed"}


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    """A misspelled or retired key must not be silently ignored."""
    root = _project(
        tmp_path, {"mod.py": "x = 1\n"}, extra_toml='obs-hot-paths = ["."]\n'
    )
    with pytest.raises(SystemExit) as exc:
        main(["--root", str(root)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "obs-hot-paths" in err
    assert "hot-paths" in err.split("known:", 1)[1]


def test_project_rules_report_through_cli(tmp_path, capsys):
    """G findings surface in the CLI with their dotted symbols."""
    root = _project(
        tmp_path,
        {"state.py": "CACHE = {}\n"},
        extra_toml='rules = ["G1"]\nproject-paths = ["."]\nglobal-allow = []\n',
    )
    assert main(["--root", str(root)]) == 1
    assert "state.CACHE" in capsys.readouterr().out
