"""Pragma suppression semantics."""

from repro.analysis import Analyzer, default_rules

BAD_SOURCE = """\
import random


def jitter():
    return random.random()
"""


def _run(tmp_path, source, name="mod.py"):
    f = tmp_path / name
    f.write_text(source)
    analyzer = Analyzer(tmp_path, default_rules())
    return analyzer.run([name])


def test_unsuppressed_violation_reported(tmp_path):
    result = _run(tmp_path, BAD_SOURCE)
    assert [v.rule for v in result.violations] == ["D2"]
    assert not result.ok


def test_line_pragma_suppresses(tmp_path):
    source = BAD_SOURCE.replace(
        "return random.random()",
        "return random.random()  # repro-lint: disable=D2",
    )
    result = _run(tmp_path, source)
    assert result.ok
    assert [v.rule for v in result.pragma_suppressed] == ["D2"]


def test_line_pragma_is_rule_specific(tmp_path):
    source = BAD_SOURCE.replace(
        "return random.random()",
        "return random.random()  # repro-lint: disable=D1",
    )
    result = _run(tmp_path, source)
    assert [v.rule for v in result.violations] == ["D2"]


def test_line_pragma_multiple_rules(tmp_path):
    source = BAD_SOURCE.replace(
        "return random.random()",
        "return random.random()  # repro-lint: disable=D1, D2",
    )
    assert _run(tmp_path, source).ok


def test_file_pragma_suppresses_whole_file(tmp_path):
    source = "# repro-lint: disable-file=D2\n" + BAD_SOURCE
    result = _run(tmp_path, source)
    assert result.ok
    assert [v.rule for v in result.pragma_suppressed] == ["D2"]


def test_disable_all_pragma(tmp_path):
    source = BAD_SOURCE.replace(
        "return random.random()",
        "return random.random()  # repro-lint: disable=all",
    )
    assert _run(tmp_path, source).ok
