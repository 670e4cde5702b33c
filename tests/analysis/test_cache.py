"""Content-hash lint cache: hits, invalidation, cold starts, integrity."""

import json
from pathlib import Path

from repro.analysis import Analyzer, LintCache, default_rules
from repro.analysis.cache import ruleset_key
from repro.analysis.config import Config

BAD_SOURCE = "import random\n\n\ndef jitter():\n    return random.random()\n"
GLOBAL_SOURCE = "CACHE = {}\n"


def _analyzer(root, cache, with_project=False):
    cfg = Config(
        root=root,
        rules=["D2", "G1"],
        project_paths=(".",) if with_project else (),
        global_allow=(),
    )
    return Analyzer(root, default_rules(cfg), config=cfg, cache=cache)


def _fresh(tmp_path):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    (tmp_path / "glob.py").write_text(GLOBAL_SOURCE)
    return tmp_path / "cache.json"


def test_second_run_is_served_from_cache(tmp_path):
    cache_path = _fresh(tmp_path)
    rule_ids = ["D2", "G1"]
    first = _analyzer(tmp_path, LintCache(cache_path, rule_ids), True).run(["."])
    assert first.cache_hits == 0
    second = _analyzer(tmp_path, LintCache(cache_path, rule_ids), True).run(["."])
    # Two per-file entries plus the whole-program entry.
    assert second.cache_hits == 3
    assert [v.fingerprint for v in second.violations] == [
        v.fingerprint for v in first.violations
    ]


def test_file_edit_invalidates_only_that_file(tmp_path):
    cache_path = _fresh(tmp_path)
    rule_ids = ["D2", "G1"]
    _analyzer(tmp_path, LintCache(cache_path, rule_ids), False).run(["."])
    (tmp_path / "mod.py").write_text(BAD_SOURCE + "\nX = 1\n")
    result = _analyzer(tmp_path, LintCache(cache_path, rule_ids), False).run(["."])
    assert result.cache_hits == 1  # glob.py unchanged; mod.py re-analyzed
    assert [v.rule for v in result.violations] == ["D2"]


def test_project_entry_invalidated_by_any_project_file(tmp_path):
    cache_path = _fresh(tmp_path)
    rule_ids = ["D2", "G1"]
    _analyzer(tmp_path, LintCache(cache_path, rule_ids), True).run(["."])
    (tmp_path / "glob.py").write_text("CACHE = {}\nMORE = []\n")
    result = _analyzer(tmp_path, LintCache(cache_path, rule_ids), True).run(["."])
    g1 = [v for v in result.violations if v.rule == "G1"]
    assert {v.symbol for v in g1} == {"glob.CACHE", "glob.MORE"}


def test_ruleset_change_cold_starts(tmp_path):
    cache_path = _fresh(tmp_path)
    _analyzer(tmp_path, LintCache(cache_path, ["D2", "G1"]), False).run(["."])
    result = _analyzer(
        tmp_path, LintCache(cache_path, ["D2"]), False
    ).run(["."])
    assert result.cache_hits == 0


def test_ruleset_key_depends_on_analyzer_source():
    assert ruleset_key(["D2"]) != ruleset_key(["D2", "G1"])
    assert ruleset_key(["G1", "D2"]) == ruleset_key(["D2", "G1"])


def test_corrupt_cache_file_is_tolerated(tmp_path):
    cache_path = _fresh(tmp_path)
    cache_path.write_text("{not json")
    result = _analyzer(
        tmp_path, LintCache(cache_path, ["D2", "G1"]), False
    ).run(["."])
    assert result.cache_hits == 0
    assert [v.rule for v in result.violations] == ["D2"]
    # The flush rewrites a valid cache.
    assert json.loads(cache_path.read_text())["version"] == 1


def test_cached_pairs_preserve_pragma_suppression(tmp_path):
    (tmp_path / "mod.py").write_text(
        BAD_SOURCE.replace(
            "return random.random()",
            "return random.random()  # repro-lint: disable=D2",
        )
    )
    cache_path = tmp_path / "cache.json"
    _analyzer(tmp_path, LintCache(cache_path, ["D2", "G1"]), False).run(["."])
    result = _analyzer(
        tmp_path, LintCache(cache_path, ["D2", "G1"]), False
    ).run(["."])
    assert result.cache_hits == 1
    assert result.ok
    assert [v.rule for v in result.pragma_suppressed] == ["D2"]
