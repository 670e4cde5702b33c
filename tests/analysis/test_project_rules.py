"""Whole-program (G/S family) fixture suite and ProjectContext coverage.

The project rules run through ``Analyzer.run`` with a config whose
``project_paths`` names the fixture files under test — the per-file
pass sees no paths, so only the whole-program pass fires.  S-family
scope is exercised both ways: s1/s3 fixtures import repro.sim.shard /
repro.bgq.shardnet (import-graph scoping), s2 fixtures are plain files
scoped via the ``spmd-paths`` config key.
"""

from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules
from repro.analysis.config import Config

FIXTURES = Path(__file__).parent / "fixtures"

PROJECT_RULE_IDS = ["G1", "G2", "G3", "G4", "S1", "S2", "S3"]


def _run_project(
    files, rules=None, spmd_paths=("s2_bad.py", "s2_good.py"),
    global_allow=(), root=FIXTURES,
):
    cfg = Config(
        root=root,
        rules=rules,
        project_paths=tuple(files),
        spmd_paths=tuple(spmd_paths),
        global_allow=tuple(global_allow),
    )
    analyzer = Analyzer(root, default_rules(cfg), config=cfg)
    return analyzer.run([])


@pytest.mark.parametrize("rule_id", PROJECT_RULE_IDS)
def test_rule_fires_on_bad_fixture(rule_id):
    result = _run_project([f"{rule_id.lower()}_bad.py"])
    fired = {v.rule for v in result.violations}
    assert rule_id in fired, f"{rule_id} missed its bad fixture (fired: {fired})"


@pytest.mark.parametrize("rule_id", PROJECT_RULE_IDS)
def test_rule_silent_on_good_fixture(rule_id):
    result = _run_project([f"{rule_id.lower()}_good.py"])
    assert result.violations == [], [v.format() for v in result.violations]


@pytest.mark.parametrize("rule_id", PROJECT_RULE_IDS)
def test_bad_fixture_specific_when_run_alone(rule_id):
    """With only its own rule enabled, each bad fixture fires exactly it.

    (g4_bad also fires G1 under the full set — the registry binding and
    the method read are two defects of one snippet — so specificity is
    asserted per-rule rather than per-file.)
    """
    result = _run_project([f"{rule_id.lower()}_bad.py"], rules=[rule_id])
    assert {v.rule for v in result.violations} == {rule_id}


# -- G family details ------------------------------------------------------

def test_g1_reports_write_site_and_symbol():
    result = _run_project(["g1_bad.py"], rules=["G1"])
    by_symbol = {v.symbol: v for v in result.violations}
    assert set(by_symbol) == {"g1_bad.ROUTE_CACHE", "g1_bad.PENDING"}
    cache = by_symbol["g1_bad.ROUTE_CACHE"]
    assert "written after import time at g1_bad.py:" in cache.message
    assert (cache.path, cache.symbol) == ("g1_bad.py", "g1_bad.ROUTE_CACHE")
    assert cache.line_text.startswith("ROUTE_CACHE")
    assert "unfrozen" in by_symbol["g1_bad.PENDING"].message


def test_g1_global_allow_exempts_symbol():
    result = _run_project(
        ["g1_bad.py"], rules=["G1"], global_allow=("g1_bad.ROUTE_CACHE",)
    )
    assert {v.symbol for v in result.violations} == {"g1_bad.PENDING"}


def test_g4_resolves_across_modules():
    """The registry and the method live in different files (one-hop import)."""
    result = _run_project(
        ["g4_cross_state.py", "g4_cross_reader.py"], rules=["G4"]
    )
    assert len(result.violations) == 1
    (v,) = result.violations
    assert v.path == "g4_cross_reader.py"
    assert v.symbol == "g4_cross_reader.Recorder.record->g4_cross_state.SHARED_LOG"


def test_g3_symbol_names_class_attribute():
    result = _run_project(["g3_bad.py"], rules=["G3"])
    assert {v.symbol for v in result.violations} == {
        "g3_bad.Dispatcher.handlers",
        "g3_bad.Dispatcher.defaults",
    }


# -- S family scope --------------------------------------------------------

def test_s_family_out_of_scope_without_spmd_marker():
    """The same seeding code is fine in a serial harness (no import, not
    in spmd-paths) — exactly why harness/pingpong.py stays clean."""
    result = _run_project(["s2_bad.py"], spmd_paths=())
    assert result.violations == []


def test_s2_counts_both_unguarded_shapes():
    result = _run_project(["s2_bad.py"], rules=["S2"])
    assert len(result.violations) == 2  # subscript receiver + unguarded name


def test_s2_accepts_conditional_expression_and_and_guards(tmp_path):
    """S2 shares T1's guard check: every dominating ``is not None`` shape."""
    (tmp_path / "mod.py").write_text(
        "def seed_ifexp(rt, msg, rank):\n"
        "    pe = rt.pes[rank]\n"
        "    pe.local_q.append(msg) if pe is not None else None\n"
        "\n\n"
        "def seed_and(rt, msg, rank):\n"
        "    pe = rt.pes[rank]\n"
        "    pe is not None and pe.local_q.append(msg)\n"
    )
    result = _run_project(
        ["mod.py"], rules=["S2"], spmd_paths=("mod.py",), root=tmp_path
    )
    assert result.violations == [], [v.format() for v in result.violations]


def test_s3_counts_both_short_keys():
    result = _run_project(["s3_bad.py"], rules=["S3"])
    assert len(result.violations) == 2  # bare .t + 2-component tuple


# -- suppression at project scope ------------------------------------------

def test_project_violation_pragma_suppressed(tmp_path):
    (tmp_path / "mod.py").write_text(
        "CACHE = {}  # repro-lint: disable=G1\n"
    )
    result = _run_project(["mod.py"], rules=["G1"], root=tmp_path)
    assert result.ok
    assert [v.rule for v in result.pragma_suppressed] == ["G1"]


def test_project_pass_needs_config():
    """Without a config the Analyzer runs file rules only (old call sites)."""
    analyzer = Analyzer(FIXTURES, default_rules())
    result = analyzer.run([])
    assert result.violations == []


# -- the shipped tree is G/S clean -----------------------------------------

def test_src_repro_has_no_unbaselined_project_findings():
    """The acceptance bar: zero unsuppressed G/S findings project-wide.

    Uses the real pyproject config (project-paths, global-allow), so a
    reintroduced module-level mutable breaks this test, not just CI.
    """
    from repro.analysis.config import load_config

    repo_root = Path(__file__).resolve().parents[2]
    cfg = load_config(repo_root)
    cfg.rules = ["G1", "G2", "G3", "G4", "S1", "S2", "S3"]
    analyzer = Analyzer(repo_root, default_rules(cfg), config=cfg)
    result = analyzer.run([], exclude=cfg.exclude)
    assert result.violations == [], [v.format() for v in result.violations]
