"""Per-rule fixture suite: each rule fires on its bad snippet and stays
silent on the good one.  This is the guarantee behind `make lint`: a
rule that silently stops matching fails here, not in production."""

from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = ["D1", "D2", "D3", "D4", "P1", "P2", "P3", "P4"]


def _analyze(path: Path):
    analyzer = Analyzer(FIXTURES, default_rules())
    return analyzer.analyze_file(path).violations


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_on_bad_fixture(rule_id):
    violations = _analyze(FIXTURES / f"{rule_id.lower()}_bad.py")
    fired = {v.rule for v in violations}
    assert rule_id in fired, f"{rule_id} missed its bad fixture (fired: {fired})"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_silent_on_good_fixture(rule_id):
    violations = _analyze(FIXTURES / f"{rule_id.lower()}_good.py")
    assert violations == [], [v.format() for v in violations]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_is_rule_specific(rule_id):
    """Bad fixtures demonstrate exactly their own rule family's defect."""
    violations = _analyze(FIXTURES / f"{rule_id.lower()}_bad.py")
    assert {v.rule for v in violations} == {rule_id}


def test_violation_carries_location():
    (v, *_) = _analyze(FIXTURES / "p2_bad.py")
    assert v.rule == "P2"
    assert v.path == "p2_bad.py"
    assert v.line > 1
    assert "class Signal" in v.line_text
    assert v.symbol == ""  # per-file findings name no project symbol


def test_d1_allowlist_exempts_harness_paths():
    """The same wall-clock source is clean under an allowlisted path."""
    from repro.analysis.config import Config

    rules = default_rules(Config(wallclock_allow=("src/repro/harness",)))
    d1 = next(r for r in rules if r.id == "D1")
    assert not d1.applies_to("src/repro/harness/pingpong.py")
    assert d1.applies_to("src/repro/sim/engine.py")


# -- F1: raw RNG forbidden inside src/repro/faults ------------------------
#
# F1 is path-scoped (it only applies inside the faults subsystem), so its
# fixture pair is analyzed with a config that maps the fixture files into
# scope rather than through the default-rules harness above.


def _analyze_f1(filename):
    from repro.analysis.config import Config

    cfg = Config(faults_paths=("f1_bad.py", "f1_good.py"))
    analyzer = Analyzer(FIXTURES, default_rules(cfg))
    return analyzer.analyze_file(FIXTURES / filename).violations


def test_f1_fires_on_seeded_raw_rng():
    """Seeded random.Random/default_rng are D2-clean but still F1 dirty."""
    violations = _analyze_f1("f1_bad.py")
    assert {v.rule for v in violations} == {"F1"}
    # import random + random.Random(...) + np.random.default_rng(...)
    assert len(violations) >= 3


def test_f1_silent_on_stream_registry_use():
    violations = _analyze_f1("f1_good.py")
    assert violations == [], [v.format() for v in violations]


def test_f1_scoped_to_faults_paths():
    """Outside src/repro/faults the rule does not apply at all."""
    rules = default_rules()
    f1 = next(r for r in rules if r.id == "F1")
    assert f1.applies_to("src/repro/faults/injector.py")
    assert f1.applies_to("src/repro/faults/sub/helper.py")
    assert not f1.applies_to("src/repro/sim/rng.py")
    assert not f1.applies_to("tests/faults/test_injector.py")


def test_f1_inert_on_fixture_dir_by_default():
    """The default config keeps F1 out of the shared fixture harness."""
    violations = _analyze(FIXTURES / "f1_bad.py")
    assert violations == [], [v.format() for v in violations]


# -- F2: best-effort QoS branches must not touch transport state -----------
#
# F2 is path-scoped to the transport/runtime trees (qos-paths), so its
# fixture pair is mapped into scope like F1's.


def _analyze_f2(filename):
    from repro.analysis.config import Config

    cfg = Config(qos_paths=("f2_bad.py", "f2_good.py"))
    analyzer = Analyzer(FIXTURES, default_rules(cfg))
    return analyzer.analyze_file(FIXTURES / filename).violations


def test_f2_fires_on_transport_state_in_best_effort_branch():
    violations = _analyze_f2("f2_bad.py")
    assert {v.rule for v in violations} == {"F2"}
    # stamp() call + .seq store + ._next_seq touch + .pending touch
    assert len(violations) >= 4


def test_f2_silent_on_clean_qos_branching():
    """Reliable-branch stamping and FRESH stamp_fresh are both legal."""
    violations = _analyze_f2("f2_good.py")
    assert violations == [], [v.format() for v in violations]


def test_f2_scoped_to_qos_paths():
    rules = default_rules()
    f2 = next(r for r in rules if r.id == "F2")
    assert f2.applies_to("src/repro/faults/recovery.py")
    assert f2.applies_to("src/repro/pami/context.py")
    assert f2.applies_to("src/repro/converse/machine.py")
    assert not f2.applies_to("src/repro/charm/chare.py")
    assert not f2.applies_to("tests/faults/test_qos.py")


def test_f2_inert_on_fixture_dir_by_default():
    violations = _analyze(FIXTURES / "f2_bad.py")
    assert violations == [], [v.format() for v in violations]


def test_f2_clean_on_the_transport_tree():
    """The shipped QoS branches satisfy their own contract (self-check)."""
    from repro.analysis.config import load_config

    root = Path(__file__).parents[2]
    cfg = load_config(root)
    analyzer = Analyzer(root, default_rules(cfg))
    result = analyzer.run(cfg.qos_paths, exclude=cfg.exclude)
    f2 = [v for v in result.violations if v.rule == "F2"]
    assert f2 == [], [v.format() for v in f2]


# -- T1: tracer/profiler/metrics calls in hot paths must be None-guarded ---
#
# T1 is path-scoped like F1 (it applies inside the configured hot-paths),
# so its fixture pairs are mapped into scope explicitly.  t1_* exercise
# tracer receivers, o1_* profiler and metrics receivers.


def _analyze_t1(filename, root=FIXTURES):
    from repro.analysis.config import Config

    analyzer = Analyzer(root, default_rules(Config(hot_paths=(filename,))))
    return analyzer.analyze_file(root / filename).violations


def test_t1_fires_on_unguarded_tracer_calls():
    violations = _analyze_t1("t1_bad.py")
    assert {v.rule for v in violations} == {"T1"}
    # rec.begin + self.tracer.mark + else-branch begin + tr.mark
    assert [v.line for v in violations] == [12, 13, 19, 22]


def test_t1_silent_on_guarded_calls():
    violations = _analyze_t1("t1_good.py")
    assert violations == [], [v.format() for v in violations]


def test_o1_fires_on_unguarded_obs_calls():
    """Profiler/metrics calls (the former O1 contract) report as T1."""
    violations = _analyze_t1("o1_bad.py")
    assert {v.rule for v in violations} == {"T1"}
    # prof.sample + self.profiler.charge + else-branch flush +
    # self.metrics.observe + metrics.inc
    assert [v.line for v in violations] == [12, 13, 19, 22, 25]
    assert all("docs/OBSERVABILITY.md" in v.message for v in violations)


def test_o1_silent_on_guarded_calls():
    violations = _analyze_t1("o1_good.py")
    assert violations == [], [v.format() for v in violations]


def test_t1_matches_each_receiver_to_its_own_methods(tmp_path):
    """A tracer method on a profiler (or vice versa) is not a hook call."""
    (tmp_path / "mod.py").write_text(
        "def step(tracer, profiler, metrics, prof):\n"
        "    tracer.observe(1.5)\n"
        "    tracer.sample(0)\n"
        "    profiler.begin(0, 'pme')\n"
        "    metrics.count('x')\n"
        "    prof.sample(0)\n"
    )
    violations = _analyze_t1("mod.py", root=tmp_path)
    assert [(v.rule, v.line) for v in violations] == [("T1", 6)]


def test_t1_scoped_to_hot_paths():
    """T1 covers the runtime tree but not the trace package itself."""
    from repro.analysis.config import load_config

    rules = default_rules(load_config(Path(__file__).parents[2]))
    t1 = next(r for r in rules if r.id == "T1")
    assert t1.applies_to("src/repro/converse/machine.py")
    assert t1.applies_to("src/repro/pami/commthread.py")
    assert t1.applies_to("src/repro/bgq/mu.py")
    assert not t1.applies_to("src/repro/trace/core.py")
    assert not t1.applies_to("src/repro/harness/timelines.py")


def test_o1_scoped_to_engine_hot_paths():
    """The one hot-paths scope covers the engine tree but not obs/serve."""
    from repro.analysis.config import load_config

    rules = default_rules(load_config(Path(__file__).parents[2]))
    t1 = next(r for r in rules if r.id == "T1")
    assert t1.applies_to("src/repro/sim/engine.py")
    assert t1.applies_to("src/repro/bgq/mu.py")
    assert t1.applies_to("src/repro/converse/machine.py")
    assert not t1.applies_to("src/repro/obs/profiler.py")
    assert not t1.applies_to("src/repro/serve/manager.py")
    assert not t1.applies_to("src/repro/harness/obsgate.py")


def _t1_on_shipped_hot_paths():
    from repro.analysis.config import load_config

    root = Path(__file__).parents[2]
    cfg = load_config(root)
    analyzer = Analyzer(root, default_rules(cfg))
    result = analyzer.run(cfg.hot_paths, exclude=cfg.exclude)
    return [v for v in result.violations if v.rule == "T1"]


def test_t1_clean_on_the_runtime_tree():
    """The shipped hot paths satisfy their own contract (self-check)."""
    t1 = _t1_on_shipped_hot_paths()
    assert t1 == [], [v.format() for v in t1]


def test_o1_clean_on_the_engine_tree():
    """No unguarded profiler/metrics call in the shipped hot paths."""
    obs = [v for v in _t1_on_shipped_hot_paths()
           if "docs/OBSERVABILITY.md" in v.message]
    assert obs == [], [v.format() for v in obs]
