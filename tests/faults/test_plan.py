"""Tests for fault plans: profiles, validation, the REPRO_FAULTS switch."""

import pytest

from repro.bgq.params import CYCLES_PER_US
from repro.envvar import EnvVarError
from repro.faults import FaultPlan, FaultRates, LinkDownWindow, PROFILES


# -- rates ------------------------------------------------------------------


def test_rates_total_and_validate():
    r = FaultRates(drop=0.1, duplicate=0.2, delay=0.3)
    assert r.total == pytest.approx(0.6)
    r.validate("ok")  # no raise


@pytest.mark.parametrize(
    "rates",
    [
        FaultRates(drop=-0.1),
        FaultRates(drop=0.6, duplicate=0.6),  # sum > 1
    ],
)
def test_bad_rates_rejected(rates):
    with pytest.raises(ValueError):
        rates.validate("bad")


def test_plan_validates_rates_on_construction():
    with pytest.raises(ValueError):
        FaultPlan(link=FaultRates(drop=1.5))
    with pytest.raises(ValueError):
        FaultPlan(per_fifo={(0, 0): FaultRates(drop=-1.0)})
    with pytest.raises(ValueError):
        FaultPlan(retry_backoff=0.5)


# -- link-down windows ------------------------------------------------------


def test_down_window_wildcards():
    w = LinkDownWindow(None, None, 10.0, 20.0)
    assert w.matches((0, 1)) and w.matches((7, 3))
    assert w.active(10.0) and w.active(19.9)
    assert not w.active(9.9) and not w.active(20.0)
    out_of_3 = LinkDownWindow(3, None, 0.0, 1.0)
    assert out_of_3.matches((3, 0)) and not out_of_3.matches((0, 3))


def test_down_window_for_picks_first_active():
    w1 = LinkDownWindow(None, None, 0.0, 10.0)
    w2 = LinkDownWindow(None, None, 5.0, 30.0)
    plan = FaultPlan(down=(w1, w2))
    assert plan.down_window_for(2.0) is w1
    assert plan.down_window_for(15.0) is w2
    assert plan.down_window_for(40.0) is None


# -- lookups ----------------------------------------------------------------


def test_per_link_and_per_fifo_overrides():
    hot = FaultRates(drop=0.5)
    plan = FaultPlan(
        link=FaultRates(drop=0.01),
        per_link={(0, 1): hot},
        per_fifo={(1, 2): hot},
    )
    assert plan.rates_for((0, 1)) is hot
    assert plan.rates_for((1, 0)).drop == 0.01
    assert plan.fifo_rates_for(1, 2) is hot
    assert plan.fifo_rates_for(0, 0).total == 0.0


def test_is_null():
    assert FaultPlan().is_null
    assert FaultPlan.profile("none").is_null
    assert not FaultPlan.profile("drop5").is_null
    # An outage window alone makes a plan non-null even with zero rates.
    assert not FaultPlan(down=(LinkDownWindow(None, None, 0.0, 1.0),)).is_null


def test_retry_policy_unit_conversion():
    plan = FaultPlan(retry_timeout_us=10.0, retry_backoff=3.0, retry_max=4)
    pol = plan.retry_policy()
    assert pol.timeout_cycles == pytest.approx(10.0 * CYCLES_PER_US)
    assert pol.backoff == 3.0
    assert pol.max_retries == 4


# -- profiles ---------------------------------------------------------------


def test_profile_construction():
    plan = FaultPlan.profile("drop5", seed=3)
    assert plan.name == "drop5"
    assert plan.seed == 3
    assert plan.link.drop == pytest.approx(0.05)


def test_every_registered_profile_builds():
    for name in PROFILES:
        plan = FaultPlan.profile(name, seed=1)
        assert plan.name == name


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown fault profile"):
        FaultPlan.profile("meteor-strike")


def test_profile_overrides():
    plan = FaultPlan.profile("drop5", link=FaultRates(drop=0.5))
    assert plan.link.drop == 0.5


# -- REPRO_FAULTS environment switch ----------------------------------------


def test_from_env_unset_is_none(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert FaultPlan.from_env() is None


@pytest.mark.parametrize("spec", ["", "  ", "0", "none", "off"])
def test_from_env_disabled_spellings(monkeypatch, spec):
    monkeypatch.setenv("REPRO_FAULTS", spec)
    assert FaultPlan.from_env() is None


def test_from_env_profile(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "drop10")
    plan = FaultPlan.from_env()
    assert plan.name == "drop10" and plan.seed == 0


def test_from_env_profile_with_seed(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "chaos@7")
    plan = FaultPlan.from_env()
    assert plan.name == "chaos" and plan.seed == 7


def test_from_env_unknown_profile_raises(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "nope")
    with pytest.raises(ValueError):
        FaultPlan.from_env()


@pytest.mark.parametrize("spec,detail", [
    ("drop5@x", "invalid literal for int"),  # used to be all the message said
    ("nope@3", "known: chaos, corrupt2"),
])
def test_from_env_error_names_variable_value_and_grammar(monkeypatch, spec, detail):
    monkeypatch.setenv("REPRO_FAULTS", spec)
    with pytest.raises(EnvVarError) as exc:
        FaultPlan.from_env()
    message = str(exc.value)
    assert f"REPRO_FAULTS={spec!r}" in message
    assert "<profile>[@<int seed>]" in message
    assert detail in message
