"""Exporter edge cases: empty profiles, zero-sample nodes, CLI verbs."""

import json

import pytest

from repro.obs import (
    Profile,
    ProfileSession,
    format_collapsed,
    format_compare,
    format_hotspots,
    load_profile,
    write_collapsed,
    write_profile_json,
)
from repro.obs.cli import main as obs_main
from repro.obs.exporters import compare_profiles
from repro.sim import Environment


def make_profile(label="t", n=60):
    with ProfileSession(label, stride=1) as sess:
        env = Environment()

        def worker(env):
            for i in range(n):
                yield env.timeout(0.0 if i % 2 else 1.0)

        env.process(worker(env), name="pe0")
        env.run()
    return sess.profile()


def empty_profile(label="empty"):
    return Profile(label, [], envs=0)


# -- collapsed-stack ----------------------------------------------------


def test_collapsed_emits_three_level_stacks():
    text = format_collapsed(make_profile())
    for line in text.strip().splitlines():
        stack, value = line.rsplit(" ", 1)
        assert stack.startswith("engine;")
        assert len(stack.split(";")) == 3
        assert int(value) > 0


def test_collapsed_empty_profile_is_empty_string():
    assert format_collapsed(empty_profile()) == ""


def test_collapsed_skips_zero_sample_nodes():
    profile = Profile(
        "z",
        [
            {"event_type": "Timeout", "owner": "a", "count": 5, "nanos": 100,
             "deque_pops": 0, "heap_pops": 5, "span_first": -1, "span_last": -1},
            {"event_type": "Timeout", "owner": "b", "count": 1, "nanos": 0,
             "deque_pops": 1, "heap_pops": 0, "span_first": -1, "span_last": -1},
        ],
        envs=1,
    )
    text = format_collapsed(profile)
    assert "engine;Timeout;a 100" in text
    assert ";b" not in text


def test_write_collapsed_roundtrip(tmp_path):
    profile = make_profile()
    out = tmp_path / "flame.txt"
    write_collapsed(profile, out)
    assert out.read_text() == format_collapsed(profile)


# -- hotspot table ------------------------------------------------------


def test_hotspots_table_mentions_coverage():
    text = format_hotspots(make_profile(), top=5)
    assert "coverage:" in text
    assert "share" in text


def test_hotspots_empty_profile():
    text = format_hotspots(empty_profile())
    assert "(empty profile)" in text


# -- compare ------------------------------------------------------------


def test_compare_deltas_sum_to_zero_for_same_profile():
    profile = make_profile()
    rows = compare_profiles(profile, profile)
    assert all(row["delta"] == 0.0 for row in rows)


def test_compare_detects_new_site():
    before = make_profile("a", n=30)
    extra = dict(before.nodes[0])
    extra["owner"] = "brand.new"
    after = Profile("b", [dict(n) for n in before.nodes] + [extra], envs=1)
    rows = compare_profiles(before, after)
    news = [r for r in rows if r["owner"] == "brand.new"]
    assert news and news[0]["share_before"] == 0.0
    assert news[0]["delta"] > 0


def test_format_compare_empty_profiles():
    text = format_compare(empty_profile("a"), empty_profile("b"))
    assert "(no sites in either profile)" in text


# -- JSON roundtrip + CLI ----------------------------------------------


def test_profile_json_file_roundtrip(tmp_path):
    profile = make_profile()
    path = tmp_path / "p.json"
    write_profile_json(profile, path)
    back = load_profile(path)
    assert back.to_json() == profile.to_json()
    # committed-artifact hygiene: trailing newline, sorted keys
    raw = path.read_text()
    assert raw.endswith("\n")
    assert json.loads(raw)["schema"] == 1


def test_cli_hotspots_and_flame(tmp_path, capsys):
    path = tmp_path / "p.json"
    write_profile_json(make_profile(), path)
    assert obs_main(["hotspots", str(path)]) == 0
    out = capsys.readouterr().out
    assert "coverage:" in out

    flame_out = tmp_path / "f.txt"
    assert obs_main(["flame", str(path), "-o", str(flame_out)]) == 0
    assert flame_out.read_text().startswith("engine;")


def test_cli_compare(tmp_path, capsys):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    write_profile_json(make_profile("a", n=30), pa)
    write_profile_json(make_profile("b", n=90), pb)
    assert obs_main(["compare", str(pa), str(pb)]) == 0
    out = capsys.readouterr().out
    assert "profile compare:" in out
    assert "delta" in out


@pytest.mark.parametrize("kind", ["missing", "not-json", "chrome-trace", "hotspots-baseline"])
def test_cli_bad_profile_exits_2_with_a_named_error(kind, tmp_path, capsys):
    bad = tmp_path / f"{kind}.json"
    if kind == "not-json":
        bad.write_text("{truncated")
    elif kind == "chrome-trace":
        bad.write_text(json.dumps({"traceEvents": []}))
    elif kind == "hotspots-baseline":
        bad.write_text(json.dumps({"benchmarks": {}}))
    good = tmp_path / "good.json"
    write_profile_json(make_profile(), good)
    for argv in (["hotspots", str(bad)], ["flame", str(bad)],
                 ["compare", str(good), str(bad)]):
        assert obs_main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"repro.obs: {bad}: ")
