"""Tests for the chaos fuzz harness (small cells of the CI matrix)."""

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.chaosbench import run_m2m_chaos, run_matrix, run_pingpong_chaos


def main(argv):
    return harness_main(["chaos", *argv])


def test_pingpong_under_drop5():
    r = run_pingpong_chaos("drop5", seed=0, trips=8)
    assert r["ok"] and r["payload_ok"] and r["quiesced"]
    assert r["workload"] == "pingpong" and r["profile"] == "drop5"
    assert r["gave_up"] == 0
    assert r["in_flight_left"] == 0
    assert r["qd_rounds"] >= 2


def test_m2m_under_drop5():
    r = run_m2m_chaos("drop5", seed=0, rounds=2, fanout=6)
    assert r["ok"] and r["payload_ok"] and r["quiesced"]
    assert r["workload"] == "m2m"
    assert r["gave_up"] == 0
    assert r["in_flight_left"] == 0


def test_pingpong_without_faults_is_clean():
    """The 'none' profile runs the harness with no injector at all."""
    r = run_pingpong_chaos("none", seed=0, trips=6)
    assert r["ok"]
    assert r["faults"] == {}
    assert r["retries"] == 0 and r["dup_suppressed"] == 0


def test_cells_are_deterministic():
    a = run_pingpong_chaos("chaos", seed=1, trips=6)
    b = run_pingpong_chaos("chaos", seed=1, trips=6)
    assert a == b


def test_run_matrix_shapes_cells():
    results = run_matrix(
        ["drop5"], [0], ["pingpong", "m2m"],
        pingpong={"trips": 4}, m2m={"rounds": 1, "fanout": 4},
    )
    assert [r["workload"] for r in results] == ["pingpong", "m2m"]
    assert all(r["ok"] for r in results)


def test_main_exit_status(capsys):
    rc = main(["--profiles", "drop1", "--seeds", "0", "--workloads", "pingpong",
               "--trips", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[ok] pingpong" in out
    assert "1/1 cells passed" in out
    assert "chaos: PASS" in out


def test_pingpong_partition_gives_up_and_quiesces():
    """Full partition: nothing echoes, the sender abandons the chain,
    and the run still terminates through quiescence (no hang)."""
    r = run_pingpong_chaos("partition", seed=0, trips=6)
    assert r["ok"] and r["quiesced"]
    assert r["gave_up"] > 0
    assert r["in_flight_left"] == 0


def test_m2m_partition_gives_up_and_quiesces():
    r = run_m2m_chaos("partition", seed=0, rounds=1, fanout=4)
    assert r["ok"] and r["quiesced"]
    assert r["gave_up"] > 0
    assert r["in_flight_left"] == 0


def test_jacobi_converges_under_chaos():
    from repro.harness.chaosbench import run_jacobi_chaos

    r = run_jacobi_chaos("chaos", seed=0, ncells=8, sweeps=40)
    assert r["ok"] and r["quiesced"]
    assert r["residual"] < 1.0e-3


def test_jacobi_best_effort_converges_under_drop():
    """The degraded-but-correct gate: halos ride best-effort, chaotic
    relaxation still contracts to the exact solution."""
    from repro.harness.chaosbench import run_jacobi_chaos

    r = run_jacobi_chaos("drop5", seed=0, ncells=8, sweeps=40,
                         qos="best_effort")
    assert r["ok"] and r["quiesced"]
    assert r["residual"] < 1.0e-3
    assert r["qos"] == "best_effort"


def test_lattice_reliable_vs_best_effort_rows():
    from repro.harness.chaosbench import run_lattice_chaos

    rel = run_lattice_chaos("drop5", seed=0, rounds=3)
    assert rel["ok"] and rel["payload_ok"]
    assert rel["distinct_updates"] == rel["expected_updates"]
    be = run_lattice_chaos("drop5", seed=0, rounds=3, qos="best_effort")
    assert be["ok"] and be["payload_ok"]
    assert be["distinct_updates"] <= be["expected_updates"]
    assert be["acks_sent"] == 0  # no reliability footprint at all


def test_lattice_without_comm_thread_is_refused_at_install():
    """With no comm thread the blocked kick handler stalls the burst
    (the run used to end as "ran out of events" with 0 of 64 updates);
    install() names the cause instead."""
    from repro.converse import CmiDirectManytomany
    from repro.converse.machine import ConverseRuntime, RunConfig
    from repro.sim import Environment
    from repro.workloads import LatticeHalo

    rt = ConverseRuntime(Environment(), RunConfig(nnodes=2, comm_threads_per_process=0))
    lat = LatticeHalo(rt, CmiDirectManytomany(rt))
    with pytest.raises(ValueError, match="_kick blocks its PE on send_done/recv_done"):
        lat.install()


def test_matrix_grows_a_qos_axis():
    results = run_matrix(
        ["drop5"], [0], ["pingpong"],
        qos_modes=["reliable", "best_effort"],
        pingpong={"trips": 4},
    )
    assert [r["qos"] for r in results] == ["reliable", "best_effort"]
    assert all(r["ok"] for r in results)


def test_main_writes_json_summary(tmp_path):
    out_path = tmp_path / "chaos.json"
    rc = main(["--profiles", "drop1", "--seeds", "0",
               "--workloads", "pingpong", "--trips", "4",
               "--qos", "reliable", "best_effort",
               "--json-out", str(out_path)])
    assert rc == 0
    import json

    summary = json.loads(out_path.read_text())
    assert summary["cells"] == 2
    assert summary["passed"] == 2
    assert summary["qos"] == ["reliable", "best_effort"]
    assert len(summary["results"]) == 2
