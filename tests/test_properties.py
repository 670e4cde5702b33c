"""Property-based tests (hypothesis) over core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgq import Torus
from repro.charm import Chare, Charm, greedy_rebalance
from repro.converse import ConverseRuntime, RunConfig
from repro.converse.messages import ConverseMessage
from repro.fft import PencilGrid, split_ranges
from repro.namd.pme import bspline_weights, spread_charges
from repro.sim import Environment


# ---------- torus -----------------------------------------------------------

shapes = st.lists(st.integers(1, 5), min_size=1, max_size=5).filter(
    lambda s: 2 <= np.prod(s) <= 200
)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, data=st.data())
def test_route_length_equals_hops_and_connects(shape, data):
    t = Torus(shape)
    a = data.draw(st.integers(0, t.nnodes - 1))
    b = data.draw(st.integers(0, t.nnodes - 1))
    route = t.route(a, b)
    assert len(route) == t.hops(a, b)
    cur = a
    for (u, v) in route:
        assert u == cur
        assert v in t.neighbors(u) or u == v
        cur = v
    assert cur == b or (a == b and route == ())


@settings(max_examples=40, deadline=None)
@given(shape=shapes, data=st.data())
def test_hops_is_a_metric(shape, data):
    t = Torus(shape)
    a = data.draw(st.integers(0, t.nnodes - 1))
    b = data.draw(st.integers(0, t.nnodes - 1))
    c = data.draw(st.integers(0, t.nnodes - 1))
    assert t.hops(a, a) == 0
    assert t.hops(a, b) == t.hops(b, a)
    assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)
    assert t.hops(a, b) <= t.max_hops()


@settings(max_examples=40, deadline=None)
@given(shape=shapes, data=st.data())
def test_rank_coords_bijection(shape, data):
    t = Torus(shape)
    r = data.draw(st.integers(0, t.nnodes - 1))
    assert t.rank(t.coords(r)) == r


# ---------- pencil decomposition -----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 64), parts=st.integers(1, 64))
def test_split_ranges_partition(n, parts):
    if parts > n:
        with pytest.raises(ValueError):
            split_ranges(n, parts)
        return
    rngs = split_ranges(n, parts)
    covered = [i for (a, b) in rngs for i in range(a, b)]
    assert covered == list(range(n))
    sizes = [b - a for (a, b) in rngs]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(2, 10), ny=st.integers(2, 10), nz=st.integers(2, 10),
    data=st.data(),
)
def test_pencil_scatter_gather_identity(nx, ny, nz, data):
    pr = data.draw(st.integers(1, min(nx, ny)))
    pc = data.draw(st.integers(1, min(ny, nz)))
    g = PencilGrid((nx, ny, nz), pr, pc)
    rng = np.random.default_rng(0)
    full = rng.standard_normal((nx, ny, nz)) + 0j
    assert np.allclose(g.gather_z(g.scatter_z(full)), full)
    # Every element is moved exactly once per transpose.
    total = sum(
        g.zy_block_bytes(r, c, k)
        for r in range(pr) for c in range(pc) for k in range(pc)
    )
    assert total == nx * ny * nz * 16


# ---------- PME -----------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(order=st.integers(2, 6), data=st.data())
def test_bspline_partition_of_unity_property(order, data):
    frac = np.asarray(data.draw(
        st.lists(st.floats(0, 0.999999), min_size=1, max_size=20)
    ))
    w, dw = bspline_weights(frac, order)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert np.allclose(dw.sum(axis=1), 0.0, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 12),
    k=st.integers(8, 20),
    seed=st.integers(0, 1000),
)
def test_spread_charge_conservation_property(n, k, seed):
    rng = np.random.default_rng(seed)
    box = np.array([9.0, 10.0, 11.0])
    pos = rng.random((n, 3)) * box
    q = rng.standard_normal(n)
    grid = spread_charges(pos, q, (k, k, k), box, order=4)
    assert grid.sum() == pytest.approx(q.sum(), abs=1e-10)


# ---------- load balancer ---------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    loads=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40),
    npes=st.integers(1, 8),
)
def test_greedy_rebalance_bounds(loads, npes):
    pairs = list(enumerate(loads))
    assignment = greedy_rebalance(pairs, npes)
    assert set(assignment) == set(range(len(loads)))
    pe_load = [0.0] * npes
    for idx, load in pairs:
        pe_load[assignment[idx]] += load
    # Greedy LPT bound: max load <= average + largest item.
    avg = sum(loads) / npes
    assert max(pe_load) <= avg + max(loads) + 1e-9


# ---------- runtime determinism -----------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    nmsgs=st.integers(1, 12),
    sizes=st.lists(st.integers(8, 8192), min_size=1, max_size=4),
)
def test_runtime_schedule_is_deterministic(nmsgs, sizes):
    """Identical workloads produce bit-identical simulated schedules."""

    def run():
        env = Environment()
        rt = ConverseRuntime(env, RunConfig(nnodes=2, workers_per_process=2))
        arrivals = []
        done = env.event()
        total = nmsgs * len(sizes)

        def sink(pe, msg):
            arrivals.append((env.now, pe.rank, msg.nbytes))
            if len(arrivals) == total:
                done.succeed()

        hid = rt.register_handler(sink)

        def kick(pe, msg):
            for i in range(nmsgs):
                for s in sizes:
                    yield from pe.send((i % 3) + 1, hid, s, None)

        kid = rt.register_handler(kick)
        rt.pes[0].local_q.append(ConverseMessage(kid, 0, None, 0, 0))
        rt.run_until(done)
        return arrivals

    assert run() == run()


# ---------- charm load metering --------------------------------------------------

def test_measured_loads_feed_rebalance():
    charm = Charm(RunConfig(nnodes=1, workers_per_process=2))

    class Worker(Chare):
        def __init__(self, idx):
            pass

        def work(self, amount):
            yield from self.charge(amount)

    arr = charm.create_array("w", Worker, range(4))
    for i in range(4):
        charm.seed(arr, i, "work", (i + 1) * 100_000)
    charm.start()
    charm.env.run(until=100_000_000)
    charm.runtime.stop()
    loads = dict(charm.measured_loads(arr))
    # Heavier elements measured heavier.
    assert loads[3] > loads[2] > loads[1] > loads[0] > 0
    assignment = greedy_rebalance(list(loads.items()), npes=2)
    pe_load = [0.0, 0.0]
    for idx, load in loads.items():
        pe_load[assignment[idx]] += load
    assert max(pe_load) / sum(pe_load) < 0.7  # reasonably balanced
