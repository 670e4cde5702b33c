"""Tests for 5D torus topology and routing."""

import pytest

from repro.bgq import PARTITION_SHAPES, BGQMachine, Torus, bgq_partition_shape
from repro.sim import Environment


def test_known_partition_shapes():
    assert bgq_partition_shape(512) == (4, 4, 4, 4, 2)
    assert bgq_partition_shape(1024) == (4, 4, 4, 8, 2)
    assert bgq_partition_shape(16384) == (8, 8, 16, 8, 2)


def test_partition_shape_product_matches():
    for n, shape in PARTITION_SHAPES.items():
        prod = 1
        for s in shape:
            prod *= s
        assert prod == n, f"shape {shape} does not have {n} nodes"


def test_derived_shape_for_unknown_power_of_two():
    shape = bgq_partition_shape(2**15)
    prod = 1
    for s in shape:
        prod *= s
    assert prod == 2**15
    assert shape[4] <= 2  # E dimension capped at 2


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        bgq_partition_shape(100)


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        bgq_partition_shape(0)


def test_rank_coords_roundtrip():
    t = Torus((2, 3, 4))
    for r in range(t.nnodes):
        assert t.rank(t.coords(r)) == r


def test_coords_out_of_range():
    t = Torus((2, 2))
    with pytest.raises(ValueError):
        t.coords(4)
    with pytest.raises(ValueError):
        t.rank((2, 0))
    with pytest.raises(ValueError):
        t.rank((0,))


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        Torus(())
    with pytest.raises(ValueError):
        Torus((2, 0, 2))


def test_hops_wraparound():
    t = Torus((8,))
    assert t.hops(0, 1) == 1
    assert t.hops(0, 7) == 1  # wraps
    assert t.hops(0, 4) == 4  # antipode
    assert t.hops(3, 3) == 0


def test_hops_multidim():
    t = Torus((4, 4, 4, 4, 2))
    a = t.rank((0, 0, 0, 0, 0))
    b = t.rank((2, 1, 3, 2, 1))
    assert t.hops(a, b) == 2 + 1 + 1 + 2 + 1


def test_max_hops_is_diameter():
    t = Torus((4, 4, 4, 4, 2))
    assert t.max_hops() == 2 + 2 + 2 + 2 + 1
    worst = max(t.hops(0, r) for r in range(t.nnodes))
    assert worst == t.max_hops()


def test_5d_torus_beats_3d_on_diameter():
    """The architectural point of the 5D torus (paper §II-A)."""
    t5 = Torus(bgq_partition_shape(512))
    t3 = Torus((8, 8, 8))
    assert t5.max_hops() < t3.max_hops()


def test_neighbors_counts():
    t = Torus((4, 4, 4, 4, 2))
    # 2 neighbours per dim of size>2, 1 per dim of size 2.
    assert len(t.neighbors(0)) == 2 * 4 + 1
    t_small = Torus((2, 1, 1, 1, 1))
    assert t_small.neighbors(0) == [1]


def test_route_is_minimal_and_connected():
    t = Torus((4, 4, 2))
    for a in [0, 5, 17]:
        for b in [0, 3, 22, 31]:
            route = t.route(a, b)
            assert len(route) == t.hops(a, b)
            # Connectivity: consecutive links chain from a to b.
            cur = a
            for (u, v) in route:
                assert u == cur
                assert v in t.neighbors(u)
                cur = v
            if a != b:
                assert cur == b
            else:
                assert route == ()


def test_route_dimension_ordered():
    t = Torus((4, 4))
    route = t.route(t.rank((0, 0)), t.rank((1, 1)))
    # First hop moves along dim 0, then dim 1.
    assert t.coords(route[0][1]) == (1, 0)
    assert t.coords(route[1][1]) == (1, 1)


def test_links_are_all_directed_pairs():
    t = Torus((2, 2))
    links = list(t.links())
    assert len(links) == len(set(links))
    for (u, v) in links:
        assert v in t.neighbors(u)


def test_bisection_scales_with_shape():
    big = Torus((4, 4, 4, 4, 2))
    small = Torus((2, 2, 2, 2, 2))
    assert big.bisection_links() > small.bisection_links()


def test_dim_distance_signed():
    t = Torus((8,))
    assert t.dim_distance(0, 3, 0) == 3
    assert t.dim_distance(0, 7, 0) == -1
    assert t.dim_distance(0, 4, 0) == 4  # tie resolves positive


# -- memoised routes ---------------------------------------------------------

#: Routes from node 0 to (2, 3, 1) on a 4x4x2 torus per dimension order,
#: captured from the router before routes were memoised.
_ROUTES_TO_2_3_1 = {
    (0, 1, 2): ((0, 8), (8, 16), (16, 22), (22, 23)),
    (2, 1, 0): ((0, 1), (1, 7), (7, 15), (15, 23)),
    (1, 2, 0): ((0, 6), (6, 7), (7, 15), (15, 23)),
}


def test_memoised_routes_keep_counters_and_adaptive_orders():
    """Each dimension-ordered route is built once per node pair and
    shared, yet every call still counts as a routing decision, and every
    dimension order gives the route the unmemoised router gave."""
    t = Torus((4, 4, 2))
    b = t.rank((2, 3, 1))
    for rep in range(1, 4):
        for order, route in _ROUTES_TO_2_3_1.items():
            assert t.route(0, b, dim_order=list(order)) == route
        assert t.route(0, b) == _ROUTES_TO_2_3_1[(0, 1, 2)]
        assert t.route(b, b) == ()
        assert (t.routes_computed, t.hops_routed) == (5 * rep, 16 * rep)
    assert t.route(0, b) is t.route(0, b)
    # A memo hit and a cold build on a fresh torus agree everywhere; a
    # custom order is never memoised, so the memo stays one per pair.
    for dst in range(t.nnodes):
        t.route(5, dst)
        assert t.route(5, dst) == Torus((4, 4, 2)).route(5, dst)
        assert t.route(5, dst, [1, 0, 2]) == Torus((4, 4, 2)).route(5, dst, [1, 0, 2])
    assert sorted(t._routes) == sorted([(0, b), (b, b)] + [(5, d) for d in range(t.nnodes)])


def test_bad_dim_order_is_rejected_on_every_call():
    t = Torus((4, 4))
    for _ in range(2):
        with pytest.raises(ValueError):
            t.route(0, 5, dim_order=[0, 0])


@pytest.mark.parametrize(
    "routing,now", [("deterministic", 5463.999999999999), ("adaptive", 3887.9999999999995)]
)
def test_machine_route_counters_unchanged(routing, now):
    """The HPM torus counters of a 10-packet burst — and its arrival
    time — match the unmemoised router's (literals captured before)."""
    env = Environment()
    m = BGQMachine(env, 8, routing=routing)
    r = m.node(7).mu.allocate_reception_fifo()
    f = m.node(0).mu.allocate_injection_fifo()
    descs = []
    for _ in range(10):
        d = m.node(0).mu.make_descriptor(dst=7, nbytes=512, rec_fifo=r.fifo_id)
        f.post(d)
        descs.append(d)
    env.run(until=env.all_of([d.delivered for d in descs]))
    assert repr(env.now) == repr(now)
    assert (m.torus.routes_computed, m.torus.hops_routed) == (10, 30)
