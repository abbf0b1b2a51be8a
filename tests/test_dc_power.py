"""Dispatch and flow tests pinned to hand-computed contingency tables."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from cascademc import (
    Branch,
    Bus,
    DispatchCache,
    Generator,
    Network,
    dc_flow,
    dispatch,
    islands,
    load_case,
    severity,
)
from cascademc.fixtures import case_path, fixture_names, load_fixture


FIXTURES = {name: load_fixture(name) for name in fixture_names()}
RESIDUAL_TOL = 1e-6


def svc(net, *out):
    mask = np.ones(net.n_branches, dtype=bool)
    for k in out:
        mask[k] = False
    return mask


def test_ring3_base_flows():
    net = FIXTURES["ring3"].network
    res = dispatch(net)
    assert res.flows == pytest.approx([30.0, 30.0, 60.0], abs=1e-9)
    assert res.total_shed == pytest.approx(0.0, abs=1e-9)
    assert res.feas_residual <= RESIDUAL_TOL
    assert res.cs_residual <= RESIDUAL_TOL


# (tripped ordinals, shed, at-limit ordinals); a=0, b=1, c=2.
RING3_TABLE = [
    ((), 0.0, ()),
    ((0,), 26.0, (2,)),
    ((1,), 26.0, (2,)),
    ((2,), 50.0, (0, 1)),
    ((0, 1), 26.0, (2,)),
    ((0, 2), 90.0, ()),
    ((1, 2), 90.0, ()),
    ((0, 1, 2), 90.0, ()),
]


@pytest.mark.parametrize("out,shed,at_limit", RING3_TABLE)
def test_ring3_contingency_table(out, shed, at_limit):
    net = FIXTURES["ring3"].network
    res = dispatch(net, svc(net, *out))
    assert res.total_shed == pytest.approx(shed, abs=1e-9)
    limit = net.flow_limit
    for k in range(net.n_branches):
        if k in out:
            assert res.flows[k] == 0.0
        else:
            assert abs(res.flows[k]) <= limit[k] + RESIDUAL_TOL
    observed = tuple(
        k
        for k in range(net.n_branches)
        if k not in out and abs(abs(res.flows[k]) - limit[k]) <= 1e-9
    )
    assert observed == at_limit
    assert res.feas_residual <= RESIDUAL_TOL
    assert res.cs_residual <= RESIDUAL_TOL


def test_par3_admittance_split():
    net = FIXTURES["par3"].network
    res = dispatch(net)
    # parallel lines split by 1/x: 1 : 1 : 0.5 over 90 MW of transfer
    assert res.flows == pytest.approx([36.0, 36.0, 18.0], abs=1e-9)
    assert res.total_shed == pytest.approx(0.0, abs=1e-9)


def test_par3_single_trip_binds_remaining_pair():
    net = FIXTURES["par3"].network
    res = dispatch(net, svc(net, 0))
    # p2 and p3 split 2:1, p2 hits its 40 MW limit at 60 MW served
    assert res.total_shed == pytest.approx(30.0, abs=1e-9)
    assert res.flows[1] == pytest.approx(40.0, abs=1e-9)
    assert res.flows[2] == pytest.approx(20.0, abs=1e-9)


def test_duo2_intact_state_sheds():
    net = FIXTURES["duo2"].network
    res = dispatch(net)
    assert res.total_shed == pytest.approx(20.0, abs=1e-9)
    assert res.flows == pytest.approx([40.0, 40.0], abs=1e-9)
    assert severity(net) == pytest.approx(20.0, abs=1e-9)


def test_chain4_radial_flows():
    net = FIXTURES["chain4"].network
    res = dispatch(net)
    # radial feeder: each segment carries everything downstream of it
    assert res.flows == pytest.approx([100.0, 70.0, 40.0], abs=1e-9)
    assert res.total_shed == pytest.approx(0.0, abs=1e-9)


def test_chain4_mid_trip_isolates_downstream_load():
    net = FIXTURES["chain4"].network
    res = dispatch(net, svc(net, 1))
    # buses 3 and 4 (loads 30 + 40) lose their only supply path
    assert res.total_shed == pytest.approx(70.0, abs=1e-9)
    assert res.flows[0] == pytest.approx(30.0, abs=1e-9)
    assert res.flows[2] == 0.0


def test_islands_partition():
    net = FIXTURES["chain4"].network
    isl = islands(net, svc(net, 1))
    assert [m.tolist() for m in isl] == [[0, 1], [2, 3]]
    isl_all = islands(net, svc(net))
    assert [m.tolist() for m in isl_all] == [[0, 1, 2, 3]]
    isl_none = islands(net, np.zeros(net.n_branches, dtype=bool))
    assert [m.tolist() for m in isl_none] == [[0], [1], [2], [3]]


def reference_islands(net, in_service):
    """Union-find over the in-service branches, each root the lowest bus
    position of its island."""
    parent = list(range(net.n_buses))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k in np.flatnonzero(in_service):
        ra, rb = find(int(net.from_pos[k])), find(int(net.to_pos[k]))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for b in range(net.n_buses):
        groups.setdefault(find(b), []).append(b)
    return [groups[r] for r in sorted(groups)]


@pytest.mark.parametrize("name", ["bridge6", "case300"])
def test_islands_match_reference_union_find(name):
    net = FIXTURES[name].network if name in FIXTURES else load_case(case_path(name))
    rng = np.random.default_rng(0x15)
    for p_out in (0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0):
        for _ in range(10):
            in_service = rng.random(net.n_branches) >= p_out
            isl = islands(net, in_service)
            assert all(m.dtype == np.intp for m in isl)
            assert [m.tolist() for m in isl] == reference_islands(net, in_service)


def test_islanded_generation_cannot_serve_remote_load():
    net = FIXTURES["ring3"].network
    res = dispatch(net, np.zeros(net.n_branches, dtype=bool))
    assert res.total_shed == pytest.approx(90.0, abs=1e-9)
    assert res.generation == pytest.approx([0.0], abs=1e-9)


def test_dc_flow_matches_dispatch_flows():
    net = FIXTURES["bridge6"].network
    res = dispatch(net)
    injection = np.array(res.served, dtype=float) * -1.0
    for g, pos in enumerate(net.gen_pos):
        injection[pos] += res.generation[g]
    flows = dc_flow(net, svc(net), injection)
    assert flows == pytest.approx(res.flows, abs=1e-8)


def test_dc_flow_rejects_unbalanced_injection():
    net = FIXTURES["ring3"].network
    bad = np.array([100.0, 0.0, -90.0])
    with pytest.raises(ValueError, match="balance"):
        dc_flow(net, svc(net), bad)


def test_dc_flow_rejects_wrong_shape():
    net = FIXTURES["ring3"].network
    with pytest.raises(ValueError, match="shape"):
        dc_flow(net, svc(net), np.zeros(2))


def test_residuals_small_across_fixture_contingencies():
    for fx in FIXTURES.values():
        net = fx.network
        for k in range(net.n_branches):
            res = dispatch(net, svc(net, k))
            assert res.feas_residual <= RESIDUAL_TOL, (fx.name, k)
            assert res.cs_residual <= RESIDUAL_TOL, (fx.name, k)


def test_dispatch_cache_hits_and_shares_results():
    net = FIXTURES["ring3"].network
    cache = DispatchCache(net)
    r1 = cache.get(0b001)
    r2 = cache.get(0b001)
    assert r1 is r2
    assert len(cache) == 1
    assert cache.misses == 1
    assert cache.hits == 1
    r3 = cache.get(0)
    assert r3.total_shed == pytest.approx(0.0, abs=1e-9)
    assert len(cache) == 2


def test_lp_path_agrees_with_proportional_when_both_feasible():
    # a pure fork where the proportional rule is optimal; force comparison
    # by checking served load equals total on an uncongested trip
    net = FIXTURES["bridge6"].network
    res = dispatch(net, svc(net, 5))
    assert math.fsum(res.served.tolist()) + res.total_shed == pytest.approx(
        net.total_load, abs=1e-9
    )


def test_generation_respects_capacity():
    buses = (Bus(1), Bus(2, load_mw=50.0))
    branches = (Branch("t", 1, 2, 0.1, 200.0),)
    gens = (Generator("g1", 1, 30.0),)
    net = Network(buses=buses, branches=branches, generators=gens)
    res = dispatch(net)
    assert res.generation[0] == pytest.approx(30.0, abs=1e-9)
    assert res.total_shed == pytest.approx(20.0, abs=1e-9)


def test_shed_never_negative_and_served_bounded():
    for fx in FIXTURES.values():
        net = fx.network
        res = dispatch(net)
        assert res.total_shed >= -1e-12
        assert np.all(res.served >= -1e-9)
        assert np.all(res.served <= net.load + 1e-9)


# sha256 digests of dispatch() over case300 states: the bytes of flows,
# served and generation, repr(total_shed) and methods, state by state.
# Recorded from the per-branch loop implementation of dc_power with numpy
# 2.4.6, scipy 1.17.1 (OpenBLAS 0.3.31) on an x86-64 (Haswell kernels) CPU
# and one BLAS thread.  The angle solve rounds differently under another
# BLAS thread count, so the digests are computed in a child process pinned
# to one thread; other library builds or CPU kernels may round differently
# again, so the test runs only on the recorded versions.
GOLDEN_VERSIONS = ("2.4.6", "1.17.1")
GOLDEN_DIGESTS = {
    "n-1": "e4ee1fb070e5b4282d21b097c4c8ba7362d7df1728c99b9aaf6ec8356081d7f4",
    "n-k": "b80560e0b9514eca6c179771bbe7b8bc752825308213e72e57b92bfb16a966a6",
}


def golden_states(net):
    """Every N-1 state, then 30 seeded N-k states with k in 2..29."""
    n1 = [svc(net, k) for k in range(net.n_branches)]
    rng = np.random.default_rng(20261020)
    nk = []
    for _ in range(30):
        mask = np.ones(net.n_branches, dtype=bool)
        mask[rng.choice(net.n_branches, size=int(rng.integers(2, 30)), replace=False)] = False
        nk.append(mask)
    return {"n-1": n1, "n-k": nk}


def dispatch_digests():
    net = load_case(case_path("case300"))
    out = {}
    for key, states in golden_states(net).items():
        h = hashlib.sha256()
        for mask in states:
            res = dispatch(net, mask)
            for arr in (res.flows, res.served, res.generation):
                h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
            h.update(repr(res.total_shed).encode())
            h.update(repr(res.methods).encode())
        out[key] = h.hexdigest()
    return out


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != GOLDEN_VERSIONS,
    reason="golden dispatch digests were recorded with numpy %s, scipy %s" % GOLDEN_VERSIONS,
)
def test_dispatch_bytes_match_golden_digests():
    import cascademc

    src = str(Path(cascademc.__file__).resolve().parents[1])
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == GOLDEN_DIGESTS


if __name__ == "__main__":
    print(json.dumps(dispatch_digests()))
