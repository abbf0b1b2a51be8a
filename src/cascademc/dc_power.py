"""DC power flow and minimum-load-shedding dispatch.

The grid splits into islands (connected components of the in-service branch
graph).  Within each island the DC approximation applies: branch flow equals
the angle difference across the branch divided by its reactance, and bus
injections must balance.

Dispatch solves, island by island, the linear program

    minimize   total unserved load
    subject to DC flow equations, |flow| <= limit,
               0 <= generation <= capacity, 0 <= served <= load.

A feasible point always exists (serve nothing), so the problem is never
infeasible.  Before building the LP, a proportional-capacity dispatch is
tried: every generator at capacity * target / island_capacity, every load at
load * target / island_load, with target = min(island_load, island_capacity).
If its flows respect all limits it is optimal (it attains the island's lower
bound on shed) and is accepted; otherwise the LP runs and returns a vertex
optimum.  Both routes are pure functions of the island topology, so repeated
calls agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.optimize import linprog

from .grid_model import Network
from .masks import in_service_bool


class StructuralError(ValueError):
    """Island system is structurally unsolvable (singular matrix)."""


class DispatchError(RuntimeError):
    """The LP solver failed to return an optimal vertex."""


@dataclass(frozen=True)
class DispatchResult:
    """Dispatch outcome for one system state.

    flows has one entry per branch ordinal (0.0 for tripped branches);
    served is per bus; generation per generator.  methods names the route
    of each island, in the order of ``islands()``.  feas_residual is the
    largest violation of balance/limit/bound constraints in MW;
    cs_residual is the largest complementary-slackness product over LP
    islands (0.0 when every island took the proportional fast path, where
    optimality follows from shed reaching its lower bound rather than from
    a dual certificate).
    """

    flows: np.ndarray
    served: np.ndarray
    generation: np.ndarray
    total_shed: float
    methods: tuple[str, ...]
    feas_residual: float
    cs_residual: float


def islands(net: Network, in_service: np.ndarray) -> list[np.ndarray]:
    """Connected components of the in-service branch graph.

    Returns bus-position arrays, each sorted ascending, ordered by their
    smallest member.  Isolated buses form singleton islands.
    """
    live = np.flatnonzero(in_service)
    label = _lowest_bus(net.n_buses, net.from_pos[live], net.to_pos[live])
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _lowest_bus(n: int, f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lowest bus position in each bus's component of the graph with edges
    (f, t), over buses 0..n-1.

    Each round hooks, for every edge joining two components, the larger
    label under the smaller, then follows pointers until every label is
    its own root.  Labels only decrease, and a component's lowest bus
    always keeps its own, so the rounds end with every bus labelled by
    its component's lowest bus.
    """
    label = np.arange(n)
    while True:
        lf, lt = label[f], label[t]
        cross = lf != lt
        if not cross.any():
            return label
        lf, lt = lf[cross], lt[cross]
        np.minimum.at(label, np.maximum(lf, lt), np.minimum(lf, lt))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _runs(items: np.ndarray, keys: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Group items by key in 0..count-1, keeping their order within a key.

    Returns (grouped, at): group g is ``grouped[at[g]:at[g + 1]]``."""
    at = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=count), out=at[1:])
    return items[np.argsort(keys, kind="stable")], at


class _Layout:
    """One state's islands as arrays.

    For island i: its buses are ``bus[bus_at[i]:bus_at[i + 1]]`` and its
    in-service branches, generators and load buses are the runs of
    ``branch``, ``gen`` and ``load`` delimited the same way, every run in
    ascending order.  ``local`` maps a bus position to its index within
    its island (0 = the island's lowest position, the angle reference).
    """

    def __init__(self, net: Network, in_service: np.ndarray, isl: list[np.ndarray]):
        self.count = count = len(isl)
        sizes = np.fromiter(map(len, isl), dtype=np.intp, count=count)
        self.bus = np.concatenate(isl)
        self.bus_at = np.zeros(count + 1, dtype=np.intp)
        np.cumsum(sizes, out=self.bus_at[1:])
        label = np.empty(net.n_buses, dtype=np.intp)
        label[self.bus] = np.repeat(np.arange(count), sizes)
        self.local = np.empty(net.n_buses, dtype=np.intp)
        self.local[self.bus] = np.arange(net.n_buses) - np.repeat(self.bus_at[:-1], sizes)
        live = np.flatnonzero(in_service)
        self.branch, self.branch_at = _runs(live, label[net.from_pos[live]], count)
        self.gen, self.gen_at = _runs(
            np.arange(net.gen_pos.size), label[net.gen_pos], count
        )
        loaded = np.flatnonzero(net.load > 0.0)
        self.load, self.load_at = _runs(loaded, label[loaded], count)

    def buses(self, i: int) -> np.ndarray:
        return self.bus[self.bus_at[i] : self.bus_at[i + 1]]

    def branches(self, i: int) -> np.ndarray:
        return self.branch[self.branch_at[i] : self.branch_at[i + 1]]

    def gens(self, i: int) -> np.ndarray:
        return self.gen[self.gen_at[i] : self.gen_at[i + 1]]

    def loads(self, i: int) -> np.ndarray:
        return self.load[self.load_at[i] : self.load_at[i + 1]]


def _island_flows(
    f: np.ndarray,
    t: np.ndarray,
    x: np.ndarray,
    *,
    injection: np.ndarray | None = None,
    theta: np.ndarray | None = None,
) -> np.ndarray:
    """Branch flows ``(theta[f] - theta[t]) / x`` of one island.

    f and t hold the local bus index of each branch's ends and x its
    reactance, in ascending branch order.  Without theta, solves
    B * theta = injection (injection over the island's buses in local
    order) with the reference, local index 0, fixed at zero.  B is summed
    entry by entry in branch order, [ff, tt, ft, tf] per branch.
    """
    if theta is None:
        nb = injection.size
        theta = np.zeros(nb)
        if nb > 1 and x.size:
            b = 1.0 / x
            B = np.zeros((nb, nb))
            np.add.at(
                B,
                (np.column_stack((f, t, f, t)).ravel(), np.column_stack((f, t, t, f)).ravel()),
                np.column_stack((b, b, -b, -b)).ravel(),
            )
            try:
                theta[1:] = scipy.linalg.solve(B[1:, 1:], injection[1:], assume_a="pos")
            except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
                raise StructuralError(f"singular island system: {exc}") from None
    return (theta[f] - theta[t]) / x


def _branch_ends(net: Network, lay: _Layout, branch_idx: np.ndarray):
    """Local end indices and reactances of an island's branches."""
    return (
        lay.local[net.from_pos[branch_idx]],
        lay.local[net.to_pos[branch_idx]],
        net.reactance[branch_idx],
    )


def dc_flow(
    net: Network,
    in_service: np.ndarray,
    injection: np.ndarray,
    *,
    balance_tol: float = 1e-6,
) -> np.ndarray:
    """Branch flows (MW) for given bus injections, per island.

    injection must balance to zero within each island (the dispatch
    routines guarantee this); imbalance beyond balance_tol raises
    ValueError.  Tripped branches carry exactly 0.0.
    """
    in_service = np.asarray(in_service, dtype=bool)
    injection = np.asarray(injection, dtype=float)
    if injection.shape != (net.n_buses,):
        raise ValueError(
            f"injection must have shape ({net.n_buses},), got {injection.shape}"
        )
    lay = _Layout(net, in_service, islands(net, in_service))
    flows = np.zeros(net.n_branches)
    scale = max(1.0, float(np.abs(injection).max(initial=0.0)))
    for i in range(lay.count):
        members = lay.buses(i)
        imbalance = abs(math.fsum(injection[members].tolist()))
        if imbalance > balance_tol * scale:
            raise ValueError(
                f"injections do not balance on island starting at bus position "
                f"{int(members[0])}: residual {imbalance:g} MW"
            )
        branch_idx = lay.branches(i)
        f, t, x = _branch_ends(net, lay, branch_idx)
        flows[branch_idx] = _island_flows(f, t, x, injection=injection[members])
    return flows


def _island_lp(
    nb: int,
    f: np.ndarray,
    t: np.ndarray,
    x: np.ndarray,
    limit: np.ndarray,
    gen_bus: np.ndarray,
    gen_cap: np.ndarray,
    load_bus: np.ndarray,
    load: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Vertex-optimal minimum-shed dispatch for one island.

    Variables are the nb local bus angles, then generation, then served
    load.  Branches come as in ``_island_flows``, with their limits;
    gen_bus and load_bus are local bus indices, gen_cap and load their
    upper bounds.  Returns (flows, generation, served, cs_residual)."""
    ng = gen_bus.size
    nl = load_bus.size
    nbr = x.size
    nvar = nb + ng + nl
    b = 1.0 / x

    # per branch, in branch order: A_eq entries (f,f) (f,t) (t,t) (t,f);
    # A_ub rows 2j (+flow) and 2j+1 (-flow)
    A_eq = scipy.sparse.coo_matrix(
        (
            np.concatenate((np.column_stack((b, -b, b, -b)).ravel(),
                            np.full(ng, -1.0), np.ones(nl))),
            (
                np.concatenate((np.column_stack((f, f, t, t)).ravel(), gen_bus, load_bus)),
                np.concatenate((np.column_stack((f, t, t, f)).ravel(),
                                np.arange(nb, nvar))),
            ),
        ),
        shape=(nb, nvar),
    ).tocsr()
    b_eq = np.zeros(nb)
    A_ub = scipy.sparse.coo_matrix(
        (
            np.column_stack((b, -b, -b, b)).ravel(),
            (np.repeat(np.arange(2 * nbr), 2), np.column_stack((f, t, f, t)).ravel()),
        ),
        shape=(2 * nbr, nvar),
    ).tocsr()
    b_ub = np.repeat(limit, 2)

    c = np.zeros(nvar)
    c[nb + ng :] = -1.0

    bounds = np.empty((nvar, 2))
    bounds[:nb] = (-np.inf, np.inf)
    bounds[0] = (0.0, 0.0)  # reference angle
    bounds[nb:, 0] = 0.0
    bounds[nb : nb + ng, 1] = gen_cap
    bounds[nb + ng :, 1] = load

    # dual simplex gives vertex solutions (wanted: they expose at-limit
    # branches), but can stall with an "Unknown" model status on rare
    # near-degenerate islands; retrying without presolve resolves those
    # while staying on simplex.  The ladder is fixed, so a given island
    # always yields the same result regardless of worker or rerun.
    res = None
    for method, options in (
        ("highs-ds", None),
        ("highs-ds", {"presolve": False}),
        ("highs", None),
    ):
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=bounds,
            method=method,
            options=options,
        )
        if res.success:
            break
    if not res.success:
        raise DispatchError(f"dispatch LP failed: status {res.status}: {res.message}")

    flows = _island_flows(f, t, x, theta=res.x[:nb])
    gen = res.x[nb : nb + ng]
    served = res.x[nb + ng :]

    # complementary slackness certificate: marginal * slack for every
    # inequality row and active bound
    cs = 0.0
    if nbr:
        slack = res.ineqlin.residual
        cs = float(np.abs(res.ineqlin.marginals * slack).max(initial=0.0))
    lb, ub = bounds.T
    with np.errstate(invalid="ignore"):
        lo_gap = np.where(np.isfinite(lb), res.x - lb, 0.0)
        hi_gap = np.where(np.isfinite(ub), ub - res.x, 0.0)
    cs = max(cs, float(np.abs(res.lower.marginals * lo_gap).max(initial=0.0)))
    cs = max(cs, float(np.abs(res.upper.marginals * hi_gap).max(initial=0.0)))
    return flows, gen, served, cs


def dispatch(net: Network, in_service: np.ndarray | None = None) -> DispatchResult:
    """Minimum-load-shedding dispatch of one system state.

    ``in_service=None`` means the intact grid.
    """
    if in_service is None:
        in_service = np.ones(net.n_branches, dtype=bool)
    in_service = np.asarray(in_service, dtype=bool)
    if in_service.shape != (net.n_branches,):
        raise ValueError(
            f"in_service must have shape ({net.n_branches},), got {in_service.shape}"
        )
    lay = _Layout(net, in_service, islands(net, in_service))
    load, gen_cap, gen_pos = net.load, net.gen_cap, net.gen_pos

    flows = np.zeros(net.n_branches)
    served = np.zeros(net.n_buses)
    generation = np.zeros(gen_cap.size)
    methods = ["trivial"] * lay.count
    cs_residual = 0.0

    # an island without a load bus or a generator has target 0: trivial
    for i in np.flatnonzero((np.diff(lay.load_at) > 0) & (np.diff(lay.gen_at) > 0)).tolist():
        gen_idx = lay.gens(i)
        load_idx = lay.loads(i)
        L = math.fsum(load[load_idx].tolist())
        C = math.fsum(gen_cap[gen_idx].tolist())
        target = min(L, C)
        if target <= 0.0:
            continue
        nb = lay.buses(i).size
        branch_idx = lay.branches(i)
        f, t, x = _branch_ends(net, lay, branch_idx)
        limit = net.flow_limit[branch_idx]
        gen_bus = lay.local[gen_pos[gen_idx]]
        load_bus = lay.local[load_idx]

        # proportional fast path: feasible zero-slack candidate at the
        # island's shed lower bound max(0, L - C)
        gen_prop = gen_cap[gen_idx] * (target / C)
        served_prop = load[load_idx] * (target / L)
        injection = np.zeros(nb)
        np.add.at(injection, gen_bus, gen_prop)
        injection[load_bus] -= served_prop
        fl = _island_flows(f, t, x, injection=injection)
        if np.all(np.abs(fl) <= limit):
            flows[branch_idx] = fl
            generation[gen_idx] = gen_prop
            served[load_idx] = served_prop
            methods[i] = "proportional"
            continue

        fl, gen_lp, served_lp, cs = _island_lp(
            nb, f, t, x, limit, gen_bus, gen_cap[gen_idx], load_bus, load[load_idx]
        )
        flows[branch_idx] = fl
        generation[gen_idx] = gen_lp
        served[load_idx] = served_lp
        cs_residual = max(cs_residual, cs)
        methods[i] = "lp"

    total_shed = math.fsum(load.tolist()) - math.fsum(served.tolist())
    feas = _feasibility_residual(net, in_service, flows, served, generation)
    return DispatchResult(
        flows=flows,
        served=served,
        generation=generation,
        total_shed=total_shed,
        methods=tuple(methods),
        feas_residual=feas,
        cs_residual=cs_residual,
    )


def _feasibility_residual(net, in_service, flows, served, generation):
    """Largest constraint violation in MW (balance, limits, bounds)."""
    res = 0.0
    injection = np.zeros(net.n_buses)
    if len(net.generators):
        np.add.at(injection, net.gen_pos, generation)
    injection -= served
    # nodal balance: injection equals net branch outflow at every bus
    out = np.zeros(net.n_buses)
    live = np.flatnonzero(in_service)
    np.add.at(out, net.from_pos[live], flows[live])
    np.add.at(out, net.to_pos[live], -flows[live])
    res = max(res, float(np.abs(injection - out).max(initial=0.0)))
    if live.size:
        over = np.abs(flows[live]) - net.flow_limit[live]
        res = max(res, float(over.max(initial=0.0)))
    res = max(res, float((-generation).max(initial=0.0)))
    if len(net.generators):
        res = max(res, float((generation - net.gen_cap).max(initial=0.0)))
    res = max(res, float((-served).max(initial=0.0)))
    res = max(res, float((served - net.load).max(initial=0.0)))
    tripped = np.flatnonzero(~np.asarray(in_service, dtype=bool))
    if tripped.size:
        res = max(res, float(np.abs(flows[tripped]).max(initial=0.0)))
    return res


def severity(net: Network, in_service: np.ndarray | None = None) -> float:
    """Load shed (MW) of the dispatch at a terminal cascade state."""
    return dispatch(net, in_service).total_shed


class DispatchCache:
    """Memoizes dispatch results by tripped-component bitmask.

    Dispatch is a pure function of the state, so caching is transparent;
    it exists because campaigns revisit the same states constantly.
    """

    def __init__(self, net: Network):
        self.net = net
        self._store: dict[int, DispatchResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, mask: int) -> DispatchResult:
        result = self._store.get(mask)
        if result is None:
            self.misses += 1
            result = dispatch(self.net, in_service_bool(mask, self.net.n_branches))
            self._store[mask] = result
        else:
            self.hits += 1
        return result

    def __len__(self) -> int:
        return len(self._store)
