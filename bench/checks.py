"""Output checks for the benchmark workloads.

Every check raises ``CheckError`` naming the file or campaign at fault.
None of them compares against a stored copy of earlier output.  They use
the exact law from the enumeration oracle, a minimum-shed LP written here
independently of ``cascademc.dc_power``, recomputation from the sample
files, or identities the method must satisfy (eta = 1 weights are exactly
1.0; E_q[w] = 1; reruns and analyze give identical bytes).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

# Estimates at full N must lie within this many exact standard errors of
# the exact law.  A correct program trips it with probability about 6e-7
# per comparison (two-sided normal tail at 5).
K_EXACT = 5.0
# The mean weight of an eta > 1 campaign must lie within this many
# empirical standard errors of 1.
K_WEIGHT = 5.0
# Tolerance of the shed against the independent LP, as a share of total load.
LP_TOL = 1e-6
# Relative tolerance for identities that hold to rounding.
REL_TOL = 1e-12


class CheckError(Exception):
    """A workload output failed a correctness check."""


@dataclass
class Samples:
    """Columns of one NDJSON sample file, parsed without cascademc."""

    header: dict
    n: np.ndarray
    shed: np.ndarray
    log_p: np.ndarray
    log_q: np.ndarray
    weight: np.ndarray
    truncated: np.ndarray
    tripped: list[tuple[int, ...]]

    @property
    def eta(self) -> float:
        return float(self.header["eta"])


def read_samples(path: Path) -> Samples:
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh if line.strip()]
    if header.get("kind") != "sample_set":
        raise CheckError(f"{path.name}: header is not a sample_set header")
    return Samples(
        header=header,
        n=np.array([r["n"] for r in rows], dtype=np.int64),
        shed=np.array([r["shed_mw"] for r in rows], dtype=float),
        log_p=np.array([r["log_p_c"] for r in rows], dtype=float),
        log_q=np.array([r["log_q_c"] for r in rows], dtype=float),
        weight=np.array([r["weight"] for r in rows], dtype=float),
        truncated=np.array([r["truncated"] for r in rows], dtype=bool),
        tripped=[tuple(r["tripped"]) for r in rows],
    )


def check_file_rows(path: Path, where: str) -> None:
    """The file has as many path rows as its header's n_samples."""
    with open(path, "rb") as fh:
        want = int(json.loads(fh.readline())["n_samples"])
        rows = sum(1 for line in fh if line.strip())
    if rows != want:
        raise CheckError(f"{where}: {rows} rows, header says n_samples = {want}")


def check_weights(eta: float, weight, log_p, log_q, where: str) -> None:
    """eta = 1: every weight is exactly 1.0.  eta > 1: weights equal
    exp(log p - log q) and their mean is within K_WEIGHT standard errors
    of 1, since E_q[w] = 1."""
    weight = np.asarray(weight, dtype=float)
    if eta == 1.0:
        bad = np.flatnonzero(weight != 1.0)
        if bad.size:
            raise CheckError(
                f"{where}: eta = 1 but {bad.size} weights differ from 1.0 "
                f"(first at row {int(bad[0])}: {weight[bad[0]]!r})"
            )
        return
    ratio = np.exp(np.asarray(log_p) - np.asarray(log_q))
    off = np.abs(weight - ratio) > REL_TOL * np.abs(ratio)
    if off.any():
        i = int(np.flatnonzero(off)[0])
        raise CheckError(
            f"{where}: weight {weight[i]!r} at row {i} is not exp(log_p - log_q) = {ratio[i]!r}"
        )
    n = weight.size
    mean = math.fsum(weight.tolist()) / n
    se = float(weight.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    if abs(mean - 1.0) > K_WEIGHT * se:
        raise CheckError(
            f"{where}: eta = {eta:g} mean weight {mean:.6f} is "
            f"{abs(mean - 1.0) / se if se else math.inf:.1f} standard errors from 1"
        )


def check_shed_atoms(shed, atoms, where: str) -> None:
    """Every shed is one of the exact law's shed values."""
    shed = np.asarray(shed, dtype=float)
    bad = ~np.isin(shed, np.asarray(sorted(atoms), dtype=float))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(
            f"{where}: shed {shed[i]!r} MW at row {i} is not a value the exact law allows"
        )


def check_shed_range(shed, truncated, total_load: float, where: str) -> None:
    """0 <= shed <= total load on every path, and no path is truncated."""
    shed = np.asarray(shed, dtype=float)
    if np.any(truncated):
        raise CheckError(f"{where}: {int(np.sum(truncated))} paths truncated")
    bad = (shed < 0.0) | (shed > total_load)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(f"{where}: shed {shed[i]!r} MW at row {i} outside [0, {total_load}]")


def add_terminal_sheds(table: dict, s: Samples, where: str) -> None:
    """Record shed by terminal state; the same state must always shed the same."""
    for i, (state, shed) in enumerate(zip(s.tripped, s.shed.tolist())):
        seen = table.setdefault(state, shed)
        if seen != shed:
            raise CheckError(
                f"{where}: row {i} sheds {shed!r} MW in a terminal state that shed {seen!r} MW elsewhere"
            )


# ----------------------------------------------------------------------
# independent minimum-shed dispatch


def lp_min_shed(net, tripped) -> float:
    """Least load shed of the state with ``tripped`` branch ordinals out.

    One LP over the whole network: bus angles (free), branch flows within
    their limits, generation within capacity and served load within
    demand, with flow = angle difference / reactance on every in-service
    branch and power balance at every bus.
    """
    live = np.ones(net.n_branches, dtype=bool)
    live[list(tripped)] = False
    br = np.flatnonzero(live)
    nb, nf, ng = net.n_buses, br.size, len(net.generators)
    load_bus = np.flatnonzero(net.load > 0.0)
    nl = load_bus.size
    # columns: theta | flow | generation | served
    c_f, c_g, c_s = nb, nb + nf, nb + nf + ng
    nvar = c_s + nl
    f_pos, t_pos = net.from_pos[br], net.to_pos[br]
    inv_x = 1.0 / net.reactance[br]
    k = np.arange(nf)
    # flow_k - (theta_f - theta_t) / x_k = 0
    rows = [k, k, k]
    cols = [c_f + k, f_pos, t_pos]
    vals = [np.ones(nf), -inv_x, inv_x]
    # generation - served - outflow + inflow = 0 at every bus
    rows += [nf + f_pos, nf + t_pos, nf + net.gen_pos, nf + load_bus]
    cols += [c_f + k, c_f + k, c_g + np.arange(ng), c_s + np.arange(nl)]
    vals += [-np.ones(nf), np.ones(nf), np.ones(ng), -np.ones(nl)]
    a_eq = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nf + nb, nvar),
    )
    lo = np.concatenate([np.full(nb, -np.inf), -net.flow_limit[br], np.zeros(ng + nl)])
    hi = np.concatenate([np.full(nb, np.inf), net.flow_limit[br], net.gen_cap, net.load[load_bus]])
    cost = np.zeros(nvar)
    cost[c_s:] = -1.0
    res = linprog(cost, A_eq=a_eq, b_eq=np.zeros(nf + nb),
                  bounds=np.column_stack([lo, hi]), method="highs")
    if not res.success:
        raise CheckError(f"reference LP failed for state {sorted(tripped)}: {res.message}")
    return math.fsum(net.load.tolist()) - math.fsum(res.x[c_s:].tolist())


def check_lp(net, table: dict, top: int) -> int:
    """The ``top`` distinct terminal states with the largest shed shed what
    the independent LP says, within LP_TOL of total load.  Returns the
    number of states checked."""
    total = math.fsum(net.load.tolist())
    worst = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    for state, shed in worst:
        ref = lp_min_shed(net, state)
        if abs(shed - ref) > LP_TOL * total:
            raise CheckError(
                f"terminal state {list(state)} sheds {shed!r} MW; the reference LP gives {ref!r} MW"
            )
    return len(worst)


# ----------------------------------------------------------------------
# estimate files


def check_same_bytes(a: Path, b: Path) -> None:
    if a.read_bytes() != b.read_bytes():
        raise CheckError(f"{b} differs from {a}")


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_against_exact(value: float, mu: float, var1: float, n: int, m: int, where: str) -> None:
    """A mean of m estimates at N = n lies within K_EXACT exact standard
    errors of the exact value mu; var1 is the exact per-path variance."""
    se = math.sqrt(var1 / (n * m))
    if abs(value - mu) > K_EXACT * se:
        raise CheckError(
            f"{where}: estimate {value!r} vs exact {mu!r}: "
            f"{abs(value - mu) / se if se else math.inf:.1f} exact standard errors apart"
        )


def check_estimates(rows: list[dict], campaigns: list[Samples], y0_list, where: str) -> None:
    """estimates.csv holds, per campaign in order, one probability row per
    threshold and one risk row; each value equals the estimator
    recomputed here from the sample file, and N matches the file."""
    per = len(y0_list) + 1
    if len(rows) != per * len(campaigns):
        raise CheckError(f"{where}: {len(rows)} rows for {len(campaigns)} campaigns")
    for ci, s in enumerate(campaigns):
        keep = ~s.truncated
        n_valid = int(keep.sum())
        w, shed = s.weight[keep], s.shed[keep]
        want = [math.fsum((w * (shed >= y0)).tolist()) / n_valid for y0 in y0_list]
        want.append(math.fsum((w * shed).tolist()) / n_valid)
        for j, row in enumerate(rows[ci * per : (ci + 1) * per]):
            got = float(row["value"])
            if int(row["N"]) != n_valid or float(row["eta"]) != s.eta:
                raise CheckError(f"{where}: row {ci * per + j} has N/eta that do not match its sample file")
            if abs(got - want[j]) > REL_TOL * abs(want[j]):
                raise CheckError(
                    f"{where}: row {ci * per + j} value {got!r}; recomputed from samples {want[j]!r}"
                )
