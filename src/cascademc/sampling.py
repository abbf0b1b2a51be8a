"""Path sampling: plain Monte Carlo and sequential importance sampling.

One engine simulates every path.  A path is advanced stage by stage; at
each stage the per-component trip probabilities come from the dispatch of
the current state, the proposal amplifies them by eta (capped), and the
uniforms come from counter-based streams addressed by (seed, path index,
stage, component).  Because no randomness is shared between paths, a
campaign can be split across any number of workers, or batched in any
order, and produce bit-identical results.

Likelihoods are accumulated as (log, linear) pairs; under eta = 1 the
proposal equals the true law term by term, so every weight is exactly 1.0.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cascade import OutageModel, SystemState, TransitionRecord
from .dc_power import DispatchCache
from .grid_model import Network
from .masks import mask_from_ordinals, ordinals_from_mask
from .rng import PathStream, path_keys, stage_uniforms

_FORMAT_VERSION = 1
_ROW_KEYS = frozenset(
    ("n", "shed_mw", "log_p_c", "log_q_c", "weight", "truncated", "tripped")
)
# most distinct row texts whose parse one read keeps
_READ_MEMO = 4096
# row-slice bound inside one stage group and per block of written rows;
# keeps peak memory flat without affecting any per-path result (rows are
# independent)
_ROW_CHUNK = 8192


@dataclass(frozen=True)
class SisConfig:
    """Proposal parameters for sequential importance sampling.

    eta = 1 reproduces plain Monte Carlo exactly.  p_max caps amplified
    probabilities strictly below 1 so survival always has positive proposal
    probability.  max_stages bounds path length; paths that never trip an
    empty set within the bound are flagged truncated and excluded from
    estimators.
    """

    eta: float = 1.0
    p_max: float = 0.999
    max_stages: int = 200

    def __post_init__(self):
        if not self.eta >= 1.0:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        if not 0.0 < self.p_max < 1.0:
            raise ValueError(f"p_max must lie in (0, 1), got {self.p_max}")
        if self.max_stages < 1:
            raise ValueError(f"max_stages must be >= 1, got {self.max_stages}")


def amplify(probs: np.ndarray | float, cfg: SisConfig) -> np.ndarray | float:
    """Proposal probabilities q = min(eta * p, p_max).

    Zero stays zero (support never widens where the true law is null), and
    1 - q stays positive because p_max < 1.
    """
    return np.minimum(np.asarray(probs, dtype=float) * cfg.eta, cfg.p_max)


def _check_cap(model: OutageModel, cfg: SisConfig) -> None:
    top = max(model.p0, model.p1, model.p_e)
    if cfg.p_max < top:
        raise ValueError(
            f"proposal cap p_max={cfg.p_max} is below the model's largest "
            f"probability {top}; amplification with eta=1 would no longer "
            "reproduce the true chain"
        )


@dataclass(frozen=True)
class CascadePath:
    """One simulated cascade.

    states are the post-step states (the last one repeats the previous
    status vector unless the very first step already tripped nothing);
    records hold the stage-1 entry plus every subsequent step.
    """

    states: tuple[SystemState, ...]
    records: tuple[TransitionRecord, ...]
    log_p_c: float
    log_q_c: float
    weight: float
    shed_mw: float
    truncated: bool
    path_index: int

    @property
    def n(self) -> int:
        return len(self.states)


class SampleSet:
    """Columnar results of one campaign.

    Columns are aligned by path index (ascending).  Per-step transition
    records are retained only when the campaign was run with
    record_paths=True; serialization stores the summary columns.
    """

    def __init__(
        self,
        *,
        meta: dict,
        n: np.ndarray,
        shed_mw: np.ndarray,
        log_p_c: np.ndarray,
        log_q_c: np.ndarray,
        weight: np.ndarray,
        truncated: np.ndarray,
        final_masks: list[int],
        records: list[list[TransitionRecord]] | None = None,
        state_seqs: list[list[int]] | None = None,
    ):
        self.meta = meta
        self.n = n
        self.shed_mw = shed_mw
        self.log_p_c = log_p_c
        self.log_q_c = log_q_c
        self.weight = weight
        self.truncated = truncated
        self.final_masks = final_masks
        self.records = records
        self.state_seqs = state_seqs

    def __len__(self) -> int:
        return int(self.n.size)

    @property
    def eta(self) -> float:
        return float(self.meta["eta"])

    @property
    def n_truncated(self) -> int:
        return int(self.truncated.sum())

    def prefix(self, k: int) -> "SampleSet":
        """First ``k`` paths as a sample set of their own.

        Path indices address the random stream directly, so the prefix is
        exactly the campaign that ``n_samples=k`` would have produced.
        """
        if not 0 < k <= len(self):
            raise ValueError(f"prefix length {k} not in [1, {len(self)}]")
        meta = dict(self.meta)
        meta["n_samples"] = k
        return SampleSet(
            meta=meta,
            n=self.n[:k],
            shed_mw=self.shed_mw[:k],
            log_p_c=self.log_p_c[:k],
            log_q_c=self.log_q_c[:k],
            weight=self.weight[:k],
            truncated=self.truncated[:k],
            final_masks=self.final_masks[:k],
            records=None if self.records is None else self.records[:k],
            state_seqs=None if self.state_seqs is None else self.state_seqs[:k],
        )

    @property
    def paths(self) -> tuple[CascadePath, ...]:
        if self.records is None or self.state_seqs is None:
            raise ValueError(
                "per-step records were not retained; rerun the campaign with "
                "record_paths=True"
            )
        n_components = int(self.meta["n_components"])
        out = []
        for i in range(len(self)):
            states = tuple(
                SystemState(mask=m, stage=j + 2, n_components=n_components)
                for j, m in enumerate(self.state_seqs[i])
            )
            out.append(
                CascadePath(
                    states=states,
                    records=tuple(self.records[i]),
                    log_p_c=float(self.log_p_c[i]),
                    log_q_c=float(self.log_q_c[i]),
                    weight=float(self.weight[i]),
                    shed_mw=float(self.shed_mw[i]),
                    truncated=bool(self.truncated[i]),
                    path_index=i,
                )
            )
        return tuple(out)

    # ------------------------------------------------------------------
    # newline-delimited serialization: one header object, one object per path

    def write(self, path: str | Path) -> None:
        """Write the header and one row per path, replacing ``path`` atomically.

        Each row is exactly ``json.dumps`` of its dict with the keys in the
        order n, shed_mw, log_p_c, log_q_c, weight, truncated, tripped.
        Rows are rendered in ``_ROW_CHUNK`` blocks from the text of each
        distinct value in the block.  The file is written to a temporary
        name in the same directory and renamed into place, so a failed
        write leaves no partial file behind.
        """
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        fh = open(tmp, "x")  # never takes over a file that exists
        try:
            with fh:
                header = {"kind": "sample_set", "version": _FORMAT_VERSION}
                header.update(self.meta)
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                for lo in range(0, len(self), _ROW_CHUNK):
                    fh.write(self._render_rows(lo, lo + _ROW_CHUNK))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _render_rows(self, lo: int, hi: int) -> str:
        masks = self.final_masks[lo:hi]
        tripped = {m: json.dumps(list(ordinals_from_mask(m))) for m in set(masks)}
        return "".join(
            f'{{"n": {n}, "shed_mw": {s}, "log_p_c": {lp}, "log_q_c": {lq}, '
            f'"weight": {w}, "truncated": {_JSON_BOOL[t]}, "tripped": {tripped[m]}}}\n'
            for n, s, lp, lq, w, t, m in zip(
                np.asarray(self.n[lo:hi], dtype=np.int64).tolist(),
                _float_texts(self.shed_mw[lo:hi]),
                _float_texts(self.log_p_c[lo:hi]),
                _float_texts(self.log_q_c[lo:hi]),
                _float_texts(self.weight[lo:hi]),
                np.asarray(self.truncated[lo:hi], dtype=bool).tolist(),
                masks,
            )
        )

    @classmethod
    def read(cls, path: str | Path) -> "SampleSet":
        """Read a file written by ``write``.

        Raises ValueError naming the file when it is not a sample-set file
        of version ``_FORMAT_VERSION``, when a row is not valid JSON or does
        not have exactly the ``_ROW_KEYS`` keys, or when the number of rows
        differs from the header's ``n_samples`` (a truncated file).
        """
        with open(path) as fh:
            try:
                header = json.loads(fh.readline())
            except json.JSONDecodeError:
                header = None
            if not isinstance(header, dict) or header.get("kind") != "sample_set":
                raise ValueError(f"{path} is not a sample-set file")
            if header.get("version") != _FORMAT_VERSION:
                raise ValueError(
                    f"{path}: sample-set version {header.get('version')!r}, "
                    f"expected {_FORMAT_VERSION}"
                )
            meta = {
                k: v for k, v in header.items() if k not in ("kind", "version")
            }
            # campaign rows repeat heavily (a ring3 file of 1e5 rows has 15
            # distinct lines), so each distinct line is parsed once; the
            # bound keeps memory flat when rows do not repeat
            parsed: dict[str, tuple] = {}
            rows = []
            for lineno, line in enumerate(fh, start=2):
                row = parsed.get(line)
                if row is None:
                    if not line.strip():
                        continue
                    row = _parse_row(line, path, lineno)
                    if len(parsed) < _READ_MEMO:
                        parsed[line] = row
                rows.append(row)
        want = meta.get("n_samples")
        if len(rows) != want:
            raise ValueError(
                f"{path}: {len(rows)} path rows, header says n_samples = {want!r}"
            )
        n, shed, lp, lq, w, tr, masks = zip(*rows) if rows else ((),) * 7
        return cls(
            meta=meta,
            n=np.asarray(n, dtype=np.int32),
            shed_mw=np.asarray(shed, dtype=float),
            log_p_c=np.asarray(lp, dtype=float),
            log_q_c=np.asarray(lq, dtype=float),
            weight=np.asarray(w, dtype=float),
            truncated=np.asarray(tr, dtype=bool),
            final_masks=list(masks),
        )


_JSON_BOOL = ("false", "true")


def _float_texts(col) -> list[str]:
    """``json.dumps`` of every value of a float column, one call per
    distinct value.  Values are told apart by their bits, so -0.0 keeps its
    sign."""
    bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(
        [json.dumps(v) for v in distinct.view(np.float64).tolist()], dtype=object
    )
    return texts[inverse].tolist()


def _parse_row(line: str, path, lineno: int) -> tuple:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {lineno} is not valid JSON ({exc.msg})") from None
    if not isinstance(row, dict) or row.keys() != _ROW_KEYS:
        keys = sorted(row) if isinstance(row, dict) else type(row).__name__
        raise ValueError(
            f"{path}: line {lineno} has keys {keys}, expected {sorted(_ROW_KEYS)}"
        )
    return (
        row["n"], row["shed_mw"], row["log_p_c"], row["log_q_c"], row["weight"],
        row["truncated"], mask_from_ordinals(row["tripped"]),
    )


# ----------------------------------------------------------------------
# per-state step kernels


@dataclass(frozen=True)
class _StepKernel:
    """Everything needed to advance any path sitting in one state.

    lanes are the component ordinals that can trip here (in service with
    positive trip probability); arrays are aligned with lanes.  shed is the
    dispatch shed of the state itself (the severity if the path terminates
    here).
    """

    lanes: np.ndarray
    p: np.ndarray
    q: np.ndarray
    log_p: np.ndarray
    log_1mp: np.ndarray
    log_q: np.ndarray
    log_1mq: np.ndarray
    shed: float


class _KernelCache:
    """Step kernels keyed by (mask, first_stage flag)."""

    def __init__(self, net: Network, model: OutageModel, cfg: SisConfig,
                 dispatch_cache: DispatchCache):
        self.net = net
        self.model = model
        self.cfg = cfg
        self.dispatch_cache = dispatch_cache
        self._store: dict[tuple[int, bool], _StepKernel] = {}

    def get(self, mask: int, first_stage: bool) -> _StepKernel:
        key = (mask, first_stage)
        kernel = self._store.get(key)
        if kernel is None:
            kernel = self._build(mask, first_stage)
            self._store[key] = kernel
        return kernel

    def _build(self, mask: int, first_stage: bool) -> _StepKernel:
        from .cascade import outage_probabilities

        disp = self.dispatch_cache.get(mask)
        state = SystemState(
            mask=mask, stage=1 if first_stage else 2,
            n_components=self.net.n_branches,
        )
        probs = outage_probabilities(self.net, state, disp.flows, self.model)
        lanes = np.flatnonzero(probs > 0.0)
        p = probs[lanes]
        q = np.minimum(p * self.cfg.eta, self.cfg.p_max)
        with np.errstate(divide="ignore"):
            kernel = _StepKernel(
                lanes=lanes,
                p=p,
                q=q,
                log_p=np.log(p),
                log_1mp=np.log1p(-p),
                log_q=np.log(q),
                log_1mq=np.log1p(-q),
                shed=disp.total_shed,
            )
        return kernel


# ----------------------------------------------------------------------
# engine

def _simulate_block(
    net: Network,
    model: OutageModel,
    cfg: SisConfig,
    seed: int,
    indices: np.ndarray,
    kernels: _KernelCache,
    record: bool = False,
):
    """Simulate the given path indices; returns columnar results.

    The outer loop is over stages; paths in the same state are advanced
    together.  All per-path quantities depend only on (seed, path index)
    and the state sequence, never on which other paths share the block.
    """
    m = len(indices)
    keys = path_keys(seed, np.asarray(indices, dtype=np.uint64))
    masks: list[int] = [0] * m
    log_p = np.zeros(m)
    log_q = np.zeros(m)
    n_col = np.zeros(m, dtype=np.int32)
    shed = np.zeros(m)
    truncated = np.zeros(m, dtype=bool)
    records: list[list[TransitionRecord]] | None = (
        [[] for _ in range(m)] if record else None
    )
    state_seqs: list[list[int]] | None = [[] for _ in range(m)] if record else None

    alive = list(range(m))
    stage = 1
    while alive and stage <= cfg.max_stages:
        groups: dict[int, list[int]] = {}
        for i in alive:
            groups.setdefault(masks[i], []).append(i)
        next_alive: list[int] = []
        for mask in sorted(groups):
            rows = groups[mask]
            kernel = kernels.get(mask, first_stage=(stage == 1))
            lanes = kernel.lanes
            if lanes.size == 0:
                # nothing can trip: the step is the sure empty outcome
                for i in rows:
                    n_col[i] = stage
                    shed[i] = kernel.shed
                    if record:
                        records[i].append(
                            TransitionRecord(
                                stage=stage, tripped=(), p_hat=1.0,
                                log_p_hat=0.0, q_hat=1.0, log_q_hat=0.0,
                            )
                        )
                        state_seqs[i].append(mask)
                continue
            for lo in range(0, len(rows), _ROW_CHUNK):
                chunk = rows[lo : lo + _ROW_CHUNK]
                u = stage_uniforms(keys[chunk], stage, lanes)
                trips = u < kernel.q[None, :]
                stage_lp = np.where(trips, kernel.log_p, kernel.log_1mp).sum(axis=1)
                stage_lq = np.where(trips, kernel.log_q, kernel.log_1mq).sum(axis=1)
                log_p[chunk] += stage_lp
                log_q[chunk] += stage_lq
                any_trip = trips.any(axis=1)
                if record:
                    p_hat = np.where(trips, kernel.p, 1.0 - kernel.p).prod(axis=1)
                    q_hat = np.where(trips, kernel.q, 1.0 - kernel.q).prod(axis=1)
                for j, i in enumerate(chunk):
                    if any_trip[j]:
                        tripped_lanes = lanes[trips[j]]
                        masks[i] = mask | mask_from_ordinals(tripped_lanes)
                        next_alive.append(i)
                        new_mask = masks[i]
                    else:
                        n_col[i] = stage
                        shed[i] = kernel.shed
                        new_mask = mask
                    if record:
                        tripped_lanes = tuple(
                            int(k) for k in lanes[trips[j]]
                        ) if any_trip[j] else ()
                        records[i].append(
                            TransitionRecord(
                                stage=stage,
                                tripped=tripped_lanes,
                                p_hat=float(p_hat[j]),
                                log_p_hat=float(stage_lp[j]),
                                q_hat=float(q_hat[j]),
                                log_q_hat=float(stage_lq[j]),
                            )
                        )
                        state_seqs[i].append(new_mask)
        alive = sorted(next_alive)
        stage += 1

    for i in alive:
        truncated[i] = True
        n_col[i] = cfg.max_stages
        shed[i] = kernels.get(masks[i], first_stage=False).shed

    weight = np.exp(log_p - log_q)
    return {
        "n": n_col,
        "shed_mw": shed,
        "log_p_c": log_p,
        "log_q_c": log_q,
        "weight": weight,
        "truncated": truncated,
        "final_masks": masks,
        "records": records,
        "state_seqs": state_seqs,
    }


# worker-side globals for process pools (set once per worker)
_WORKER_CTX: dict = {}


def _worker_init(net, model, cfg, seed):
    _WORKER_CTX["kernels"] = _KernelCache(net, model, cfg, DispatchCache(net))
    _WORKER_CTX["args"] = (net, model, cfg, seed)


def _worker_run(span: tuple[int, int]):
    net, model, cfg, seed = _WORKER_CTX["args"]
    lo, hi = span
    return _simulate_block(
        net, model, cfg, seed, np.arange(lo, hi, dtype=np.int64),
        _WORKER_CTX["kernels"],
    )


def step(
    net: Network,
    state: SystemState,
    model: OutageModel,
    cfg: SisConfig,
    stream: PathStream,
    dispatch_cache: DispatchCache | None = None,
) -> tuple[SystemState, TransitionRecord]:
    """Advance one state by one sampled step.

    Draws a uniform per trippable component from the stream's counter slots
    for this stage, trips those below their amplified probability, and
    returns the post-step state with the step's transition record.  A step
    that trips nothing returns a state with the same status vector (the
    termination outcome).
    """
    _check_cap(model, cfg)
    from .cascade import outage_probabilities

    cache = dispatch_cache if dispatch_cache is not None else DispatchCache(net)
    disp = cache.get(state.mask)
    probs = outage_probabilities(net, state, disp.flows, model)
    lanes = np.flatnonzero(probs > 0.0)
    if lanes.size == 0:
        rec = TransitionRecord(
            stage=state.stage, tripped=(), p_hat=1.0, log_p_hat=0.0,
            q_hat=1.0, log_q_hat=0.0,
        )
        return state.advance(), rec
    p = probs[lanes]
    q = np.minimum(p * cfg.eta, cfg.p_max)
    u = stream.uniforms(state.stage, lanes)
    trips = u < q
    with np.errstate(divide="ignore"):
        log_p_hat = float(np.where(trips, np.log(p), np.log1p(-p)).sum())
        log_q_hat = float(np.where(trips, np.log(q), np.log1p(-q)).sum())
    p_hat = float(np.where(trips, p, 1.0 - p).prod())
    q_hat = float(np.where(trips, q, 1.0 - q).prod())
    tripped = tuple(int(k) for k in lanes[trips])
    rec = TransitionRecord(
        stage=state.stage, tripped=tripped, p_hat=p_hat,
        log_p_hat=log_p_hat, q_hat=q_hat, log_q_hat=log_q_hat,
    )
    new_state = state.trip(tripped) if tripped else state.advance()
    return new_state, rec


def simulate_path(
    net: Network,
    model: OutageModel,
    cfg: SisConfig,
    path_index: int,
    seed: int,
    dispatch_cache: DispatchCache | None = None,
) -> CascadePath:
    """Simulate one full cascade path.

    Produces exactly the path that a campaign with the same seed assigns to
    this path index (the engine is shared, so the match is bitwise).
    """
    _check_cap(model, cfg)
    cache = dispatch_cache if dispatch_cache is not None else DispatchCache(net)
    kernels = _KernelCache(net, model, cfg, cache)
    out = _simulate_block(
        net, model, cfg, seed,
        np.asarray([path_index], dtype=np.int64), kernels, record=True,
    )
    states = tuple(
        SystemState(mask=mk, stage=j + 2, n_components=net.n_branches)
        for j, mk in enumerate(out["state_seqs"][0])
    )
    return CascadePath(
        states=states,
        records=tuple(out["records"][0]),
        log_p_c=float(out["log_p_c"][0]),
        log_q_c=float(out["log_q_c"][0]),
        weight=float(out["weight"][0]),
        shed_mw=float(out["shed_mw"][0]),
        truncated=bool(out["truncated"][0]),
        path_index=path_index,
    )


def run_campaign(
    net: Network,
    model: OutageModel,
    cfg: SisConfig,
    n_samples: int,
    seed: int,
    workers: int = 1,
    dispatch_cache: DispatchCache | None = None,
    record_paths: bool = False,
) -> SampleSet:
    """Simulate n_samples independent paths and return their SampleSet.

    Path indices 0..n_samples-1 are deterministic given the seed; workers
    only partition the index range, so any worker count gives bit-identical
    columns.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_cap(model, cfg)

    meta = {
        "case": net.name,
        "n_components": net.n_branches,
        "eta": cfg.eta,
        "p_max": cfg.p_max,
        "max_stages": cfg.max_stages,
        "model_p0": model.p0,
        "model_p1": model.p1,
        "model_p_e": model.p_e,
        "model_p_max": model.p_max,
        "seed": seed,
        "n_samples": n_samples,
    }

    if workers == 1 or n_samples < 2 * workers:
        cache = dispatch_cache if dispatch_cache is not None else DispatchCache(net)
        kernels = _KernelCache(net, model, cfg, cache)
        out = _simulate_block(
            net, model, cfg, seed, np.arange(n_samples, dtype=np.int64),
            kernels, record=record_paths,
        )
    else:
        if record_paths:
            raise ValueError("record_paths is only supported with workers=1")
        spans = []
        step_size = math.ceil(n_samples / workers)
        for lo in range(0, n_samples, step_size):
            spans.append((lo, min(lo + step_size, n_samples)))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(net, model, cfg, seed),
        ) as pool:
            parts = list(pool.map(_worker_run, spans))
        out = {
            "n": np.concatenate([p["n"] for p in parts]),
            "shed_mw": np.concatenate([p["shed_mw"] for p in parts]),
            "log_p_c": np.concatenate([p["log_p_c"] for p in parts]),
            "log_q_c": np.concatenate([p["log_q_c"] for p in parts]),
            "weight": np.concatenate([p["weight"] for p in parts]),
            "truncated": np.concatenate([p["truncated"] for p in parts]),
            "final_masks": sum((p["final_masks"] for p in parts), []),
            "records": None,
            "state_seqs": None,
        }

    return SampleSet(
        meta=meta,
        n=out["n"],
        shed_mw=out["shed_mw"],
        log_p_c=out["log_p_c"],
        log_q_c=out["log_q_c"],
        weight=out["weight"],
        truncated=out["truncated"],
        final_masks=out["final_masks"],
        records=out["records"],
        state_seqs=out["state_seqs"],
    )
