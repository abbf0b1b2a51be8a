"""Span recording around the public calls into each cascademc module.

The tracer patches a name where its caller looks it up (for example
``cascademc.sampling.stage_uniforms``), so the program itself is not
edited.  A span holds (id, name, start, end, parent).  Calls made
thousands of times per campaign (uniform draws, mask building, island
search, the angle solve, the LP call, estimators) are "fine": instead of
one span each, their call count, busy time and units of work are added to
the enclosing span.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

perf_counter = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "units", "fine")

    def __init__(self, sid: int, name: str, start: float, parent: int | None):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.units = 0
        # fine-call aggregates: name -> [calls, seconds, units]
        self.fine: dict[str, list] = {}

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "units": self.units, "fine": self.fine,
        }


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # vars() keeps a class's descriptors (a classmethod) as they were
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.caches: list = []
        self._stack: list[Span] = []
        self._next = 0

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next, name, perf_counter(), parent)
        self._next += 1
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, *, fine: bool = False, units=None):
        """Return ``fn`` wrapped in a span (or a fine-call aggregate).

        ``units(args, result)`` gives the work done by one call: a number,
        or for spans any JSON value."""
        tracer = self

        if fine:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                dt = perf_counter() - t0
                if not tracer._stack:  # outside every command: not measured
                    return out
                fine_aggs = tracer._stack[-1].fine
                agg = fine_aggs.get(name)
                if agg is None:
                    agg = fine_aggs[name] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                if units is not None:
                    agg[2] += units(args, out)
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if units is not None:
                    span.units = units(args, out)
                return out
        return traced

    def dump(self, path: Path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [s.to_json() for s in sorted(self.spans, key=lambda s: s.id)]
        path.write_text(json.dumps(doc))


def cache_counts(cache) -> dict:
    return {"hits": cache.hits, "misses": cache.misses, "states": len(cache)}


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public calls into each cascademc module."""
    import scipy.linalg

    import cascademc.cascade as cascade
    import cascademc.cli as cli
    import cascademc.dc_power as dc_power
    import cascademc.sampling as sampling
    from cascademc.sampling import SampleSet

    w = tracer.wrap
    # rng: uniforms drawn = rows x lanes
    patches.set(sampling, "stage_uniforms", w(
        "rng.stage_uniforms", sampling.stage_uniforms, fine=True,
        units=lambda a, out: int(out.size)))
    # masks
    patches.set(sampling, "mask_from_ordinals", w(
        "masks.mask_from_ordinals", sampling.mask_from_ordinals, fine=True))
    # cascade: looked up on the module by the kernel builder's local import
    patches.set(cascade, "outage_probabilities", w(
        "cascade.outage_probabilities", cascade.outage_probabilities))
    # dc_power
    patches.set(dc_power, "dispatch", w("dc_power.dispatch", dc_power.dispatch))
    patches.set(dc_power, "islands", w("dc_power.islands", dc_power.islands, fine=True))
    patches.set(dc_power, "linprog", w("dc_power.linprog", dc_power.linprog, fine=True))
    # dc_power calls scipy.linalg.solve through the scipy package
    patches.set(scipy.linalg, "solve", w("dc_power.angle_solve", scipy.linalg.solve, fine=True))

    class TracedCache(dc_power.DispatchCache):
        def __init__(self, net):
            super().__init__(net)
            tracer.caches.append(self)

    patches.set(cli, "DispatchCache", TracedCache)
    # sampling
    patches.set(cli, "run_campaign", w("sampling.run_campaign", cli.run_campaign))
    patches.set(SampleSet, "write", w(
        "sampling.write", SampleSet.write,
        units=lambda a, out: (Path(a[1]).stat().st_size, len(a[0]))))
    read = SampleSet.__dict__["read"].__func__
    patches.set(SampleSet, "read", classmethod(w("sampling.read", read)))
    # estimators, looked up in the cli namespace
    for name in ("prob_mcs", "prob_is", "risk", "var_cvar", "replicate_variance"):
        patches.set(cli, name, w("estimators", getattr(cli, name), fine=True))
    # grid_model
    patches.set(cli, "load_case", w("grid_model.load_case", cli.load_case))


# ----------------------------------------------------------------------
# per-layer metrics


def _fine_total(spans, name: str, under: set[str] | None = None) -> tuple[int, float, int]:
    calls, secs, units = 0, 0.0, 0
    for s in spans:
        if under is not None and s.name not in under:
            continue
        agg = s.fine.get(name)
        if agg:
            calls += agg[0]
            secs += agg[1]
            units += agg[2]
    return calls, secs, units


def layer_metrics(spans: list[Span], caches: list[dict], rounds: int, wall_s: float) -> dict:
    """Per-layer metrics, per round of the workload: {name: (value, unit)}."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def self_time(sel) -> float:
        """Time of the spans not covered by traced children or fine calls."""
        return sum(
            (s.end - s.start)
            - sum(c.end - c.start for c in children.get(s.id, ()))
            - sum(agg[1] for agg in s.fine.values())
            for s in sel
        )

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(sel) -> float:
        return sum(s.end - s.start for s in sel)

    u_calls, u_s, u_units = _fine_total(spans, "rng.stage_uniforms")
    m_calls, m_s, _ = _fine_total(spans, "masks.mask_from_ordinals")
    kernels = named("cascade.outage_probabilities")
    writes = named("sampling.write")
    dispatch = named("dc_power.dispatch")
    d_s = busy(dispatch)
    under = {"dc_power.dispatch"}
    _, i_s, _ = _fine_total(spans, "dc_power.islands", under)
    _, a_s, _ = _fine_total(spans, "dc_power.angle_solve", under)
    l_calls, l_s, _ = _fine_total(spans, "dc_power.linprog", under)
    e_calls, e_s, _ = _fine_total(spans, "estimators")
    r = float(rounds)
    return {
        "trace.wall_s": (wall_s, "s"),
        "rng.stage_uniforms_s": (u_s / r, "s"),
        "rng.stage_uniforms_calls": (u_calls / r, "count"),
        "rng.uniforms": (u_units / r, "count"),
        "cascade.outage_probabilities_s": (busy(kernels) / r, "s"),
        "cascade.outage_probabilities_calls": (len(kernels) / r, "count"),
        "masks.mask_from_ordinals_calls": (m_calls / r, "count"),
        "masks.mask_from_ordinals_s": (m_s / r, "s"),
        "sampling.run_campaign_s": (busy(named("sampling.run_campaign")) / r, "s"),
        "sampling.engine_self_s": (self_time(named("sampling.run_campaign")) / r, "s"),
        "sampling.write_s": (busy(writes) / r, "s"),
        "sampling.read_s": (busy(named("sampling.read")) / r, "s"),
        "sampling.bytes_written": (sum(s.units[0] for s in writes) / r, "bytes"),
        "sampling.rows_written": (sum(s.units[1] for s in writes) / r, "count"),
        "dc_power.dispatch_s": (d_s / r, "s"),
        "dc_power.dispatch_calls": (len(dispatch) / r, "count"),
        "dc_power.ms_per_dispatch": (1e3 * d_s / len(dispatch) if dispatch else 0.0, "ms"),
        "dc_power.islands_s": (i_s / r, "s"),
        "dc_power.angle_solve_s": (a_s / r, "s"),
        "dc_power.linprog_s": (l_s / r, "s"),
        "dc_power.linprog_calls": (l_calls / r, "count"),
        "dc_power.self_s": (self_time(dispatch) / r, "s"),
        "dc_power.cache_hits": (sum(c["hits"] for c in caches) / r, "count"),
        "dc_power.cache_misses": (sum(c["misses"] for c in caches) / r, "count"),
        "dc_power.cached_states": (sum(c["states"] for c in caches) / r, "count"),
        "estimators.s": (e_s / r, "s"),
        "estimators.calls": (e_calls / r, "count"),
        "grid_model.load_case_s": (busy(named("grid_model.load_case")) / r, "s"),
        "cli.self_s": (self_time([s for s in spans if s.name.startswith("cli.")]) / r, "s"),
    }
