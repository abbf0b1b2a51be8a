"""Benchmark of the cascademc command line studies.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the workload's CLI commands in this process through
``cascademc.cli.main`` until S seconds have passed, checks their outputs,
and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, mean wall time per round,
campaign paths/s, peak RSS); with ``--trace 1`` they are per-layer
figures from spans recorded around each module's calls.  Outputs, the
full result record and the trace go under ``.bench-out/<workload>/``.
See bench/README.md.
"""

import os
import sys
import time

# Pin BLAS/OpenMP pools to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_FRAMEWORKS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

perf_counter = time.perf_counter
_T_SCRIPT = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def process_age() -> float:
    """Seconds since the kernel started this process (10 ms resolution).

    Falls back to the time since this script began if /proc is missing."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return perf_counter() - _T_SCRIPT


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def speed_probe_s() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    machine ran, since its speed drifts between runs."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        sum(i * i for i in range(200_000))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class CampaignLog:
    """One timer at campaign granularity around ``cli.run_campaign``.

    Each returned sample set goes through the workload's campaign check
    before it is handed back; the check's time is kept apart so it can be
    taken out of the round's wall time."""

    def __init__(self, inner, check):
        self.inner = inner
        self.check = check
        self.attempted = self.failed = self.paths = 0
        self.seconds = self.check_s = 0.0
        self.errors: list[str] = []
        self.timings: list[dict] = []

    def __call__(self, *args, **kwargs):
        self.attempted += 1
        t0 = perf_counter()
        try:
            ss = self.inner(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        t1 = perf_counter()
        self.seconds += t1 - t0
        self.paths += len(ss)
        self.timings.append({"eta": ss.eta, "paths": len(ss), "seconds": t1 - t0})
        try:
            self.check(ss)
        except CheckError as exc:
            self.errors.append(str(exc))
        self.check_s += perf_counter() - t1
        return ss


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cascademc" / "__init__.py").is_file():
        print(f"bench: no cascademc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # ---- set-up: import the program and load the workload's case --------
    import cascademc.cli as cli
    from cascademc.fixtures import case_path
    from cascademc.grid_model import load_case

    cls = WORKLOADS[args.workload]
    net = load_case(case_path(cls.case))
    setup_s = process_age()

    out = ROOT / ".bench-out" / args.workload
    for stale in out.glob("round*"):
        shutil.rmtree(stale)
    out.mkdir(parents=True, exist_ok=True)
    workload = cls(args.seed)

    patches = spans.Patches()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, patches)
    log = CampaignLog(cli.run_campaign, workload.check_campaign)
    patches.set(cli, "run_campaign", log)

    # ---- measured rounds -------------------------------------------------
    attempted = failed = 0
    walls: list[float] = []
    good_rounds: list[Path] = []
    errors: list[str] = []
    sink = io.StringIO()
    t_begin = perf_counter()
    r = 0
    while True:
        rdir = out / f"round{r}"
        commands = workload.commands(r, rdir)
        check_before = log.check_s
        ok = True
        t0 = perf_counter()
        for argv in commands:
            attempted += 1
            span = tracer.open("cli." + argv[0]) if tracer else None
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
            except Exception:
                # a failed operation is counted, not judged: report and go on
                traceback.print_exc()
                code = 1
            finally:
                if span:
                    tracer.close(span)
            if code != 0:
                failed += 1
                ok = False
        walls.append(perf_counter() - t0 - (log.check_s - check_before))
        sink.seek(0)
        sink.truncate()
        if ok:
            good_rounds.append(rdir)
        r += 1
        if perf_counter() - t_begin >= args.seconds:
            break
    attempted += log.attempted
    failed += log.failed
    rss = peak_rss_mb()
    patches.undo()

    # ---- metrics -------------------------------------------------------------
    wall_s = statistics.fmean(walls)
    if tracer:
        caches = [spans.cache_counts(c) for c in tracer.caches]
        layers = spans.layer_metrics(tracer.spans, caches, len(walls), wall_s)
        # the wrapper's dispatch count must equal the program's cache misses
        n_dispatch = sum(1 for s in tracer.spans if s.name == "dc_power.dispatch")
        n_miss = sum(c["misses"] for c in caches)
        if n_dispatch != n_miss:
            errors.append(f"traced dispatch calls {n_dispatch} != DispatchCache misses {n_miss}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "campaign_paths_per_s": {"value": log.paths / log.seconds if log.seconds else 0.0, "unit": "paths/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    # ---- checks --------------------------------------------------------------
    errors.extend(log.errors)
    t_check = perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            workload.check_run(net, good_rounds)
    except CheckError as exc:
        errors.append(str(exc))
    except Exception:
        # outputs the checks cannot even read are wrong outputs
        errors.append(traceback.format_exc())
    check_s = perf_counter() - t_check
    correct = not errors
    for msg in errors:
        print(f"bench: {msg}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "rounds": len(walls),
        "round_wall_s": walls, "campaign_seconds": log.seconds, "paths": log.paths,
        "check_s": check_s, "speed_probe_s": speed_probe_s(),
        "campaign_timings": log.timings,
        "campaigns": workload.records, "errors": errors,
        "metrics": metrics,
    }
    name = f"result-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.dump(out / f"trace-seed{args.seed}.json", {"metrics": metrics})
    for rdir in out.glob("round*"):
        shutil.rmtree(rdir)
    print("env " + json.dumps(record["environment"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
