"""Command line front end.

Subcommands
-----------
run          sample cascade paths, write sample files, estimates, quantiles
convergence  estimate on geometric sample-size prefixes across replicates
enumerate    exact path enumeration, golden files, proposition report
analyze      recompute estimates from stored sample files at new thresholds

All outputs are plain files whose bytes depend only on the configuration,
never on wall-clock time or worker count.  Every run writes a manifest with
a SHA-256 digest per output file and verifies the digests after writing.

Exit codes: 0 success, 2 configuration error, 3 enumeration budget
exceeded, 1 any other failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
from pathlib import Path

from .cascade import OutageModel
from .estimators import Estimate, export_csv, prob_is, prob_mcs, replicate_variance, risk, var_cvar
from .grid_model import CaseError, Network, load_case
from .dc_power import DispatchCache
from .oracle import EnumerationBudgetError, enumerate_paths, verify_propositions, write_golden
from .rng import derive_seed
from .sampling import SampleSet, SisConfig, run_campaign

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

# replicate number in a sample file name written by run
_REP_NAME = re.compile(r"_rep(\d+)\.ndjson$")


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# ----------------------------------------------------------------------
# configuration loading and validation


def _need(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}.{key} is required")
    return cfg[key]


def _number(value, where: str, lo=None, hi=None, lo_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    v = float(value)
    if lo is not None and (v <= lo if lo_open else v < lo):
        op = ">" if lo_open else ">="
        raise ConfigError(f"{where} must be {op} {lo}, got {value!r}")
    if hi is not None and v > hi:
        raise ConfigError(f"{where} must be <= {hi}, got {value!r}")
    return v


def _integer(value, where: str, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value!r}")
    return value


def _float_list(value, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _eta_tag(eta: float) -> str:
    """The eta part of the file names of a campaign's outputs."""
    return f"eta{eta:g}"


def _check_eta_tags(eta_list: list[float], where: str) -> None:
    """Reject etas whose output files would share a name (and overwrite)."""
    seen: dict[str, int] = {}
    for i, eta in enumerate(eta_list):
        j = seen.setdefault(_eta_tag(eta), i)
        if j != i:
            raise ConfigError(
                f"{where}[{j}] = {eta_list[j]!r} and {where}[{i}] = {eta!r} "
                f"both name their output files {_eta_tag(eta)}"
            )


class RunConfig:
    """Validated study configuration."""

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {
            "case_path", "model", "sis", "eta_list", "n_samples", "m_max",
            "y0_list", "alpha_list", "seed", "workers", "output_dir",
            "path_budget",
        }
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")

        case_path = _need(raw, "case_path", "config")
        if not isinstance(case_path, str) or not case_path:
            raise ConfigError("config.case_path must be a non-empty string")
        self.case_path = case_path
        self.base_dir = base_dir

        m = _need(raw, "model", "config")
        if not isinstance(m, dict):
            raise ConfigError("config.model must be an object")
        try:
            self.model = OutageModel(
                p0=_number(_need(m, "p0", "config.model"), "config.model.p0", 0.0, 1.0),
                p1=_number(_need(m, "p1", "config.model"), "config.model.p1", 0.0, 1.0),
                p_e=_number(_need(m, "p_e", "config.model"), "config.model.p_e", 0.0, 1.0),
                p_max=_number(m.get("p_max", 1.0), "config.model.p_max", 0.0, 1.0),
            )
        except ValueError as exc:
            raise ConfigError(f"config.model: {exc}") from None

        sis = raw.get("sis", {})
        if not isinstance(sis, dict):
            raise ConfigError("config.sis must be an object")
        self.sis_p_max = _number(sis.get("p_max", 0.999), "config.sis.p_max", 0.0, 1.0, lo_open=True)
        if self.sis_p_max >= 1.0:
            raise ConfigError("config.sis.p_max must be < 1")
        self.max_stages = _integer(sis.get("max_stages", 1000), "config.sis.max_stages", 1)

        self.eta_list = _float_list(_need(raw, "eta_list", "config"), "config.eta_list")
        for i, eta in enumerate(self.eta_list):
            if eta < 1.0:
                raise ConfigError(f"config.eta_list[{i}] must be >= 1, got {eta!r}")
        _check_eta_tags(self.eta_list, "config.eta_list")
        self.n_samples = _integer(_need(raw, "n_samples", "config"), "config.n_samples", 1)
        self.m_max = _integer(raw.get("m_max", 1), "config.m_max", 1)
        self.y0_list = _float_list(_need(raw, "y0_list", "config"), "config.y0_list")
        self.alpha_list = _float_list(raw.get("alpha_list", [0.9, 0.95, 0.99]), "config.alpha_list")
        for i, a in enumerate(self.alpha_list):
            if not 0.0 < a < 1.0:
                raise ConfigError(f"config.alpha_list[{i}] must be in (0, 1), got {a!r}")
        self.seed = _integer(_need(raw, "seed", "config"), "config.seed", 0)
        self.workers = _integer(raw.get("workers", 1), "config.workers", 1)
        self.path_budget = _integer(raw.get("path_budget", 10_000_000), "config.path_budget", 1)
        out = raw.get("output_dir")
        if out is not None and (not isinstance(out, str) or not out):
            raise ConfigError("config.output_dir must be a non-empty string")
        self.output_dir = out

    def sis_config(self, eta: float) -> SisConfig:
        return SisConfig(eta=eta, p_max=self.sis_p_max, max_stages=self.max_stages)

    def load_network(self) -> Network:
        if self.case_path.startswith("bundled:"):
            from .fixtures import case_path as bundled_path

            return load_case(bundled_path(self.case_path[len("bundled:"):]))
        path = Path(self.case_path)
        if not path.is_absolute():
            path = self.base_dir / path
        return load_case(path)

    def echo(self) -> dict:
        return {
            "case_path": self.case_path,
            "model": {
                "p0": self.model.p0,
                "p1": self.model.p1,
                "p_e": self.model.p_e,
                "p_max": self.model.p_max,
            },
            "sis": {"p_max": self.sis_p_max, "max_stages": self.max_stages},
            "eta_list": self.eta_list,
            "n_samples": self.n_samples,
            "m_max": self.m_max,
            "y0_list": self.y0_list,
            "alpha_list": self.alpha_list,
            "seed": self.seed,
            "workers": self.workers,
            "path_budget": self.path_budget,
        }


def _load_config(path_str: str, args: argparse.Namespace) -> RunConfig:
    path = Path(path_str)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from None
    cfg = RunConfig(raw, path.resolve().parent)

    # command line overrides
    if getattr(args, "seed", None) is not None:
        cfg.seed = _integer(args.seed, "--seed", 0)
    if getattr(args, "workers", None) is not None:
        cfg.workers = _integer(args.workers, "--workers", 1)
    if getattr(args, "eta", None):
        cfg.eta_list = [_number(e, "--eta") for e in args.eta]
        for eta in cfg.eta_list:
            if eta < 1.0:
                raise ConfigError(f"--eta must be >= 1, got {eta!r}")
        _check_eta_tags(cfg.eta_list, "--eta")
    if getattr(args, "n_samples", None) is not None:
        cfg.n_samples = _integer(args.n_samples, "--n-samples", 1)
    if getattr(args, "y0", None):
        cfg.y0_list = [_number(v, "--y0") for v in args.y0]
    if getattr(args, "output_dir", None) is not None:
        cfg.output_dir = args.output_dir
    return cfg


def _resolve_output_dir(cfg_output: str | None, config_path: str, command: str) -> Path:
    if cfg_output:
        return Path(cfg_output)
    root = os.environ.get("CASCADEMC_OUTPUT_ROOT", "runs")
    stem = Path(config_path).stem
    return Path(root) / f"{stem}-{command}"


# ----------------------------------------------------------------------
# deterministic output helpers


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config_echo: dict, files: list[Path]) -> Path:
    entries = {}
    for f in sorted(files):
        rel = f.relative_to(out_dir).as_posix()
        entries[rel] = {"sha256": _sha256(f), "bytes": f.stat().st_size}
    manifest = {
        "kind": "run_manifest",
        "version": 1,
        "command": command,
        "config": config_echo,
        "outputs": entries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    # verify: re-hash every listed file and compare
    for rel, entry in entries.items():
        again = _sha256(out_dir / rel)
        if again != entry["sha256"]:
            raise RuntimeError(f"output file changed while hashing: {rel}")
    return path


def _write_quantiles(path: Path, rows: list[dict]) -> None:
    cols = ["alpha", "var_mw", "cvar_mw", "tail_mass", "N", "eta", "seed"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in cols])


def _campaign_products(
    samples: SampleSet, y0_list: list[float], alpha_list: list[float]
) -> tuple[list[Estimate], list[dict]]:
    est: list[Estimate] = []
    prob = prob_mcs if samples.eta == 1.0 else prob_is
    for y0 in y0_list:
        est.append(prob(samples, y0))
    est.append(risk(samples, 0.0))
    qrows = []
    for alpha in alpha_list:
        tm = var_cvar(samples, alpha)
        qrows.append(
            {
                "alpha": alpha,
                "var_mw": tm.var,
                "cvar_mw": tm.cvar,
                "tail_mass": tm.tail_mass,
                "N": len(samples),
                "eta": samples.eta,
                "seed": int(samples.meta["seed"]),
            }
        )
    return est, qrows


# ----------------------------------------------------------------------
# subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args)
    net = cfg.load_network()
    out_dir = _resolve_output_dir(cfg.output_dir, args.config, "run")
    samples_dir = out_dir / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)

    cache = DispatchCache(net)
    outputs: list[Path] = []
    estimates: list[Estimate] = []
    quantile_rows: list[dict] = []
    for ei, eta in enumerate(cfg.eta_list):
        sis = cfg.sis_config(eta)
        for rep in range(cfg.m_max):
            seed = derive_seed(cfg.seed, ei, rep)
            ss = run_campaign(
                net, cfg.model, sis, cfg.n_samples, seed,
                workers=cfg.workers,
                dispatch_cache=cache if cfg.workers == 1 else None,
            )
            fname = samples_dir / f"{_eta_tag(eta)}_rep{rep}.ndjson"
            ss.write(fname)
            outputs.append(fname)
            est, qrows = _campaign_products(ss, cfg.y0_list, cfg.alpha_list)
            estimates.extend(est)
            quantile_rows.extend(qrows)

    est_path = out_dir / "estimates.csv"
    export_csv(estimates, est_path)
    outputs.append(est_path)
    q_path = out_dir / "quantiles.csv"
    _write_quantiles(q_path, quantile_rows)
    outputs.append(q_path)
    _write_manifest(out_dir, "run", cfg.echo(), outputs)
    print(f"run complete: {len(outputs)} output files in {out_dir}")
    return EXIT_OK


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args)
    net = cfg.load_network()
    out_dir = _resolve_output_dir(cfg.output_dir, args.config, "convergence")
    out_dir.mkdir(parents=True, exist_ok=True)

    # geometric prefix ladder: N, N/2, N/4, ... (at least 32 paths)
    sizes = []
    k = cfg.n_samples
    while k >= 32:
        sizes.append(k)
        k //= 2
    if not sizes:
        sizes = [cfg.n_samples]
    sizes.reverse()

    cache = DispatchCache(net)
    rows = []
    for ei, eta in enumerate(cfg.eta_list):
        sis = cfg.sis_config(eta)
        sets = []
        for rep in range(cfg.m_max):
            seed = derive_seed(cfg.seed, ei, rep)
            sets.append(
                run_campaign(
                    net, cfg.model, sis, cfg.n_samples, seed,
                    workers=cfg.workers,
                    dispatch_cache=cache if cfg.workers == 1 else None,
                )
            )
        prob = prob_mcs if eta == 1.0 else prob_is
        for y0 in cfg.y0_list:
            for size in sizes:
                ests = [prob(ss.prefix(size), y0) for ss in sets]
                mean = sum(e.value for e in ests) / len(ests)
                rep_var = replicate_variance(ests) if len(ests) >= 2 else float("nan")
                rows.append(
                    {
                        "eta": eta,
                        "Y0": y0,
                        "N": size,
                        "m": len(ests),
                        "mean_value": mean,
                        "replicate_variance": rep_var,
                        "mean_plugin_variance": sum(e.variance for e in ests) / len(ests),
                    }
                )

    conv_path = out_dir / "convergence.csv"
    cols = ["eta", "Y0", "N", "m", "mean_value", "replicate_variance", "mean_plugin_variance"]
    with open(conv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in cols])
    _write_manifest(out_dir, "convergence", cfg.echo(), [conv_path])
    print(f"convergence study complete: {conv_path}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args)
    net = cfg.load_network()
    out_dir = _resolve_output_dir(cfg.output_dir, args.config, "enumerate")
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs: list[Path] = []
    prop_rows = []
    cache = DispatchCache(net)
    for eta in cfg.eta_list:
        sis = cfg.sis_config(eta)
        enum = enumerate_paths(
            net, cfg.model, sis,
            path_budget=cfg.path_budget,
            dispatch_cache=cache,
        )
        golden_path = out_dir / f"golden_{_eta_tag(eta)}.json"
        write_golden(enum, golden_path, cfg.y0_list)
        outputs.append(golden_path)
        for y0 in cfg.y0_list:
            rep = verify_propositions(enum, y0)
            prop_rows.append(rep)

    prop_path = out_dir / "propositions.csv"
    cols = [
        "eta", "Y0", "mu", "w0", "bracket_ok", "sign_ok",
        "variance_forms_equal", "pointwise_all", "pointwise_fraction", "condition_met",
    ]
    with open(prop_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in prop_rows:
            writer.writerow(
                [
                    repr(r.eta), repr(r.y0), repr(float(r.mu)),
                    "" if r.w0 is None else repr(float(r.w0)),
                    r.prop1_bracket_ok, r.prop2_sign_ok,
                    r.eq15_eq17_equal, r.eq20_all_greater,
                    repr(r.eq20_fraction), r.condition_met,
                ]
            )
    outputs.append(prop_path)
    _write_manifest(out_dir, "enumerate", cfg.echo(), outputs)
    print(f"enumeration complete: {len(prop_rows)} proposition rows in {out_dir}")
    return EXIT_OK


def _run_eta_rank(samples_dir: Path) -> dict[float, int]:
    """Place of each eta in the eta_list of the run that wrote samples_dir,
    read from the run's manifest.json beside it; empty if there is none."""
    try:
        doc = json.loads((samples_dir.parent / "manifest.json").read_text())
        etas = doc["config"]["eta_list"] if doc["command"] == "run" else []
        return {eta: i for i, eta in enumerate(etas)}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def _cmd_analyze(args: argparse.Namespace) -> int:
    samples_dir = Path(args.samples)
    if not samples_dir.is_dir():
        raise ConfigError(f"--samples {samples_dir} is not a directory")
    files = sorted(samples_dir.glob("*.ndjson"))
    if not files:
        raise ConfigError(f"no .ndjson sample files in {samples_dir}")
    y0_list = [_number(v, "--y0") for v in (args.y0 or [])]
    if not y0_list:
        raise ConfigError("--y0 requires at least one threshold")
    alpha_list = [_number(v, "--alpha", 0.0, 1.0, lo_open=True) for v in (args.alpha or [0.9, 0.95, 0.99])]
    for a in alpha_list:
        if a >= 1.0:
            raise ConfigError(f"--alpha must be < 1, got {a!r}")
    out_dir = Path(args.output_dir) if args.output_dir else samples_dir.parent / "analysis"
    out_dir.mkdir(parents=True, exist_ok=True)

    # campaigns in the order run writes them: by the eta's place in the
    # run's eta_list (ascending eta without a run manifest), then by the
    # replicate number in the file name; one file is held in memory at a time
    eta_rank = _run_eta_rank(samples_dir)
    campaigns = []
    for f in files:
        ss = SampleSet.read(f)
        rep = _REP_NAME.search(f.name)
        order = (eta_rank.get(ss.eta, len(eta_rank)), ss.eta,
                 int(rep.group(1)) if rep else -1, f.name)
        campaigns.append((order, _campaign_products(ss, y0_list, alpha_list)))
    campaigns.sort(key=lambda c: c[0])
    estimates: list[Estimate] = []
    quantile_rows: list[dict] = []
    for _, (est, qrows) in campaigns:
        estimates.extend(est)
        quantile_rows.extend(qrows)

    est_path = out_dir / "estimates.csv"
    export_csv(estimates, est_path)
    q_path = out_dir / "quantiles.csv"
    _write_quantiles(q_path, quantile_rows)
    echo = {"samples": [order[-1] for order, _ in campaigns], "y0_list": y0_list, "alpha_list": alpha_list}
    _write_manifest(out_dir, "analyze", echo, [est_path, q_path])
    print(f"analysis complete: estimates for {len(files)} sample files in {out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascademc",
        description="Cascading-outage risk estimation by Monte Carlo and importance sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON study configuration")
        p.add_argument("--seed", type=int, help="override config.seed")
        p.add_argument("--workers", type=int, help="override config.workers")
        p.add_argument("--eta", type=float, nargs="+", help="override config.eta_list")
        p.add_argument("--n-samples", type=int, dest="n_samples", help="override config.n_samples")
        p.add_argument("--y0", type=float, nargs="+", help="override config.y0_list")
        p.add_argument("--output-dir", dest="output_dir", help="override output directory")

    p_run = sub.add_parser("run", help="sample paths and write estimates")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="prefix convergence study")
    common(p_conv)
    p_conv.set_defaults(func=_cmd_convergence)

    p_enum = sub.add_parser("enumerate", help="exact enumeration and golden files")
    common(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_an = sub.add_parser("analyze", help="re-estimate from stored sample files")
    p_an.add_argument("--samples", required=True, help="directory of .ndjson sample files")
    p_an.add_argument("--y0", type=float, nargs="+", help="thresholds (MW)")
    p_an.add_argument("--alpha", type=float, nargs="+", help="tail levels in (0, 1)")
    p_an.add_argument("--output-dir", dest="output_dir", help="output directory")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CaseError as exc:
        print(f"case error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"case error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationBudgetError as exc:
        print(f"enumeration aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
