"""The benchmark's workloads.

A workload makes its study configurations from the benchmark seed, gives
the ``cascademc`` CLI commands of one round, and checks what they wrote.
Round ``r`` of a fixture workload run with seed ``s`` uses the study
seed ``study_seed(case, s, r)``, so every round samples fresh paths and
the same (workload, seed) always gives the same inputs.  ``case300_cold``
replays one reference study (see ``Case300Cold.round_seed``).

``check_campaign`` runs on each campaign's in-memory sample set as it
returns (cheap, so no campaign's buffers are kept past the program's own
use); ``check_run`` runs once after the measured rounds and reads their
files, with the exact-law and LP references.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from checks import (
    CheckError,
    add_terminal_sheds,
    check_against_exact,
    check_estimates,
    check_file_rows,
    check_lp,
    check_same_bytes,
    check_shed_atoms,
    check_shed_range,
    check_weights,
    read_csv_rows,
    read_samples,
)

FIXTURE_MODELS = {
    # the reference outage models of the bundled fixtures (cascademc.fixtures)
    "bridge6": {"p0": 0.015625, "p1": 0.375, "p_e": 0.0078125, "p_max": 0.75},
    "ring3": {"p0": 0.0625, "p1": 0.5, "p_e": 0.0, "p_max": 0.75},
}
# the 300-bus tail-reach model (acceptance criterion 9)
CASE300_MODEL = {"p0": 0.0002, "p1": 0.0625, "p_e": 0.0, "p_max": 0.999}
# distinct terminal states per run whose shed is checked against the LP
LP_STATES = 20


def study_seed(key: str, seed: int, r: int) -> int:
    digest = hashlib.blake2b(f"{key}/{seed}/{r}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 2


class Workload:
    name = ""
    case = ""
    model: dict = {}
    sis = {"p_max": 0.75, "max_stages": 64}
    eta_list = [1.0, 2.0]
    n_samples = 0
    m_max = 1
    y0_list: list[float] = []
    alpha_list = [0.9, 0.95, 0.99]
    # threshold of the headline estimate P(Y >= y0) recorded per campaign
    headline_y0 = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.records: list[dict] = []
        self.sheds: list[np.ndarray] = []

    def write_config(self, r: int, rdir: Path) -> Path:
        cfg = {
            "case_path": f"bundled:{self.case}",
            "model": self.model,
            "sis": self.sis,
            "eta_list": self.eta_list,
            "n_samples": self.n_samples,
            "m_max": self.m_max,
            "y0_list": self.y0_list,
            "alpha_list": self.alpha_list,
            "seed": self.round_seed(r),
            "workers": 1,
            "output_dir": str(rdir / "study"),
        }
        rdir.mkdir(parents=True, exist_ok=True)
        path = rdir / "study.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def round_seed(self, r: int) -> int:
        return study_seed(self.case, self.seed, r)

    def commands(self, r: int, rdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check_campaign(self, ss) -> None:
        """Weights, and a record of the campaign's headline estimate."""
        where = f"campaign eta={ss.eta:g} seed={ss.meta['seed']}"
        check_weights(ss.eta, ss.weight, ss.log_p_c, ss.log_q_c, where)
        keep = ~ss.truncated
        contrib = ss.weight[keep] * (ss.shed_mw[keep] >= self.headline_y0)
        n = int(keep.sum())
        value = math.fsum(contrib.tolist()) / n
        se = float(contrib.std(ddof=1)) / math.sqrt(n)
        self.records.append({
            "eta": ss.eta, "n": len(ss), "truncated": int(ss.n_truncated),
            "mean_weight": float(ss.weight.mean()),
            "headline_y0": self.headline_y0, "headline_value": value,
            "headline_rse": se / value if value else None,
        })
        self.sheds.append(np.unique(ss.shed_mw))

    def check_run(self, net, rounds: list[Path]) -> None:
        pass


# ----------------------------------------------------------------------
# fixtures: checked against the exact law of the enumeration oracle


class FixtureWorkload(Workload):
    sis = {"p_max": 0.75, "max_stages": 64}
    _law = None

    def exact_law(self, net):
        """{eta: (shed atoms, {y0: (mu, per-path variance)})} from the oracle."""
        from cascademc import OutageModel, SisConfig, enumerate_paths

        if self._law is None:
            model = OutageModel(**self.model)
            self._law = {}
            for eta in self.eta_list:
                enum = enumerate_paths(net, model, SisConfig(eta=eta, **self.sis))
                law = {}
                for y0 in self.y0_list:
                    s = enum.summary(y0)
                    second = s.mu if eta == 1.0 else s.sum_w2_q
                    law[y0] = (float(s.mu), float(second - s.mu * s.mu))
                self._law[eta] = ({a for a, _ in enum.shed_atoms()}, law)
                if enum.total_p != Fraction(1):
                    raise CheckError(f"{self.case}: exact path law sums to {enum.total_p}")
        return self._law

    def check_run(self, net, rounds: list[Path]) -> None:
        law = self.exact_law(net)
        for rec, sheds in zip(self.records, self.sheds):
            if rec["truncated"]:
                raise CheckError(f"campaign eta={rec['eta']:g}: {rec['truncated']} paths truncated")
            check_shed_atoms(sheds, law[rec["eta"]][0], f"campaign eta={rec['eta']:g}")


class FixtureConvergence(FixtureWorkload):
    name = "fixture_convergence"
    case = "bridge6"
    model = FIXTURE_MODELS["bridge6"]
    eta_list = [1.0, 1.5, 2.0]
    n_samples = 100_000
    m_max = 3
    y0_list = [16.0, 48.0, 100.0]
    headline_y0 = 48.0

    def commands(self, r, rdir):
        return [["convergence", "--config", str(self.write_config(r, rdir))]]

    def check_run(self, net, rounds):
        super().check_run(net, rounds)
        law = self.exact_law(net)
        for rdir in rounds:
            rows = read_csv_rows(rdir / "study" / "convergence.csv")
            full = [row for row in rows if int(row["N"]) == self.n_samples]
            if len(full) != len(self.eta_list) * len(self.y0_list):
                raise CheckError(f"{rdir.name}: convergence.csv has {len(full)} full-N rows")
            for row in full:
                eta, y0 = float(row["eta"]), float(row["Y0"])
                mu, var1 = law[eta][1][y0]
                check_against_exact(
                    float(row["mean_value"]), mu, var1, self.n_samples, int(row["m"]),
                    f"{rdir.name} convergence eta={eta:g} Y0={y0:g}",
                )


class FixtureRunAnalyze(FixtureWorkload):
    name = "fixture_run_analyze"
    case = "ring3"
    model = FIXTURE_MODELS["ring3"]
    eta_list = [1.0, 2.0]
    n_samples = 100_000
    m_max = 2
    y0_list = [10.0, 30.0, 80.0]
    headline_y0 = 30.0

    def commands(self, r, rdir):
        study = rdir / "study"
        return [
            ["run", "--config", str(self.write_config(r, rdir))],
            ["analyze", "--samples", str(study / "samples"),
             "--y0", *map(repr, self.y0_list), "--alpha", *map(repr, self.alpha_list),
             "--output-dir", str(study / "analysis")],
        ]

    def check_run(self, net, rounds):
        super().check_run(net, rounds)
        law = self.exact_law(net)
        for i, rdir in enumerate(rounds):
            study = rdir / "study"
            for name in ("estimates.csv", "quantiles.csv"):
                check_same_bytes(study / name, study / "analysis" / name)
            files = sorted((study / "samples").glob("*.ndjson"))
            if len(files) != len(self.eta_list) * self.m_max:
                raise CheckError(f"{rdir.name}: {len(files)} sample files")
            rows = read_csv_rows(study / "estimates.csv")
            if i == 0:
                # parsing 4e5 rows takes seconds: the first round's files are
                # read in full, the others' rows only counted
                campaigns = []
                for f in files:
                    s = read_samples(f)
                    where = f"{rdir.name}/{f.name}"
                    check_file_rows(f, where)
                    check_weights(s.eta, s.weight, s.log_p, s.log_q, where)
                    check_shed_atoms(s.shed, law[s.eta][0], where)
                    campaigns.append(s)
                check_estimates(rows, campaigns, self.y0_list, f"{rdir.name}/estimates.csv")
            else:
                for f in files:
                    check_file_rows(f, f"{rdir.name}/{f.name}")
            for row in rows:
                if row["estimator_kind"].endswith("_prob"):
                    eta, y0 = float(row["eta"]), float(row["Y0"])
                    mu, var1 = law[eta][1][y0]
                    check_against_exact(float(row["value"]), mu, var1, int(row["N"]), 1,
                                        f"{rdir.name} estimate eta={eta:g} Y0={y0:g}")


# ----------------------------------------------------------------------
# case300: checked by bounds, consistency and an independent LP


class Case300Cold(Workload):
    name = "case300_cold"
    case = "case300"
    model = CASE300_MODEL
    sis = {"p_max": 0.999, "max_stages": 60}
    eta_list = [1.0, 2.0]
    n_samples = 500
    y0_list = [10.0, 100.0, 500.0]
    alpha_list = [0.9, 0.99]
    headline_y0 = 10.0

    def round_seed(self, r):
        """Every round replays one reference study, whatever the benchmark
        seed.  The cost of a cold case300 round depends on which rare deep
        cascades its study samples: fresh studies per round took 2.7 to
        9.9 s, and over ten seeds the spread of a 20 s run was 30% of the
        median, beyond any useful regression bound."""
        return study_seed(self.case, "reference", 0)

    def commands(self, r, rdir):
        return [["run", "--config", str(self.write_config(r, rdir))]]

    def check_run(self, net, rounds):
        total = math.fsum(net.load.tolist())
        table: dict = {}
        for rdir in rounds:
            study = rdir / "study"
            campaigns = []
            for f in sorted((study / "samples").glob("*.ndjson")):
                s = read_samples(f)
                where = f"{rdir.name}/{f.name}"
                check_file_rows(f, where)
                check_weights(s.eta, s.weight, s.log_p, s.log_q, where)
                check_shed_range(s.shed, s.truncated, total, where)
                add_terminal_sheds(table, s, where)
                campaigns.append(s)
            if len(campaigns) != len(self.eta_list):
                raise CheckError(f"{rdir.name}: {len(campaigns)} sample files")
            check_estimates(read_csv_rows(study / "estimates.csv"), campaigns,
                            self.y0_list, f"{rdir.name}/estimates.csv")
            # a rerun of the same study writes the same bytes
            for name in ("samples/eta1_rep0.ndjson", "samples/eta2_rep0.ndjson", "estimates.csv"):
                check_same_bytes(rounds[0] / "study" / name, study / name)
        check_lp(net, table, LP_STATES)


WORKLOADS = {w.name: w for w in (FixtureConvergence, FixtureRunAnalyze, Case300Cold)}
