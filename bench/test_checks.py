"""Tests of the benchmark's output checks.

Each check must pass on real outputs and reject a deliberately corrupted
copy: a shed value moved by 1 MW, a weight column scaled by 1.1, a sample
file missing its last row, a changed byte in estimates.csv.

Run from the root of a checkout:  python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cascademc.cli import main  # noqa: E402
from cascademc.fixtures import case_path  # noqa: E402
from cascademc.grid_model import load_case  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import Case300Cold, FixtureRunAnalyze  # noqa: E402


class SmallRunAnalyze(FixtureRunAnalyze):
    n_samples = 2000


class SmallCase300(Case300Cold):
    n_samples = 40


def _run_round(wl, rdir):
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in wl.commands(0, rdir):
            assert main(argv) == 0


@pytest.fixture(scope="module")
def ring3_master(tmp_path_factory):
    rdir = tmp_path_factory.mktemp("ring3") / "round0"
    _run_round(SmallRunAnalyze(seed=3), rdir)
    return rdir


@pytest.fixture(scope="module")
def case300_master(tmp_path_factory):
    rdir = tmp_path_factory.mktemp("case300") / "round0"
    _run_round(SmallCase300(seed=3), rdir)
    return rdir


@pytest.fixture
def ring3(ring3_master, tmp_path):
    """A fresh copy of one ring3 round, its workload and network."""
    rdir = tmp_path / "round0"
    shutil.copytree(ring3_master, rdir)
    return SmallRunAnalyze(seed=3), rdir, load_case(case_path("ring3"))


@pytest.fixture
def case300(case300_master, tmp_path):
    rdir = tmp_path / "round0"
    shutil.copytree(case300_master, rdir)
    return SmallCase300(seed=3), rdir, load_case(case_path("case300"))


def edit_rows(path: Path, edit) -> None:
    """Rewrite every path row of a sample file through ``edit(index, row)``."""
    lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    for i, row in enumerate(rows):
        edit(i, row)
    path.write_text("\n".join([lines[0], *map(json.dumps, rows)]) + "\n")


def sample_file(rdir: Path, eta: str) -> Path:
    return rdir / "study" / "samples" / f"eta{eta}_rep0.ndjson"


# ----------------------------------------------------------------------
# real outputs pass


def test_ring3_round_passes(ring3):
    wl, rdir, net = ring3
    wl.check_run(net, [rdir])


def test_case300_round_passes(case300):
    wl, rdir, net = case300
    wl.check_run(net, [rdir])


def test_reference_lp_agrees_with_dispatch_on_case300():
    from cascademc.dc_power import dispatch

    net = load_case(case_path("case300"))
    total = math.fsum(net.load.tolist())
    for tripped in [(), (0,), (5, 17), (100, 101, 102)]:
        live = [k not in tripped for k in range(net.n_branches)]
        got = dispatch(net, live).total_shed
        assert abs(got - checks.lp_min_shed(net, tripped)) <= checks.LP_TOL * total


# ----------------------------------------------------------------------
# corrupted outputs are rejected


def test_shed_moved_by_1mw_fixture(ring3):
    wl, rdir, net = ring3
    edit_rows(sample_file(rdir, "2"), lambda i, row: i == 7 and row.update(shed_mw=row["shed_mw"] + 1.0))
    with pytest.raises(CheckError, match="not a value the exact law allows"):
        wl.check_run(net, [rdir])


def test_shed_moved_by_1mw_case300(case300):
    wl, rdir, net = case300
    s = checks.read_samples(sample_file(rdir, "2"))
    worst = int(s.shed.argmax())
    edit_rows(sample_file(rdir, "2"), lambda i, row: i == worst and row.update(shed_mw=row["shed_mw"] + 1.0))
    # caught by the per-state shed table or by the recomputed risk estimate
    with pytest.raises(CheckError, match="elsewhere|recomputed from samples"):
        wl.check_run(net, [rdir])


def test_shed_moved_by_1mw_fails_reference_lp(case300):
    _, rdir, net = case300
    s = checks.read_samples(sample_file(rdir, "2"))
    worst = int(s.shed.argmax())
    table = {s.tripped[worst]: float(s.shed[worst])}
    assert checks.check_lp(net, table, 1) == 1
    table[s.tripped[worst]] += 1.0
    with pytest.raises(CheckError, match="reference LP"):
        checks.check_lp(net, table, 1)


@pytest.mark.parametrize("eta", ["1", "2"])
def test_weight_column_scaled(ring3, eta):
    wl, rdir, net = ring3
    edit_rows(sample_file(rdir, eta), lambda i, row: row.update(weight=row["weight"] * 1.1))
    with pytest.raises(CheckError, match="weight"):
        wl.check_run(net, [rdir])


def test_scaled_weights_with_matching_logs_fail_mean_check(ring3):
    # weights stay exp(log_p - log_q), but E_q[w] = 1.1
    _, rdir, _ = ring3
    edit_rows(sample_file(rdir, "2"), lambda i, row: row.update(
        weight=row["weight"] * 1.1, log_p_c=row["log_p_c"] + math.log(1.1)))
    s = checks.read_samples(sample_file(rdir, "2"))
    with pytest.raises(CheckError, match="standard errors from 1"):
        checks.check_weights(2.0, s.weight, s.log_p, s.log_q, "eta2")


def test_sample_file_missing_last_row(ring3):
    wl, rdir, net = ring3
    path = sample_file(rdir, "1")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(CheckError, match="rows, header says"):
        wl.check_run(net, [rdir])


def test_changed_byte_in_estimates(ring3):
    wl, rdir, net = ring3
    path = rdir / "study" / "estimates.csv"
    data = bytearray(path.read_bytes())
    # a digit inside the value column of the first data row
    row_start = data.index(b"\n") + 1
    value_at = data.index(b",", data.index(b",", row_start) + 1) + 3
    data[value_at] = ord("7") if data[value_at] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckError, match="estimates.csv"):
        wl.check_run(net, [rdir])
    # the recomputation check alone also rejects it
    rows = checks.read_csv_rows(path)
    campaigns = [checks.read_samples(p) for p in sorted((rdir / "study" / "samples").glob("*.ndjson"))]
    with pytest.raises(CheckError, match="recomputed from samples"):
        checks.check_estimates(rows, campaigns, wl.y0_list, "estimates.csv")


def test_exact_law_check_rejects_a_biased_estimate():
    mu, var1, n = 0.1, 0.09, 100_000
    se = math.sqrt(var1 / n)
    checks.check_against_exact(mu + 4 * se, mu, var1, n, 1, "ok")
    with pytest.raises(CheckError, match="exact standard errors"):
        checks.check_against_exact(mu + 6 * se, mu, var1, n, 1, "biased")


def test_inconsistent_terminal_shed():
    table = {}
    s = checks.Samples(header={"eta": 1.0}, n=None, shed=checks.np.array([5.0, 6.0]), log_p=None,
                       log_q=None, weight=None, truncated=None, tripped=[(1, 2), (1, 2)])
    with pytest.raises(CheckError, match="elsewhere"):
        checks.add_terminal_sheds(table, s, "file")
