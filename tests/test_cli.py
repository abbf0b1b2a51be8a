"""End-to-end CLI tests: validation, outputs, manifests, determinism."""

import csv
import hashlib
import json

import pytest

from cascademc.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main


def write_config(tmp_path, name="study.json", **over):
    cfg = {
        "case_path": "bundled:ring3",
        "model": {"p0": 0.0625, "p1": 0.5, "p_e": 0.0, "p_max": 0.75},
        "sis": {"p_max": 0.75, "max_stages": 64},
        "eta_list": [1.0, 2.0],
        "n_samples": 64,
        "m_max": 1,
        "y0_list": [30.0, 80.0],
        "alpha_list": [0.9],
        "seed": 5,
        "workers": 1,
    }
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "over,fragment",
    [
        (dict(case_path=None), "case_path"),
        (dict(model={"p0": 0.5}), "config.model"),
        (dict(model={"p0": 0.5, "p1": 0.1, "p_e": 0.0}), "config.model"),
        (dict(eta_list=[0.5]), "eta_list[0]"),
        (dict(alpha_list=[1.5]), "alpha_list[0]"),
        (dict(n_samples=0), "n_samples"),
        (dict(seed=-1), "seed"),
        (dict(bogus_key=1), "bogus_key"),
        (dict(sis={"p_max": 1.0}), "sis.p_max"),
    ],
)
def test_config_validation_exits_2_with_field_path(tmp_path, capsys, over, fragment):
    over = {k: v for k, v in over.items() if v is not None} or {"case_path": ""}
    cfg = write_config(tmp_path, **over)
    if "case_path" in over and over.get("case_path") == "":
        cfg.write_text(
            json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                        if k != "case_path"})
        )
    code = main(["run", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"case_path": "bundled:ring3",\n  "model": }')
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_missing_case_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, case_path="does_not_exist.json")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "case error" in capsys.readouterr().err


def test_flag_override_validation(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--eta", "0.5"]) == EXIT_CONFIG
    assert "--eta" in capsys.readouterr().err


def test_etas_with_one_file_name_are_rejected(tmp_path, capsys):
    # eta{eta:g} names both campaigns eta1: the second would overwrite the first
    cfg = write_config(tmp_path, eta_list=[1.0, 1.0000001], output_dir=str(tmp_path / "out"))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config.eta_list[0] = 1.0 and config.eta_list[1] = 1.0000001" in err
    assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--eta", "2", "1", "2.0000001"]) == EXIT_CONFIG
    assert "--eta[0] = 2.0 and --eta[2] = 2.0000001" in capsys.readouterr().err


# ----------------------------------------------------------------------
# run command


def run_study(tmp_path, out_name="out", **over):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / out_name), **over)
    code = main(["run", "--config", str(cfg)])
    assert code == EXIT_OK
    return tmp_path / out_name


def test_run_produces_expected_files(tmp_path):
    out = run_study(tmp_path)
    assert (out / "samples" / "eta1_rep0.ndjson").is_file()
    assert (out / "samples" / "eta2_rep0.ndjson").is_file()
    assert (out / "estimates.csv").is_file()
    assert (out / "quantiles.csv").is_file()
    assert (out / "manifest.json").is_file()

    rows = read_csv(out / "estimates.csv")
    # per eta: one probability row per y0 plus one risk row
    assert len(rows) == 1 + 2 * 3
    kinds = [r[0] for r in rows[1:]]
    assert kinds == ["mcs_prob", "mcs_prob", "mcs_risk",
                     "is_prob", "is_prob", "is_risk"]

    qrows = read_csv(out / "quantiles.csv")
    assert qrows[0] == ["alpha", "var_mw", "cvar_mw", "tail_mass", "N", "eta", "seed"]
    assert len(qrows) == 1 + 2  # one alpha per eta


def test_manifest_hashes_match_files(tmp_path):
    out = run_study(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "run_manifest"
    assert manifest["command"] == "run"
    assert manifest["config"]["seed"] == 5
    assert len(manifest["outputs"]) == 4
    for rel, entry in manifest["outputs"].items():
        f = out / rel
        assert f.stat().st_size == entry["bytes"]
        assert sha256(f) == entry["sha256"]


def test_rerun_is_byte_identical(tmp_path):
    out1 = run_study(tmp_path, out_name="a")
    out2 = run_study(tmp_path, out_name="b")
    for rel in ("samples/eta1_rep0.ndjson", "samples/eta2_rep0.ndjson",
                "estimates.csv", "quantiles.csv"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_worker_count_is_byte_identical(tmp_path):
    out1 = run_study(tmp_path, out_name="w1", workers=1)
    out2 = run_study(tmp_path, out_name="w2", workers=2)
    for rel in ("samples/eta1_rep0.ndjson", "samples/eta2_rep0.ndjson",
                "estimates.csv", "quantiles.csv"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_seed_override_changes_outputs(tmp_path):
    out1 = run_study(tmp_path, out_name="s1")
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "s2"))
    assert main(["run", "--config", str(cfg), "--seed", "6"]) == EXIT_OK
    m2 = json.loads((tmp_path / "s2" / "manifest.json").read_text())
    assert m2["config"]["seed"] == 6
    assert (
        (tmp_path / "s1" / "samples" / "eta1_rep0.ndjson").read_bytes()
        != (tmp_path / "s2" / "samples" / "eta1_rep0.ndjson").read_bytes()
    )


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CASCADEMC_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = write_config(tmp_path, name="envstudy.json")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "root" / "envstudy-run" / "manifest.json").is_file()


def test_relative_case_path_resolves_against_config_dir(tmp_path):
    src = json.loads(
        (write_config(tmp_path)).read_text()  # reuse defaults for the model
    )
    import cascademc.fixtures as fx

    case = json.loads(fx.case_path("ring3").read_text())
    (tmp_path / "local_case.json").write_text(json.dumps(case))
    src["case_path"] = "local_case.json"
    src["output_dir"] = str(tmp_path / "rel")
    cfg = tmp_path / "rel.json"
    cfg.write_text(json.dumps(src))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK


# ----------------------------------------------------------------------
# analyze command


def test_analyze_recomputes_at_new_thresholds(tmp_path):
    out = run_study(tmp_path)
    dest = tmp_path / "analysis"
    code = main([
        "analyze", "--samples", str(out / "samples"),
        "--y0", "50",
        "--alpha", "0.95",
        "--output-dir", str(dest),
    ])
    assert code == EXIT_OK
    rows = read_csv(dest / "estimates.csv")
    # 2 sample files x (1 y0 + risk)
    assert len(rows) == 1 + 4
    assert {r[1] for r in rows[1:]} == {"50.0", "0.0"}
    manifest = json.loads((dest / "manifest.json").read_text())
    assert manifest["command"] == "analyze"


@pytest.mark.parametrize("over", [
    dict(eta_list=[2.0, 10.0]), dict(eta_list=[1.0], m_max=11), dict(eta_list=[2.0, 1.0]),
])
def test_analyze_orders_campaigns_like_run(tmp_path, over):
    # file names sort eta10 before eta2 and rep10 before rep2; a descending
    # eta_list is taken from the run's manifest
    out = run_study(tmp_path, n_samples=16, **over)
    dest = tmp_path / "analysis"
    assert main([
        "analyze", "--samples", str(out / "samples"),
        "--y0", "30", "80", "--alpha", "0.9", "--output-dir", str(dest),
    ]) == EXIT_OK
    for name in ("estimates.csv", "quantiles.csv"):
        assert (dest / name).read_bytes() == (out / name).read_bytes(), name


def test_analyze_requires_samples_and_thresholds(tmp_path, capsys):
    assert main(["analyze", "--samples", str(tmp_path / "missing"),
                 "--y0", "1"]) == EXIT_CONFIG
    (tmp_path / "empty").mkdir()
    assert main(["analyze", "--samples", str(tmp_path / "empty"),
                 "--y0", "1"]) == EXIT_CONFIG
    out = run_study(tmp_path)
    assert main(["analyze", "--samples", str(out / "samples")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--y0" in err


# ----------------------------------------------------------------------
# convergence command


def test_convergence_prefix_ladder(tmp_path):
    cfg = write_config(
        tmp_path,
        output_dir=str(tmp_path / "conv"),
        eta_list=[1.0],
        n_samples=128,
        m_max=3,
        y0_list=[30.0],
    )
    assert main(["convergence", "--config", str(cfg)]) == EXIT_OK
    rows = read_csv(tmp_path / "conv" / "convergence.csv")
    assert rows[0] == ["eta", "Y0", "N", "m", "mean_value",
                       "replicate_variance", "mean_plugin_variance"]
    sizes = [int(r[2]) for r in rows[1:]]
    assert sizes == [32, 64, 128]
    assert all(int(r[3]) == 3 for r in rows[1:])
    # replicate variance shrinks roughly with N; just require finiteness
    assert all(float(r[5]) >= 0.0 for r in rows[1:])


# ----------------------------------------------------------------------
# enumerate command


def test_enumerate_writes_golden_and_propositions(tmp_path):
    cfg = write_config(
        tmp_path, output_dir=str(tmp_path / "enum"), eta_list=[1.0, 2.0]
    )
    assert main(["enumerate", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "enum"
    assert (out / "golden_eta1.json").is_file()
    assert (out / "golden_eta2.json").is_file()
    rows = read_csv(out / "propositions.csv")
    assert rows[0][:4] == ["eta", "Y0", "mu", "w0"]
    assert len(rows) == 1 + 2 * 2  # per eta per y0
    g = json.loads((out / "golden_eta1.json").read_text())
    assert g["kind"] == "enumeration"
    assert g["n_paths"] == 14
    assert g["sum_p"] == "1/1"


def test_enumerate_budget_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path, output_dir=str(tmp_path / "enum2"), path_budget=5
    )
    assert main(["enumerate", "--config", str(cfg)]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err
