import dataclasses
import json
import math

import pytest

from boxcgf import experiments
from boxcgf.cli import main
from boxcgf.config import ConfigError, ExperimentConfig
from boxcgf.experiments import (run_additivity, run_calibrate,
                                run_certificate_audit, run_clt, run_lrp,
                                run_mdp)
from boxcgf.report import ExperimentReport


def small_config(**overrides):
    data = {
        "model": {"d": 1, "kind": "gaussian_ma", "m": 1.0,
                  "kernel": "indicator", "grid_h": 0.25, "amplitude": 1.0},
        "boxes": [[200.0], [1000.0]],
        "mu_grid": [0.5, 1.0, 2.0],
        "c_grid": [1.5, 2.0],
        "n_samples": 50_000,
        "n_replicas": 4_000,
        "seed": 12345,
        "engine": {"c1": 4.0, "eps": 0.1, "w_min": 4.0, "c3": 3.0},
        "additivity_pairs": [[100.0, 100.0], [200.0, 400.0]],
        "audit_base_scale": 8.0,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_samples=10)
    with pytest.raises(ConfigError):
        small_config(boxes=[])
    with pytest.raises(ConfigError):
        small_config(boxes=[[10.0, 10.0]])  # dimension mismatch
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": {"d": 1, "kind": "gaussian_ma",
                                              "m": 1.0}})  # missing keys


def test_config_hash_stable():
    a, b = small_config(), small_config()
    assert a.config_hash == b.config_hash
    assert a.config_hash != small_config(seed=1).config_hash


def test_lrp_rows_and_oracle():
    rep = run_lrp(small_config())
    assert rep.columns[:8] == ["d", "sides", "vol", "lambda", "value", "ci",
                               "reference", "pass"]
    exact = [r for r in rep.rows if r["provenance"] == "exact"]
    assert exact
    for row in exact:
        r = row["sides"][0]
        # closed form: (1/2)(1 - 1/(3r)) against the 0.5 limit
        assert row["value"] == pytest.approx(0.5 * (1 - 1 / (3 * r)), rel=1e-12)
        assert row["pass"]
    assert rep.all_pass


def test_lrp_constraint_flags_large_lambda():
    cfg = small_config(lrp_lambda_bound=1e-6)
    rep = run_lrp(cfg)
    estimates = [r for r in rep.rows if r["provenance"] == "estimate"]
    assert estimates and all(r["flagged"] for r in estimates)
    assert rep.all_pass  # flagged rows are excluded from the verdict


def test_lrp_values_approach_limit_with_volume():
    rep = run_lrp(small_config())
    by_vol = {}
    for row in rep.rows:
        if row["provenance"] == "exact":
            by_vol[row["vol"]] = abs(row["value"] - 0.5)
    vols = sorted(by_vol)
    assert by_vol[vols[-1]] < by_vol[vols[0]]


def test_mdp_direct_and_reference():
    rep = run_mdp(small_config(boxes=[[1000.0]], n_samples=200_000))
    assert rep.all_pass
    for row in rep.rows:
        assert row["method"] == "direct"
        assert row["hits"] > 0
        assert row["reference"] < 0.0


def test_mdp_zero_hits_flagged_clopper_pearson():
    rep = run_mdp(small_config(boxes=[[1000.0]], n_samples=1_000,
                               c_grid=[6.0]))
    (row,) = rep.rows
    assert row["flagged"] and row["method"] == "clopper_pearson_upper"
    assert row["value"] == pytest.approx(math.log(1 - 0.05 ** 0.001) / 36.0)
    assert rep.all_pass  # excluded from the verdict


def test_mdp_importance_sampling_matches_reference():
    cfg = small_config(boxes=[[1000.0]], n_samples=100_000,
                       c_grid=[2.0, 3.0], mdp_importance_sampling=True)
    rep = run_mdp(cfg)
    assert rep.all_pass
    for row in rep.rows:
        assert row["method"] == "importance"
        assert abs(row["value"] - row["reference"]) <= 0.1 + row["ci"]


def test_clt_gaussian_exact_reference():
    rep = run_clt(small_config(boxes=[[500.0]]))
    (row,) = rep.rows
    assert row["pass"] and row["p_value"] > 0.01
    assert row["sigma2_ref"] == pytest.approx(
        (500.0 - 1.0 / 3.0) / 500.0, rel=1e-12)


def test_clt_nonlinear_model():
    cfg = small_config(
        model={"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
               "kernel": "indicator", "nonlinearity": "clipped",
               "clip_level": 1.0, "grid_h": 0.25, "amplitude": 1.0},
        boxes=[[300.0]], n_replicas=2_000)
    rep = run_clt(cfg)
    (row,) = rep.rows
    assert row["pass"]


def test_additivity_defect_matches_closed_form():
    rep = run_additivity(small_config())
    assert rep.all_pass
    for row in rep.rows:
        # Gaussian oracle: defect of r*(1 - 1/(3r)) is exactly 1/3 absolute
        r, s = row["r"], row["s"]
        expect = (1.0 / 3.0) / (r + s - 1.0 / 3.0)
        assert row["reference_rel"] == pytest.approx(expect, rel=1e-9)


def test_audit_soundness_and_flagging():
    rep = run_certificate_audit(small_config(boxes=[[256.0], [1024.0]]))
    for row in rep.rows:
        assert row["sound"]
        assert row["upper"] >= row["reference"] >= row["lower"]
        if "annihilated" in row["note"]:
            assert row["flagged"]


def test_audit_small_box_flagged():
    rep = run_certificate_audit(small_config(boxes=[[6.0]]))
    (row,) = rep.rows
    assert row["flagged"] and row["note"] == "width below base scale"


def test_audit_estimates_shared_base_once(monkeypatch):
    # 256, 1024 and 4096 all normalise to the base box [8.0]
    cfg = small_config(model={"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
                              "nonlinearity": "clipped"},
                       boxes=[[256.0], [1024.0], [4096.0]], n_samples=2000,
                       n_replicas=200, seed=0)
    calls = []
    estimate = experiments.estimate_cgf

    def counted(model, b, *args, **kwargs):
        calls.append(b.sides)
        return estimate(model, b, *args, **kwargs)

    monkeypatch.setattr(experiments, "estimate_cgf", counted)
    rep = run_certificate_audit(cfg, workers=2)
    assert calls == [(8.0,)]
    # one box per run estimates its own base: the rows of the shared run
    # must be those runs' rows
    single = [run_certificate_audit(dataclasses.replace(cfg, boxes=[b])).to_csv()
              for b in cfg.boxes]
    assert rep.to_csv().splitlines()[1:] == [s.splitlines()[1] for s in single]


def test_calibrate_reports_c1():
    rep = run_calibrate(small_config(boxes=[[64.0], [256.0]]))
    (row,) = rep.rows
    assert row["pass"]
    assert row["c1"] >= 3.0
    assert row["n_admissible"] > 0 and row["n_failed"] == 0


def test_workers_do_not_change_results():
    cfg = small_config()
    assert run_lrp(cfg, workers=1).to_csv() == run_lrp(cfg, workers=4).to_csv()
    assert run_mdp(cfg, workers=1).to_csv() == run_mdp(cfg, workers=3).to_csv()


def test_report_pass_semantics():
    rep = ExperimentReport(name="t", columns=["a", "pass", "flagged"])
    rep.add_row(a=1, **{"pass": True})
    rep.add_row(a=2, **{"pass": False}, flagged=True)
    assert rep.all_pass
    rep.add_row(a=3, **{"pass": False})
    assert not rep.all_pass


def test_report_csv_deterministic_format():
    rep = ExperimentReport(name="t", columns=["x", "sides", "ok"])
    rep.add_row(x=0.1, sides=(2.0, 3.0), ok=True)
    assert rep.to_csv() == "x,sides,ok\n0.1,2.0x3.0,1\n"


def write_config(tmp_path, **overrides):
    cfg = small_config(**overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.raw))
    return path


def test_cli_exit_codes_and_output(tmp_path, capsys):
    path = write_config(tmp_path, boxes=[[200.0]], n_samples=20_000)
    code = main(["lrp", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    out_file = tmp_path / "out" / "lrp.csv"
    assert out_file.exists()
    header = out_file.read_text().splitlines()[0]
    assert header.startswith("d,sides,vol,lambda,value,ci,reference,pass")


def test_cli_seed_override_changes_hash(tmp_path):
    path = write_config(tmp_path, boxes=[[200.0]], n_samples=20_000)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["lrp", "--config", str(path), "--out", str(out1), "--seed", "7"])
    main(["lrp", "--config", str(path), "--out", str(out2), "--seed", "8"])
    a = (out1 / "lrp.csv").read_text()
    b = (out2 / "lrp.csv").read_text()
    assert a != b


def test_cli_json_format(tmp_path):
    path = write_config(tmp_path, boxes=[[200.0]], n_samples=20_000)
    main(["clt", "--config", str(path), "--out", str(tmp_path / "out"),
          "--format", "json"])
    data = json.loads((tmp_path / "out" / "clt.json").read_text())
    assert data["name"] == "clt"
    assert data["metadata"]["config_hash"]
    assert data["rows"]


def test_cli_bad_config_is_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["lrp", "--config", str(path)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["lrp", "--config", str(missing)]) == 2


def test_cli_failing_rows_exit_1(tmp_path, monkeypatch):
    import boxcgf.cli

    def failing_runner(cfg, workers=1):
        rep = ExperimentReport(name="lrp", columns=["pass", "flagged"])
        rep.add_row(**{"pass": False})
        return rep

    monkeypatch.setitem(boxcgf.cli.RUNNERS, "lrp", failing_runner)
    path = write_config(tmp_path, boxes=[[200.0]], n_samples=20_000)
    assert main(["lrp", "--config", str(path)]) == 1
