import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from boxcgf import experiments
from boxcgf.boxes import vol
from boxcgf.cgf import Z95
from boxcgf.cli import main
from boxcgf.config import ConfigError, ExperimentConfig
from boxcgf.experiments import RUNNERS
from boxcgf.fields import (REPLICA_CHUNK, discrete_box_std, exact_sigma2,
                           sample_integrals)
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
    assert small_config(n_samples=1e5).n_samples == 100_000  # integral float
    assert small_config(mdp_tolerance=1).mdp_tolerance == 1.0  # int is a number


def test_config_hash_stable():
    a, b = small_config(), small_config()
    assert a.config_hash == b.config_hash
    assert a.config_hash != small_config(seed=1).config_hash


def test_lrp_rows_and_oracle():
    rep = RUNNERS["lrp"](small_config())
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
    rep = RUNNERS["lrp"](cfg)
    estimates = [r for r in rep.rows if r["provenance"] == "estimate"]
    assert estimates and all(r["flagged"] for r in estimates)
    assert rep.all_pass  # flagged rows are excluded from the verdict


def test_lrp_values_approach_limit_with_volume():
    rep = RUNNERS["lrp"](small_config())
    by_vol = {}
    for row in rep.rows:
        if row["provenance"] == "exact":
            by_vol[row["vol"]] = abs(row["value"] - 0.5)
    vols = sorted(by_vol)
    assert by_vol[vols[-1]] < by_vol[vols[0]]


def test_mdp_direct_and_reference():
    rep = RUNNERS["mdp"](small_config(boxes=[[1000.0]], n_samples=200_000))
    assert rep.all_pass
    for row in rep.rows:
        assert row["method"] == "direct"
        assert row["hits"] > 0
        assert row["reference"] < 0.0


def test_mdp_zero_hits_flagged_clopper_pearson():
    rep = RUNNERS["mdp"](small_config(boxes=[[1000.0]], n_samples=1_000,
                                      c_grid=[6.0]))
    (row,) = rep.rows
    assert row["flagged"] and row["method"] == "clopper_pearson_upper"
    assert row["value"] == pytest.approx(math.log(1 - 0.05 ** 0.001) / 36.0)
    assert rep.all_pass  # excluded from the verdict


def test_mdp_importance_sampling_matches_reference():
    cfg = small_config(boxes=[[1000.0]], n_samples=100_000,
                       c_grid=[2.0, 3.0], mdp_importance_sampling=True)
    rep = RUNNERS["mdp"](cfg)
    assert rep.all_pass
    for row in rep.rows:
        assert row["method"] == "importance"
        assert abs(row["value"] - row["reference"]) <= 0.1 + row["ci"]


def mdp_rows_per_box(cfg):
    """(hits, value, ci, method) of direct mdp rows, box by box from each
    box's own sample_integrals output."""
    sigma = math.sqrt(exact_sigma2(cfg.model))
    n = cfg.n_samples
    rows = []
    for b in cfg.boxes:
        samples = sample_integrals(cfg.model, b, cfg.seed, n)
        for c in cfg.c_grid:
            hits = int((samples >= c * sigma * math.sqrt(vol(b))).sum())
            if hits == 0:
                p_up = 1.0 - 0.05 ** (1.0 / n)
                rows.append((0, math.log(p_up) / (c * c), float("nan"),
                             "clopper_pearson_upper"))
                continue
            p_hat = hits / n
            ci = Z95 * math.sqrt((1.0 - p_hat) / (n * p_hat)) / (c * c)
            rows.append((hits, math.log(p_hat) / (c * c), ci, "direct"))
    return rows


@pytest.mark.parametrize("n_samples", [1000, 1 << 16, 100_000])
def test_mdp_shared_batch_pass_matches_per_box_counts(n_samples, monkeypatch):
    # a duplicated box, and c = 6 for a zero-hit clopper_pearson_upper row
    cfg = small_config(boxes=[[200.0], [1000.0], [200.0]],
                       c_grid=[1.0, 2.0, 6.0], n_samples=n_samples)
    expect = mdp_rows_per_box(cfg)

    def per_box_sampling(*args):
        raise AssertionError("direct Gaussian rows sampled a box")

    for sampler in ("sample_integrals", "sample_box_integrals"):
        monkeypatch.setattr(experiments, sampler, per_box_sampling)
    rep = RUNNERS["mdp"](cfg, workers=2)
    got = [(r["hits"], r["value"], r["ci"], r["method"]) for r in rep.rows]
    assert repr(got) == repr(expect)
    assert got[2][0] == 0 and got[0][0] > 0


def test_mdp_importance_rows_match_per_box_reference():
    cfg = small_config(boxes=[[200.0], [1000.0]], c_grid=[2.0, 3.0],
                       n_samples=20_000, mdp_importance_sampling=True)
    sigma = math.sqrt(exact_sigma2(cfg.model))
    expect = []
    for b in cfg.boxes:
        sd = discrete_box_std(cfg.model, b)
        y = sample_integrals(cfg.model, b, cfg.seed, cfg.n_samples)
        for c in cfg.c_grid:
            t = c * sigma * math.sqrt(vol(b))
            tilted = y + t
            hit = tilted >= t
            w = np.exp(-t * tilted[hit] / sd ** 2 + t * t / (2.0 * sd ** 2))
            expect.append((int(hit.sum()),
                           math.log(float(w.sum()) / len(y)) / (c * c)))
    rep = RUNNERS["mdp"](cfg)
    assert all(r["method"] == "importance" for r in rep.rows)
    assert [r["hits"] for r in rep.rows] == [h for h, _ in expect]
    assert [r["value"] for r in rep.rows] == pytest.approx(
        [v for _, v in expect], rel=1e-12)


def test_clt_gaussian_exact_reference():
    rep = RUNNERS["clt"](small_config(boxes=[[500.0]]))
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
    rep = RUNNERS["clt"](cfg)
    (row,) = rep.rows
    assert row["pass"]


def test_additivity_defect_matches_closed_form():
    rep = RUNNERS["additivity"](small_config())
    assert rep.all_pass
    for row in rep.rows:
        # Gaussian oracle: defect of r*(1 - 1/(3r)) is exactly 1/3 absolute
        r, s = row["r"], row["s"]
        expect = (1.0 / 3.0) / (r + s - 1.0 / 3.0)
        assert row["reference_rel"] == pytest.approx(expect, rel=1e-9)


def test_audit_soundness_and_flagging():
    rep = RUNNERS["audit"](small_config(boxes=[[256.0], [1024.0]]))
    for row in rep.rows:
        assert row["sound"]
        assert row["upper"] >= row["reference"] >= row["lower"]
        if "annihilated" in row["note"]:
            assert row["flagged"]


def test_audit_small_box_flagged():
    rep = RUNNERS["audit"](small_config(boxes=[[6.0]]))
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
    rep = RUNNERS["audit"](cfg, workers=2)
    assert calls == [(8.0,)]
    # one box per run estimates its own base: the rows of the shared run
    # must be those runs' rows
    single = [RUNNERS["audit"](dataclasses.replace(cfg, boxes=[b])).to_csv()
              for b in cfg.boxes]
    assert rep.to_csv().splitlines()[1:] == [s.splitlines()[1] for s in single]


def test_audit_zero_base_lower_envelope_is_not_annihilation():
    # the estimated envelope of the base box [8.0] has L clamped to 0: the
    # lower bound is 0 without a climb, and the upper bound gets a verdict
    cfg = small_config(model={"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
                              "nonlinearity": "clipped"},
                       boxes=[[256.0], [1024.0]], n_samples=2000,
                       n_replicas=200, seed=0)
    rep = RUNNERS["audit"](cfg)
    for row in rep.rows:
        assert row["lower"] == 0.0 and row["note"] == "base lower envelope is 0"
        assert not row["flagged"] and row["upper"] >= row["reference"]
    assert rep.all_pass


@pytest.mark.parametrize("workers", [1, 2])
def test_audit_base_fit_error_is_a_flagged_row(workers):
    # too few samples leave the estimated CGF of the base [8, 8, 8] no grid
    # point with a small enough interval: quad_envelope raises CgfError
    cfg = small_config(model={"d": 3, "kind": "bounded_nonlinear_ma", "m": 1.0},
                       boxes=[[8.0, 8.0, 8.0], [10.0, 8.0, 6.0], [16.0, 8.0, 8.0]],
                       n_samples=1000, n_replicas=1000, seed=9)
    rep = RUNNERS["audit"](cfg, workers=workers)
    notes = [row["note"] for row in rep.rows]
    assert notes == ["no informative grid points in (0, delta]",
                     "width below base scale",
                     "no informative grid points in (0, delta]"]
    assert all(row["flagged"] and not row["pass"] for row in rep.rows)
    assert rep.all_pass  # every row is flagged, so none is counted (exit 0)


def test_calibrate_reports_c1():
    rep = RUNNERS["calibrate"](small_config(boxes=[[64.0], [256.0]]))
    (row,) = rep.rows
    assert row["pass"]
    assert row["c1"] >= 3.0
    assert row["n_admissible"] > 0 and row["n_failed"] == 0


def test_calibrate_grid_error_is_a_failed_row(tmp_path):
    # single_step_check probes p*lambda/sqrt2 past the estimated grid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
                  "nonlinearity": "clipped"},
        "boxes": [[16.0], [32.0]], "n_samples": 2000, "seed": 7}))
    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        assert main(["calibrate", "--config", str(path), "--out", str(out),
                     "--format", fmt]) == 1
    assert (out / "calibrate.csv").read_text().splitlines()[1] == "nan,0,0,0,0,0"
    error = json.loads((out / "calibrate.json").read_text())["metadata"]["error"]
    assert "outside estimated grid" in error


def test_workers_do_not_change_results():
    cfg = small_config()
    lrp, mdp = RUNNERS["lrp"], RUNNERS["mdp"]
    assert lrp(cfg, workers=1).to_csv() == lrp(cfg, workers=4).to_csv()
    assert mdp(cfg, workers=1).to_csv() == mdp(cfg, workers=3).to_csv()


def test_grid_path_workers_do_not_change_results():
    cfg = small_config(
        model={"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
               "kernel": "indicator", "nonlinearity": "clipped",
               "clip_level": 1.0, "grid_h": 0.25, "amplitude": 1.0},
        boxes=[[6.0], [20.0]], n_samples=1000, n_replicas=2500,
        additivity_pairs=[])
    # a short last chunk; the audit estimates the base of box 20
    assert cfg.n_samples % REPLICA_CHUNK and cfg.n_replicas % REPLICA_CHUNK
    for name in ("lrp", "mdp", "audit", "clt", "additivity"):
        outs = {w: RUNNERS[name](cfg, workers=w).to_csv() for w in (1, 2, 4)}
        assert outs[1] == outs[2] == outs[4], f"{name} differs across workers"


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


@pytest.mark.parametrize("change, message", [
    ({"model": {"d": 1, "kind": "gaussian_ma", "m": 1.0, "colour": "red"}},
     "unexpected keyword argument 'colour'"),
    ({"engine": {"c1": 4.0, "w_min": 4.0, "tolerance": 1.0}},
     "unexpected keyword argument 'tolerance'"),
    ({"boxes": [200.0, 1000.0]}, "boxes must be a list of side lists"),
    ({"c_grid": 2.0}, "malformed config"),
    ({"seed": -5}, "seed must fit in u64"),
    ({"seed": 2 ** 64}, "seed must fit in u64"),
    ({"n_replicas": 1}, "n_replicas must be >= 2"),
    ({"seed": 1.9}, "seed must be an integer, got 1.9"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"n_samples": 100_000.5}, "n_samples must be an integer"),
    ({"n_replicas": False}, "n_replicas must be an integer"),
    ({"mdp_importance_sampling": "false"},
     "mdp_importance_sampling must be true or false, got 'false'"),
    ({"mdp_tolerance": True}, "mdp_tolerance must be a number, got True"),
    ({"c_grid": ["2", True]}, "c_grid must be a number, got '2'"),
    ({"c_grid": [2.0, True]}, "c_grid must be a number, got True"),
    ({"audit_base_scale": "8"}, "audit_base_scale must be a number, got '8'"),
    ({"boxes": [[200.0], ["1000"]]}, "box sides must be a number, got '1000'"),
    ({"mu_grid": [0.5, None]}, "mu_grid must be a number, got None"),
    ({"lrp_lambda_bound": "0.5"}, "lrp_lambda_bound must be a number"),
    ({"lrp_tolerance": False}, "lrp_tolerance must be a number, got False"),
    ({"additivity_pairs": [[100.0, True]]},
     "additivity_pairs must be a number, got True"),
    ({"additivity_rest": ["1"]}, "additivity_rest must be a number, got '1'"),
])
def test_cli_malformed_config_is_exit_2(tmp_path, capsys, change, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(small_config().raw, **change)))
    assert main(["mdp", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_seed_override_out_of_range_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["lrp", "--config", str(path), "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "error: seed must fit in u64\n"


def test_cli_failing_rows_exit_1(tmp_path, monkeypatch):
    import boxcgf.cli

    def failing_runner(cfg, workers=1):
        rep = ExperimentReport(name="lrp", columns=["pass", "flagged"])
        rep.add_row(**{"pass": False})
        return rep

    monkeypatch.setitem(boxcgf.cli.RUNNERS, "lrp", failing_runner)
    path = write_config(tmp_path, boxes=[[200.0]], n_samples=20_000)
    assert main(["lrp", "--config", str(path)]) == 1


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# First 16 hex digits of the sha256 of each default config's CSV, recorded
# with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1: the sampled values and
# the KS p-values depend on those versions.
DEFAULT_CSV_SHA256 = {
    "additivity_gaussian_d1": "5be2e671beb44455",
    "audit_gaussian_d1": "7e6812b393fa90bb",
    "audit_gaussian_d2": "741b9f2db235944a",
    "calibrate_gaussian_d1": "1137bb9800c9ff1b",
    "clt_nonlinear_d1": "642201dea39b46e2",
    "lrp_gaussian_d1": "99be8d4a01036ad3",
    "mdp_gaussian_d1": "ecc0b2079edf388d",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_default_config_csv_bytes(name, tmp_path):
    command = name.split("_")[0]
    main([command, "--config", str(CONFIGS / f"{name}.json"),
          "--out", str(tmp_path)])
    csv = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest()[:16] == DEFAULT_CSV_SHA256[name]
