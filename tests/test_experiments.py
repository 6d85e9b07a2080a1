import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxcgf import experiments, fields
from boxcgf.boxes import Box, halve_n, vol
from boxcgf.cgf import Z95, CgfError
from boxcgf.cli import main
from boxcgf.config import ConfigError, ExperimentConfig
from boxcgf.experiments import RUNNERS, SCIPY_MODULES
from boxcgf.fields import (REPLICA_CHUNK, FieldModel, discrete_box_std,
                           discrete_box_variance, exact_sigma2,
                           sample_box_integrals, sample_integrals)
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
    assert small_config(lrp_tolerance=0, mdp_tolerance=0).mdp_tolerance == 0.0
    model = dict(small_config().raw["model"], d=1.0)
    assert type(small_config(model=model).model.d) is int  # integral float


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


# sd and t over 300 decades: every t / sd is a normal double
@given(st.floats(min_value=1e-150, max_value=1e150),
       st.floats(min_value=1e-150, max_value=1e150))
def test_standard_level_is_the_least_double_reaching_the_threshold(sd, t):
    q = experiments._standard_level(sd, t)
    assert sd * q >= t
    assert sd * math.nextafter(q, -math.inf) < t


def test_shared_batch_hits_are_exact_at_sample_boundaries():
    # thresholds at sd_i * z_k and one ulp either side, for batch values z_k
    # of the upper tail; a duplicated box, and 10 sd for a zero-hit level
    model = small_config().model
    boxes = [Box((200.0,)), Box((1000.0,)), Box((200.0,))]
    seed, n = 31, (1 << 16) + 500
    z = np.concatenate(fields.map_batch(lambda _, chunk: chunk, seed,
                                        range(n)))
    sds = [discrete_box_std(model, b) for b in boxes]
    ks = np.random.default_rng(0).choice(np.flatnonzero(z > 1.0), 40)
    thresholds = []
    for sd in sds:
        ts = [10.0 * sd]
        for t in sd * z[ks]:
            ts += [math.nextafter(t, -math.inf), float(t),
                   math.nextafter(t, math.inf)]
        thresholds.append(ts)
    got = experiments._shared_batch_hits(model, boxes, thresholds, seed, n, 2)
    expect = [[int(np.count_nonzero(sd * z >= t)) for t in ts]
              for sd, ts in zip(sds, thresholds)]
    assert got == expect
    assert expect[0][0] == 0 and min(expect[1][1:]) > 0
    # an empty c_grid counts no pair
    assert experiments._shared_batch_hits(model, boxes, [[]] * 3, seed, n,
                                          1) == [[]] * 3


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


def test_clt_grid_gaussian_reference_is_the_grid_variance():
    # a simulated moving average without nonlinearity is exactly normal
    # with the grid variance; a Gaussian one keeps its continuum reference
    model = {"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0}
    cfg = small_config(model=model, boxes=[[50.0]], n_replicas=2_000)
    (row,) = RUNNERS["clt"](cfg).rows
    assert row["sigma2_ref"] == discrete_box_variance(cfg.model, Box((50.0,))) / 50.0
    assert row["sigma2_ref"] != row["sigma2_hat"] and row["pass"]


def test_clt_block_reference_is_the_sum_of_squared_overlaps():
    # Gaussian blocks are exactly normal: 37 whole unit blocks and half of
    # one give Var = 37 + 0.5^2
    model = {"d": 1, "kind": "iid_block", "m": 1.0}
    cfg = small_config(model=model, boxes=[[37.5]], n_replicas=2_000)
    (row,) = RUNNERS["clt"](cfg).rows
    assert row["sigma2_ref"] == 37.25 / 37.5
    assert row["sigma2_ref"] != row["sigma2_hat"] and row["pass"]


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
def test_audit_base_fit_error_is_a_flagged_row(workers, monkeypatch):
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

    # in a block of good bases a failing one flags only its own boxes: the
    # estimate of the base [9] is too wide to fit, that of [10] raises
    estimate = experiments.estimate_cgf

    def failing(model, b, *args, **kwargs):
        if b.sides == (10.0,):
            raise CgfError("estimate failed")
        est = estimate(model, b, *args, **kwargs)
        if b.sides == (9.0,):
            est.ci = est.ci + 1.0
        return est

    monkeypatch.setattr(experiments, "estimate_cgf", failing)
    cfg = small_config(model={"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
                              "nonlinearity": "clipped"},
                       boxes=[[256.0], [18.0], [320.0], [20.0], [11.0]],
                       n_samples=2000, n_replicas=200, seed=0)
    rep = RUNNERS["audit"](cfg, workers=workers)
    notes = [row["note"] for row in rep.rows]
    assert notes[1:4] == ["no informative grid points in (0, delta]",
                          "estimate failed", "estimate failed"]
    assert [row["flagged"] for row in rep.rows] == [False, True, True, True,
                                                    False]
    single = [RUNNERS["audit"](dataclasses.replace(cfg, boxes=[b])).to_csv()
              for b in cfg.boxes]
    assert rep.to_csv().splitlines()[1:] == [s.splitlines()[1] for s in single]


@pytest.mark.parametrize("workers", [1, 2])
def test_audit_base_volume_at_most_one_is_a_flagged_row(workers, tmp_path,
                                                         capsys):
    # in d = 2 a base of volume <= 1 has no admissible radius (delta_cap)
    config = json.loads((CONFIGS / "audit_gaussian_d2.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, audit_base_scale=0.5)))
    assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                 "--workers", str(workers)]) == 0
    note = "need v > 1 for d >= 2 (log S(v) <= 0)"
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"audit: 0/0 rows pass (3 flagged: 3× {note})")
    rows = (tmp_path / "audit.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(r.endswith(f",{note},1") for r in rows)

    # a bad base flags only its own boxes: at base scale 1 the first two
    # boxes have the base [1, 1], the others bases of volume above 1
    for model in ({"d": 2, "kind": "gaussian_ma", "m": 1.0},
                  {"d": 2, "kind": "bounded_nonlinear_ma", "m": 1.0,
                   "nonlinearity": "clipped"}):
        cfg = small_config(model=model, audit_base_scale=1.0, n_samples=2000,
                           n_replicas=200, boxes=[[64.0, 64.0], [128.0, 64.0],
                                                  [40.0, 30.0], [48.0, 36.0]])
        rep = RUNNERS["audit"](cfg, workers=workers)
        assert [r["note"] == note for r in rep.rows] == [True, True, False, False]
        assert [r["flagged"] for r in rep.rows[:2]] == [True, True]
        single = [RUNNERS["audit"](dataclasses.replace(cfg, boxes=[b])).to_csv()
                  for b in cfg.boxes[2:]]
        assert rep.to_csv().splitlines()[3:] == [x.splitlines()[1] for x in single]


@pytest.mark.parametrize("engine, note", [
    ({}, "volume below the descent threshold"),
    ({"c2_prop": 0.5}, "width below W"),
])
def test_audit_box_of_volume_one_fails_its_ladder(engine, note):
    # log vol = 0 leaves the box no descent range: the row's ladder check
    # fails with ladder_descent's own reason, the climb rows stand
    cfg = small_config(boxes=[[1.0], [64.0]], audit_base_scale=1.0,
                       engine=dict(small_config().raw["engine"], **engine))
    first, second = RUNNERS["audit"](cfg).rows
    assert not first["ladder_ok"] and first["note"] == note
    assert first["sound"] and first["pass"] and not first["flagged"]
    assert second["levels"] == 6


def test_audit_fit_blocks_match_one_box_runs():
    # more distinct bases than one fit block, the last block short: each
    # row must be the row of a run on its box alone
    rng = np.random.default_rng(21)
    boxes = [[round(16.0 * 2.0 ** (6.0 * u), 2) for u in rng.random(2)]
             for _ in range(300)]
    cfg = small_config(model={"d": 2, "kind": "gaussian_ma", "m": 1.0},
                       boxes=boxes)
    bases = {halve_n(b, n) for b, n, _ in experiments._audit_units(cfg, 1)}
    assert len(bases) > experiments.AUDIT_FIT_BLOCK
    rep = RUNNERS["audit"](cfg)
    single = [RUNNERS["audit"](dataclasses.replace(cfg, boxes=[b])).to_csv()
              for b in cfg.boxes]
    assert rep.to_csv().splitlines()[1:] == [s.splitlines()[1] for s in single]


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


def test_mdp_count_bytes_do_not_depend_on_workers():
    # three whole batch chunks and a short one of 17 samples
    cfg = small_config(boxes=[[200.0], [1000.0], [50.0]],
                       c_grid=[0.5, 2.0, 4.0], n_samples=3 * (1 << 16) + 17)
    outs = {w: RUNNERS["mdp"](cfg, workers=w).to_csv() for w in (1, 2, 4)}
    assert outs[1] == outs[2] == outs[4]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("boxes", [[[1000.0]], [[50.0], [200.0], [1000.0]]])
def test_mdp_count_draws_each_batch_chunk_once(boxes, workers, monkeypatch):
    n = 2 * (1 << 16) + 100
    states = []
    draw = fields._draw_keyed

    def counted(gen, state, out):
        states.append(tuple(state))
        return draw(gen, state, out)

    monkeypatch.setattr(fields, "_draw_keyed", counted)
    cfg = small_config(boxes=boxes, n_samples=n)
    RUNNERS["mdp"](cfg, workers=workers)
    chunk_states = [tuple(np.random.SFC64(np.random.SeedSequence(
        [cfg.seed, i, 17, 2 ** 40])).state["state"]["state"]) for i in range(3)]
    assert sorted(states) == sorted(chunk_states)  # ceil(n / 2^16) chunks


def test_one_worker_starts_no_thread(monkeypatch):
    def submit(*args, **kwargs):
        raise AssertionError("a thread was started at one worker")

    monkeypatch.setattr(futures.ThreadPoolExecutor, "submit", submit)
    cfg = small_config(n_samples=(1 << 16) + 10, n_replicas=600)
    for name in ("mdp", "lrp", "clt"):
        RUNNERS[name](cfg, workers=1)
    clipped = FieldModel(d=1, kind="bounded_nonlinear_ma", m=1.0,
                         nonlinearity="clipped")
    sample_box_integrals(clipped, [Box((20.0,))], 1, range(600), workers=1)
    with pytest.raises(AssertionError, match="thread was started"):
        RUNNERS["mdp"](cfg, workers=2)


def test_grid_path_workers_do_not_change_results():
    clipped = {"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
               "kernel": "indicator", "nonlinearity": "clipped",
               "clip_level": 1.0, "grid_h": 0.25, "amplitude": 1.0}
    # the correlation path of clipped fields, and the weighted pass of a
    # grid field without nonlinearity and of blocks
    for model, boxes, n_replicas in (
            (clipped, [[6.0], [20.0]], 2500),
            (dict(clipped, d=3), [[2.0, 2.0, 2.0], [3.0, 2.5, 1.5]], 600),
            (dict(clipped, d=2, nonlinearity="identity"),
             [[3.0, 2.0], [4.0, 2.5]], 600),
            (dict(clipped, kind="iid_block"), [[6.0], [20.5]], 600)):
        cfg = small_config(model=model, boxes=boxes, n_samples=1000,
                           n_replicas=n_replicas, additivity_pairs=[])
        # a short last chunk; in d = 1 the audit estimates the base of box 20
        assert cfg.n_samples % REPLICA_CHUNK and cfg.n_replicas % REPLICA_CHUNK
        for name in ("lrp", "mdp", "audit", "clt", "additivity"):
            outs = {w: RUNNERS[name](cfg, workers=w).to_csv() for w in (1, 2, 4)}
            assert outs[1] == outs[2] == outs[4], (
                f"{name} differs across workers in d = {cfg.model.d}")


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
    ({"additivity_rest": [2.0]}, "unknown config key 'additivity_rest'"),
    ({"engine": {"c1": 4.0, "w_min": 4.0, "d": 2}},
     "unexpected keyword argument 'd'"),
    ({"n_sample": 50_000}, "unknown config key 'n_sample'"),
    ({"mdp_tollerance": 0.1}, "unknown config key 'mdp_tollerance'"),
    ({"model": {"d": 1.5, "kind": "gaussian_ma", "m": 1.0}},
     "d must be an integer, got 1.5"),
    ({"model": {"d": True, "kind": "gaussian_ma", "m": 1.0}},
     "d must be an integer, got True"),
    ({"model": {"d": 1, "kind": "gaussian_ma", "m": True}},
     "m must be a number, got True"),
    ({"model": {"d": 1, "kind": "gaussian_ma", "m": 1.0, "amplitude": True}},
     "amplitude must be a number, got True"),
    ({"engine": {"c1": 4.0, "eps": True}}, "eps must be a number, got True"),
    ({"engine": {"c1": 4.0, "c3": True}}, "c3 must be a number, got True"),
    ({"model": [1]}, "model must be an object, got [1]"),
    ({"audit_base_scale": -1.0},
     "audit_base_scale must be positive and finite, got -1.0"),
    ({"audit_base_scale": 0.0},
     "audit_base_scale must be positive and finite, got 0.0"),
    ({"audit_base_scale": math.nan},
     "audit_base_scale must be positive and finite, got nan"),
    ({"audit_base_scale": math.inf},
     "audit_base_scale must be positive and finite, got inf"),
    ({"engine": {"c1": math.nan}}, "need 0 < c1 < inf, got nan"),
    ({"engine": {"c1": 4.0, "w_min": math.nan}},
     "need 0 < w_min < inf, got nan"),
    ({"c_grid": [0.0, 2.0]}, "c_grid entries must be positive and finite, got 0.0"),
    ({"c_grid": [2.0, -1.5]},
     "c_grid entries must be positive and finite, got -1.5"),
    ({"additivity_pairs": [[-100.0, 500.0]]},
     "additivity_pairs entries must be positive and finite, got -100.0"),
    ({"additivity_pairs": [[100.0, 0.0]]},
     "additivity_pairs entries must be positive and finite, got 0.0"),
    ({"additivity_pairs": [[100.0, 200.0, 300.0]]},
     "additivity_pairs entries must be pairs [r, s], got [100.0, 200.0, 300.0]"),
    ({"additivity_pairs": [[100.0, 200.0], [1.0]]},
     "additivity_pairs entries must be pairs [r, s], got [1.0]"),
    ({"mdp_tolerance": math.inf}, "mdp_tolerance must be finite and >= 0, got inf"),
    ({"mdp_tolerance": -1}, "mdp_tolerance must be finite and >= 0, got -1.0"),
    ({"lrp_tolerance": math.nan}, "lrp_tolerance must be finite and >= 0, got nan"),
    ({"lrp_lambda_bound": -1},
     "lrp_lambda_bound must be positive and finite, got -1.0"),
    ({"lrp_lambda_bound": 0.0},
     "lrp_lambda_bound must be positive and finite, got 0.0"),
    ({"lrp_lambda_bound": math.inf},
     "lrp_lambda_bound must be positive and finite, got inf"),
    ({"c_grid": []}, "c_grid must not be empty"),
    ({"mu_grid": [0.0]}, "mu_grid needs a nonzero entry, got [0.0]"),
    ({"mu_grid": []}, "mu_grid needs a nonzero entry, got []"),
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


def test_cli_summary_names_flag_reasons(tmp_path, monkeypatch, capsys):
    import boxcgf.cli

    notes = ["a", "b", "b", "c", "b", "c", "d", ""]

    def flagging_runner(cfg, workers=1):
        rep = ExperimentReport(name="audit", columns=["pass", "note", "flagged"])
        for note in notes:
            rep.add_row(**{"pass": True}, note=note, flagged=True)
        rep.add_row(**{"pass": True}, note="not flagged", flagged=False)
        return rep

    monkeypatch.setitem(boxcgf.cli.RUNNERS, "audit", flagging_runner)
    assert main(["audit", "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 0
    # most frequent first, ties in row order, at most three notes
    assert capsys.readouterr().err.splitlines()[-1] == (
        "audit: 1/1 rows pass (8 flagged: 3× b; 2× c; 1× a)")


def test_cli_summary_of_the_audit_default(tmp_path, capsys):
    assert main(["audit", "--config", str(CONFIGS / "audit_gaussian_d1.json"),
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        "audit: 0/0 rows pass (3 flagged: "
        "1× lower envelope annihilated at level 4; "
        "1× lower envelope annihilated at level 6; "
        "1× lower envelope annihilated at level 8)")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# First 16 hex digits of the sha256 of each default config's CSV, recorded
# with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1: the sampled values and
# the KS p-values depend on those versions.
DEFAULT_CSV_SHA256 = {
    "additivity_gaussian_d1": "552ff51edb95f07d",
    "audit_gaussian_d1": "7e6812b393fa90bb",
    "audit_gaussian_d2": "741b9f2db235944a",
    "calibrate_gaussian_d1": "1137bb9800c9ff1b",
    "clt_gaussian_block_d1": "db12a56cea2baded",
    "clt_gaussian_d3": "edc20844ae2a4181",
    "clt_nonlinear_d1": "6d768efc1bc26492",
    "lrp_gaussian_d1": "9922bc7ef54b1f80",
    "mdp_gaussian_d1": "395dfcc2db43830d",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_default_config_csv_bytes(name, tmp_path, request):
    command = name.split("_")[0]
    config = CONFIGS / f"{name}.json"
    if name == "clt_nonlinear_d1":  # the run criterion 7 reads too
        _, csv = request.getfixturevalue(name)(ExperimentConfig.from_json(config))
    else:
        main([command, "--config", str(config), "--out", str(tmp_path)])
        csv = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest()[:16] == DEFAULT_CSV_SHA256[name]


SRC = str(Path(experiments.__file__).resolve().parent.parent)
FRESH_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))
# Runs the CLI in this fresh interpreter and prints, as JSON, the modules
# that entered sys.modules while the runner ran.  argv[1], unless empty,
# names a module to make unimportable first.
FRESH_RUN = """
import json, sys
if sys.argv[1]:
    sys.modules[sys.argv[1]] = None
from boxcgf import cli
runner = cli.RUNNERS[sys.argv[2]]
loaded = []

def watched(cfg, workers=1):
    before = set(sys.modules)
    report = runner(cfg, workers=workers)
    loaded.extend(sorted(set(sys.modules) - before))
    return report

cli.RUNNERS[sys.argv[2]] = watched
code = cli.main(sys.argv[2:])
print(json.dumps(loaded))
sys.exit(code)
"""


def fresh_run(command: str, config: Path, out: Path,
              block: str = "") -> tuple[list, bytes]:
    """(modules the runner loaded, CSV bytes) of a config at one worker,
    run in a new interpreter where the module ``block`` names, if any,
    cannot be imported."""
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, block, command,
         "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=FRESH_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), (out / f"{command}.csv").read_bytes()


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, boxcgf.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=FRESH_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_default_runner_imports_nothing(name, tmp_path):
    # every module a run needs, scipy's included (SCIPY_MODULES), is
    # loaded before the runner starts; the same model and subcommand on
    # fewer replicas take the same code paths
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["n_replicas"] = min(cfg["n_replicas"], 500)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    loaded, _ = fresh_run(name.split("_")[0], config, tmp_path)
    assert loaded == []


@pytest.mark.parametrize("name", sorted(
    p.stem for p in CONFIGS.glob("*.json")
    if p.stem.split("_")[0] not in SCIPY_MODULES))
def test_default_config_runs_without_scipy(name, tmp_path):
    _, csv = fresh_run(name.split("_")[0], CONFIGS / f"{name}.json",
                       tmp_path, block="scipy")
    assert hashlib.sha256(csv).hexdigest()[:16] == DEFAULT_CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(
    p.stem for p in CONFIGS.glob("*.json")
    if p.stem.split("_")[0] in SCIPY_MODULES))
def test_default_config_runs_without_scipy_stats(name, tmp_path):
    # clt's KS p-value comes from boxcgf.ks and scipy.special alone
    _, csv = fresh_run(name.split("_")[0], CONFIGS / f"{name}.json",
                       tmp_path, block="scipy.stats")
    assert hashlib.sha256(csv).hexdigest()[:16] == DEFAULT_CSV_SHA256[name]
