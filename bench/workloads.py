"""The benchmark's workloads: generated configs and checks of their outputs.

Each workload turns the benchmark seed into one boxcgf config, names the
subcommand and worker count that run it, computes the oracle value of
every output row it expects, and checks each row of the CSV that the run
writes.  Rows are read by column name and keyed by box (and ``c`` for
mdp), so added columns or rows do not break a check.

Statistical checks have a two-sided false-failure probability of
``ALPHA`` each for a correct sampler, whatever the seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable

from scipy.stats import binom, chi2

import oracles

ALPHA = 1e-7
# Excess kurtosis allowed for a clipped box integral.  A clipped unit
# normal has excess kurtosis -1.4, and a box integral of n cells averages
# about n / 4 such terms, so |kurtosis| is below 1e-3 on these boxes.
CLIPPED_KURTOSIS = 1.0
REL_EXACT = 1e-9  # for values the program and the oracle both compute in closed form

CLIPPED_D1 = {"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0, "kernel": "indicator",
              "nonlinearity": "clipped", "clip_level": 1.0, "grid_h": 0.25,
              "amplitude": 1.0}
GRID_GAUSS_D3 = {"d": 3, "kind": "bounded_nonlinear_ma", "m": 1.0, "kernel": "indicator",
                 "nonlinearity": "identity", "grid_h": 0.25, "amplitude": 1.0}
GAUSS_D1 = {"d": 1, "kind": "gaussian_ma", "m": 1.0, "kernel": "indicator",
            "grid_h": 0.25, "amplitude": 1.0}
GAUSS_D2 = dict(GAUSS_D1, d=2)
ENGINE = {"c1": 4.0, "eps": 0.1, "w_min": 4.0, "c3": 3.0}
AUDIT_BASE = 8.0
AUDIT_BOXES = 4096


def config_seed(workload: str, seed: int) -> int:
    """A u64 config seed that depends on the workload and the benchmark seed."""
    return int(hashlib.sha256(f"{workload}:{seed}".encode()).hexdigest()[:16], 16)


def variance_ok(s2: float, sigma2: float, n: int, kurtosis: float = 0.0) -> bool:
    """Is a sample variance of n replicas consistent with sigma2?

    (n - 1) s2 / sigma2 is chi-square with n - 1 degrees of freedom for
    normal replicas; an excess kurtosis k widens it to the chi-square with
    2 (n - 1) / (2 + k) degrees of freedom of the same variance.
    """
    dof = 2.0 * (n - 1) / (2.0 + kurtosis)
    stat = dof * s2 / sigma2
    return chi2.ppf(ALPHA / 2, dof) <= stat <= chi2.isf(ALPHA / 2, dof)


def close(x: float, ref: float, rel: float = REL_EXACT) -> bool:
    return abs(x - ref) <= rel * abs(ref)


def _sides(row: dict) -> tuple[float, ...]:
    return tuple(float(s) for s in row["sides"].split("x"))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    make_config: Callable[[int], dict]
    expect: Callable[[dict], dict]          # config -> {row key: oracle values}
    key: Callable[[dict], tuple]            # CSV row -> row key
    check: Callable[[dict, dict, dict], list[str]]  # (config, row, oracle) -> failed checks

    def config(self, seed: int) -> dict:
        return self.make_config(config_seed(self.name, seed))


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# clt: sigma2_hat = Var(integral) / vol, one row per box.

def _clt_config(model: dict, boxes: list, n_replicas: int) -> Callable[[int], dict]:
    return lambda seed: {"model": model, "boxes": boxes, "n_samples": 1000,
                         "n_replicas": n_replicas, "seed": seed}


def _clt_expect(variance: Callable) -> Callable[[dict], dict]:
    def expect(cfg: dict) -> dict:
        return {tuple(b): {"sigma2": variance(cfg["model"], b) / math.prod(b)}
                for b in cfg["boxes"]}
    return expect


def _clt_check(kurtosis: float):
    def check(cfg: dict, row: dict, ref: dict) -> list[str]:
        s2 = float(row["sigma2_hat"])
        if variance_ok(s2, ref["sigma2"], cfg["n_replicas"], kurtosis):
            return []
        return [f"sigma2_hat {s2!r} outside the chi-square band of {ref['sigma2']!r}"]
    return check


# mdp: hits of the threshold c sigma sqrt(vol), one row per (box, c).

MDP_BOXES = [[float(round(10.0 ** (2.0 + k / 4.0)))] for k in range(13)]  # 1e2 ... 1e5


def _mdp_config(seed: int) -> dict:
    return {"model": GAUSS_D1, "boxes": MDP_BOXES, "c_grid": [1.0, 2.0, 3.0],
            "n_samples": 20_000_000, "n_replicas": 1000, "seed": seed,
            "mdp_tolerance": 0.10}


def _mdp_expect(cfg: dict) -> dict:
    model = cfg["model"]
    sigma = math.sqrt(oracles.continuum_sigma2(model))
    out = {}
    for b in cfg["boxes"]:
        v = math.prod(b)
        sd_grid = math.sqrt(oracles.grid_gaussian_variance(model, b))
        sigma_r = math.sqrt(oracles.continuum_variance(model, b) / v)
        for c in cfg["c_grid"]:
            out[(tuple(b), c)] = {
                "p": oracles.normal_sf(c * sigma * math.sqrt(v) / sd_grid),
                "reference": oracles.log_normal_sf(c * sigma / sigma_r) / (c * c),
            }
    return out


def _mdp_check(cfg: dict, row: dict, ref: dict) -> list[str]:
    n, hits, fails = cfg["n_samples"], int(row["hits"]), []
    lo, hi = binom.ppf(ALPHA / 2, n, ref["p"]), binom.isf(ALPHA / 2, n, ref["p"])
    if not lo <= hits <= hi:
        fails.append(f"hits {hits} outside [{lo:.0f}, {hi:.0f}] for p = {ref['p']!r}")
    if not close(float(row["reference"]), ref["reference"]):
        fails.append(f"reference {row['reference']} != continuum log-tail {ref['reference']!r}")
    return fails


# audit: certificate soundness against the exact Gaussian coefficient.

def _audit_config(seed: int) -> dict:
    rng = random.Random(seed)
    boxes: dict[tuple, None] = {}
    while len(boxes) < AUDIT_BOXES:
        boxes[tuple(round(16.0 * 2.0 ** (6.0 * rng.random()), 2) for _ in range(2))] = None
    return {"model": GAUSS_D2, "boxes": [list(b) for b in boxes], "n_samples": 1000,
            "n_replicas": 1000, "seed": seed, "engine": ENGINE,
            "audit_base_scale": AUDIT_BASE}


def halvings(r: float, base: float) -> int:
    """The a with base <= r / 2**a < 2 base."""
    a = 0
    while r / 2.0 ** (a + 1) >= base:
        a += 1
    return a


def _audit_expect(cfg: dict) -> dict:
    base = cfg["audit_base_scale"]
    return {tuple(b): {"coeff": 0.5 * oracles.continuum_variance(cfg["model"], b) / math.prod(b),
                       "levels": sum(halvings(r, base) for r in b)}
            for b in cfg["boxes"]}


def _audit_check(cfg: dict, row: dict, ref: dict) -> list[str]:
    coeff, fails = ref["coeff"], []
    if not float(row["upper"]) >= coeff * (1.0 - REL_EXACT):
        fails.append(f"upper {row['upper']} below the exact coefficient {coeff!r}")
    if not float(row["lower"]) <= coeff * (1.0 + REL_EXACT):
        fails.append(f"lower {row['lower']} above the exact coefficient {coeff!r}")
    if not close(float(row["reference"]), coeff):
        fails.append(f"reference {row['reference']} != exact coefficient {coeff!r}")
    if int(row["levels"]) != ref["levels"]:
        fails.append(f"levels {row['levels']} != {ref['levels']}")
    return fails


WORKLOADS = {w.name: w for w in [
    Workload("clt_grid_d1", "clt", 1,
             _clt_config(CLIPPED_D1, [[10000.0]], 10_000),
             _clt_expect(oracles.clipped_box_variance), _sides,
             _clt_check(CLIPPED_KURTOSIS)),
    Workload("clt_grid_d3", "clt", 1,
             _clt_config(GRID_GAUSS_D3, [[8.0, 8.0, 8.0], [10.0, 8.0, 6.0]], 300),
             _clt_expect(oracles.grid_gaussian_variance), _sides, _clt_check(0.0)),
    Workload("audit_gauss_d2", "audit", 1, _audit_config, _audit_expect, _sides,
             _audit_check),
    Workload("mdp_gauss_d1", "mdp", 2, _mdp_config, _mdp_expect,
             lambda row: (_sides(row), float(row["c"])), _mdp_check),
]}
