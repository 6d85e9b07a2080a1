from pathlib import Path

import pytest

from boxcgf.config import ExperimentConfig
from boxcgf.experiments import RUNNERS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CLT_INPUTS = ("model", "boxes", "n_replicas", "seed")  # all that clt reads


@pytest.fixture(scope="session")
def clt_nonlinear_d1(tmp_path_factory):
    """The clt of configs/clt_nonlinear_d1.json, run once per session.

    Criterion 7 and the default's CSV digest check both read this run:
    ``clt_nonlinear_d1(cfg)`` asserts that cfg agrees with the default on
    every clt input and returns (report, CSV bytes).
    """
    default = ExperimentConfig.from_json(CONFIGS / "clt_nonlinear_d1.json")
    report = RUNNERS["clt"](default)
    csv = report.write(tmp_path_factory.mktemp("clt")).read_bytes()

    def shared(cfg: ExperimentConfig):
        for key in CLT_INPUTS:
            assert getattr(cfg, key) == getattr(default, key), key
        return report, csv

    return shared
