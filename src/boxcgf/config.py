"""Experiment configuration: JSON in, dataclasses out."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .boxes import Box
from .engine import EngineParams
from .fields import FieldModel


class ConfigError(ValueError):
    pass


def _integer(data: dict, key: str, default: int | None = None) -> int:
    """data[key] as an int; a bool or a non-integral number is an error."""
    value = data[key] if default is None else data.get(key, default)
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """value as a float; only an int or a float (not a bool) is a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _block(cls, data: dict, name: str):
    """cls(**data), its int and float fields read by ``_integer`` and
    ``_real``; cls itself rejects a key it does not have."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be an object, got {data!r}")
    hints = get_type_hints(cls)
    values = {key: _integer(data, key) if hints.get(key) is int
              else _real(value, key) if hints.get(key) is float else value
              for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:  # cls's own checks, e.g. a nan constant
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentConfig:
    model: FieldModel
    boxes: list[Box]
    mu_grid: list[float]          # lambda * sqrt(vol) probe points
    c_grid: list[float]
    n_samples: int
    n_replicas: int
    seed: int
    engine: EngineParams
    lrp_lambda_bound: float = 0.5  # cap on |lambda| * log^d vol
    lrp_tolerance: float = 0.10
    mdp_tolerance: float = 0.10
    mdp_importance_sampling: bool = False
    additivity_pairs: list[tuple[float, float]] = field(default_factory=list)
    audit_base_scale: float | None = None
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n_samples < 1000:
            raise ConfigError("n_samples must be >= 1e3")
        if self.n_replicas < 2:
            raise ConfigError("n_replicas must be >= 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in u64")
        if not self.boxes:
            raise ConfigError("need at least one box")
        # a verdict must be neither vacuous nor impossible
        if not self.c_grid:
            raise ConfigError("c_grid must not be empty")
        if not any(mu != 0.0 for mu in self.mu_grid):
            raise ConfigError("mu_grid needs a nonzero entry, "
                              f"got {self.mu_grid!r}")
        for key in ("lrp_tolerance", "mdp_tolerance"):
            x = getattr(self, key)
            if not 0.0 <= x < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {x!r}")
        for key in ("lrp_lambda_bound", "audit_base_scale"):
            x = getattr(self, key)
            if x is not None and not 0.0 < x < math.inf:
                raise ConfigError(f"{key} must be positive and finite, "
                                  f"got {x!r}")
        for pair in self.additivity_pairs:
            if len(pair) != 2:
                raise ConfigError("additivity_pairs entries must be pairs "
                                  f"[r, s], got {list(pair)!r}")
        for key, x in ([("c_grid", c) for c in self.c_grid]
                       + [("additivity_pairs", x)
                          for pair in self.additivity_pairs for x in pair]):
            if not 0.0 < x < math.inf:
                raise ConfigError(f"{key} entries must be positive and "
                                  f"finite, got {x!r}")
        for b in self.boxes:
            if b.d != self.model.d:
                raise ConfigError(f"box {b.sides} does not match model dimension")

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(canon).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            unknown = set(data) - {f.name for f in fields(cls)} - {"raw"}
            if unknown:
                raise ConfigError("unknown config key "
                                  + ", ".join(map(repr, sorted(unknown))))
            model = _block(FieldModel, data["model"], "model")
            engine = _block(EngineParams, data.get("engine", {}), "engine")
            importance = data.get("mdp_importance_sampling", False)
            if not isinstance(importance, bool):
                raise ConfigError("mdp_importance_sampling must be true or "
                                  f"false, got {importance!r}")
            boxes = data["boxes"]
            if not (isinstance(boxes, list)
                    and all(isinstance(sides, list) for sides in boxes)):
                raise ConfigError("boxes must be a list of side lists, "
                                  "e.g. [[8.0], [16.0]]")
            return cls(
                model=model,
                boxes=[Box(tuple(_real(s, "box sides") for s in sides))
                       for sides in boxes],
                mu_grid=[_real(x, "mu_grid")
                         for x in data.get("mu_grid", [0.5, 1.0, 2.0])],
                c_grid=[_real(x, "c_grid")
                        for x in data.get("c_grid", [1.5, 2.0, 2.5])],
                n_samples=_integer(data, "n_samples", 100_000),
                n_replicas=_integer(data, "n_replicas", 10_000),
                seed=_integer(data, "seed"),
                engine=engine,
                lrp_lambda_bound=_real(data.get("lrp_lambda_bound", 0.5),
                                       "lrp_lambda_bound"),
                lrp_tolerance=_real(data.get("lrp_tolerance", 0.10),
                                    "lrp_tolerance"),
                mdp_tolerance=_real(data.get("mdp_tolerance", 0.10),
                                    "mdp_tolerance"),
                mdp_importance_sampling=importance,
                additivity_pairs=[tuple(_real(x, "additivity_pairs") for x in p)
                                  for p in data.get("additivity_pairs", [])],
                audit_base_scale=(_real(data["audit_base_scale"],
                                        "audit_base_scale")
                                  if "audit_base_scale" in data else None),
                raw=data,
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        except TypeError as exc:  # unknown keys, or values of the wrong shape
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))
