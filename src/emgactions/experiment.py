"""Experiment configuration: defaults, file parsing, and resolution."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace

from emgactions.dataset import read_lines
from emgactions.features.assemble import FeatureConfig
from emgactions.pnn import DEFAULT_SIGMA_GRID, PnnConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of the pipeline, with reproduction-ready defaults.

    The defaults match the standard physical-action setup: full-trial
    window, 8 channels, 10 spectral bands, 10-fold CV. The extraction
    settings are the one FeatureConfig in ``features``.
    """

    manifest: str | None = None
    channels: int = 8
    features: FeatureConfig = FeatureConfig()
    sigma: float | None = None
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    selection_folds: int = 5
    cv_folds: int = 10
    runs: int = 10
    seed: int = 0
    max_features: int = 60
    patience: int = 1
    sfs_folds: int = 3
    sfs_sigma: float = 0.3
    out: str = "."

    def pnn_config(self) -> PnnConfig:
        return PnnConfig(
            sigma=self.sigma,
            sigma_grid=self.sigma_grid,
            selection_folds=self.selection_folds,
            selection_seed=self.seed,
        )

    def to_dict(self) -> dict:
        """Flat, JSON-ready view of every resolved setting, the feature
        settings beside the others."""
        out = asdict(self)
        out.update(out.pop("features"))
        out["pairs"] = ["%d-%d" % p for p in self.features.pairs]
        out["sigma_grid"] = list(self.sigma_grid)
        return out


def _parse_pairs(value: str) -> tuple:
    pairs = []
    for part in value.replace(",", ";").split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split("-")
        if len(bits) != 2:
            raise ValueError(f"bad channel pair {part!r}, expected 'i-j'")
        pairs.append((int(bits[0]), int(bits[1])))
    if not pairs:
        raise ValueError("empty channel pair list")
    return tuple(pairs)


def _parse_grid(value: str) -> tuple:
    parts = (v.strip() for v in value.replace(";", ",").split(","))
    grid = tuple(_sigma("sigma_grid entry", v) for v in parts if v)
    if not grid:
        raise ValueError("empty sigma grid")
    return grid


def _sigma(what: str, value: str) -> float:
    # NaN, inf or a width <= 0 would label every pattern with one class.
    try:
        sigma = float(value)
    except ValueError:
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"{what} must be a finite number > 0, got {value!r}")
    return sigma


# Each integer key with the smallest value its consuming code accepts
# (None: any integer).
_INT_KEYS = {
    "channels": 1,
    "window": 1,
    "ar_order": 1,
    "psd_grid": 1,
    "n_bands": 1,
    "lbp_window": 1,
    "lbp_threshold": None,
    "selection_folds": 2,
    "cv_folds": 2,
    "runs": 1,
    "seed": 0,
    "max_features": 1,
    "patience": 1,
    "sfs_folds": 2,
}


def _integer(key: str, value: str) -> int:
    low = _INT_KEYS[key]
    try:
        number = int(value)
    except ValueError:
        number = None
    if number is None or (low is not None and number < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{key} must be an integer{bound}, got {value!r}")
    return number


def read_config(path: str) -> ExperimentConfig:
    """Read a flat ``key = value`` config file.

    Lines are ``key = value``; '#' starts a comment. Keys match the
    ExperimentConfig field names, and the FeatureConfig field names, which
    set ``features``. ``window = full`` and ``sigma = auto``
    select the defaults explicitly. Relative manifest/out paths are resolved
    against the config file's directory.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"config not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    cfg = ExperimentConfig()
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            cfg = _apply_key(cfg, key, value, base)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return cfg


_FEATURE_KEYS = {f.name for f in fields(FeatureConfig)}


def _apply_key(cfg: ExperimentConfig, key: str, value: str, base: str) -> ExperimentConfig:
    if key in ("manifest", "out"):
        parsed = value if os.path.isabs(value) else os.path.join(base, value)
    elif (key, value.lower()) in (("window", "full"), ("sigma", "auto")):
        parsed = None
    elif key in ("sigma", "sfs_sigma"):
        parsed = _sigma(key, value)
    elif key == "pairs":
        parsed = _parse_pairs(value)
    elif key == "sigma_grid":
        parsed = _parse_grid(value)
    elif key in _INT_KEYS:
        parsed = _integer(key, value)
    else:
        raise ValueError(f"unknown key {key!r}")
    if key in _FEATURE_KEYS:
        return replace(cfg, features=replace(cfg.features, **{key: parsed}))
    return replace(cfg, **{key: parsed})
