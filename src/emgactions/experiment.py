"""Experiment configuration: defaults, file parsing, and resolution."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from emgactions.features.assemble import FeatureConfig
from emgactions.features.crosschannel import DEFAULT_PAIRS
from emgactions.pnn import DEFAULT_SIGMA_GRID, PnnConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of the pipeline, with reproduction-ready defaults.

    The defaults match the standard physical-action setup: full-trial
    window, 8 channels, 10 spectral bands, 10-fold CV.
    """

    manifest: str | None = None
    channels: int = 8
    window: int | None = None
    ar_order: int = 4
    psd_grid: int = 100
    n_bands: int = 10
    lbp_window: int = 8
    lbp_threshold: int = 127
    pairs: tuple = DEFAULT_PAIRS
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

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            window=self.window,
            ar_order=self.ar_order,
            psd_grid=self.psd_grid,
            n_bands=self.n_bands,
            lbp_window=self.lbp_window,
            lbp_threshold=self.lbp_threshold,
            pairs=self.pairs,
        )

    def pnn_config(self) -> PnnConfig:
        return PnnConfig(
            sigma=self.sigma,
            sigma_grid=self.sigma_grid,
            selection_folds=self.selection_folds,
            selection_seed=self.seed,
        )

    def to_dict(self) -> dict:
        """Flat, JSON-ready view of every resolved setting."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["pairs"] = ["%d-%d" % p for p in self.pairs]
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
    ExperimentConfig field names. ``window = full`` and ``sigma = auto``
    select the defaults explicitly. Relative manifest/out paths are resolved
    against the config file's directory.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"config not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    cfg = ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
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


def _apply_key(cfg: ExperimentConfig, key: str, value: str, base: str) -> ExperimentConfig:
    if key in ("manifest", "out"):
        resolved = value if os.path.isabs(value) else os.path.join(base, value)
        return replace(cfg, **{key: resolved})
    if key == "window":
        return replace(cfg, window=None if value.lower() == "full" else _integer(key, value))
    if key == "sigma":
        return replace(cfg, sigma=None if value.lower() == "auto" else _sigma(key, value))
    if key == "sfs_sigma":
        return replace(cfg, sfs_sigma=_sigma(key, value))
    if key == "pairs":
        return replace(cfg, pairs=_parse_pairs(value))
    if key == "sigma_grid":
        return replace(cfg, sigma_grid=_parse_grid(value))
    if key in _INT_KEYS:
        return replace(cfg, **{key: _integer(key, value)})
    raise ValueError(f"unknown key {key!r}")
