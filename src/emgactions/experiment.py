"""Experiment configuration: defaults, file parsing, and resolution."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace

from emgactions.dataset import parse_int, read_key_values
from emgactions.features.assemble import FeatureConfig
from emgactions.features.export import parse_cell
from emgactions.pnn import NonPositiveSigmaError, PnnConfig, check_sigma


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of the pipeline, with reproduction-ready defaults.

    The defaults match the standard physical-action setup: full-trial
    window, 8 channels, 10 spectral bands, 10-fold CV. The extraction
    settings are the one FeatureConfig in ``features``, the classifier's
    the one PnnConfig in ``pnn``, whose selection_seed ``seed`` sets.
    """

    manifest: str | None = None
    features: FeatureConfig = FeatureConfig()
    pnn: PnnConfig = PnnConfig()
    cv_folds: int = 10
    runs: int = 10
    seed: int = 0
    max_features: int = 60
    patience: int = 1
    sfs_folds: int = 3
    sfs_sigma: float = 0.3
    out: str = "."

    def pnn_config(self) -> PnnConfig:
        return replace(self.pnn, selection_seed=self.seed)

    def to_dict(self) -> dict:
        """Flat, JSON-ready view of every resolved setting, the feature and
        classifier settings beside the others; selection_seed is seed."""
        out = asdict(self)
        out.update(out.pop("features"), **out.pop("pnn"))
        del out["selection_seed"]
        out["pairs"] = ["%d-%d" % p for p in self.features.pairs]
        out["sigma_grid"] = list(self.pnn.sigma_grid)
        return out


def _parse_pairs(value: str) -> tuple:
    # A pair repeated in either order would count its column twice in every
    # distance; a self-pair correlates a channel with itself.
    pairs, seen = [], {}  # seen: unordered pair -> its text
    for part in value.replace(",", ";").split(";"):
        part = part.strip()
        if not part:
            continue
        ends = [parse_int(b) for b in part.split("-")]
        if len(ends) != 2 or None in ends:
            raise ValueError(f"bad channel pair {part!r}, expected 'i-j'")
        i, j = ends
        if i == j:
            raise ValueError(f"channel pair {part!r} joins channel {i} to itself")
        key = frozenset((i, j))
        if key in seen:
            raise ValueError(f"channel pair {part!r} repeats {seen[key]!r}")
        seen[key] = part
        pairs.append((i, j))
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
    # NaN, inf or a width <= 0 would label every pattern with one class; a
    # width too small for the kernel to compute fails check_sigma. The text
    # is read as a features.csv cell is.
    sigma = parse_cell(value)
    if sigma is None or not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"{what} must be a finite number > 0, got {value!r}")
    try:
        return check_sigma(sigma)
    except NonPositiveSigmaError:
        raise ValueError(
            f"{what} must be large enough that 1 / (2 sigma^2) is finite, got {value!r}"
        ) from None


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
    number = parse_int(value)
    if number is None or (low is not None and number < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{key} must be an integer{bound}, got {value!r}")
    return number


def read_config(path: str) -> ExperimentConfig:
    """Read a flat ``key = value`` config file.

    Lines are ``key = value``; '#' starts a comment. Keys match the
    ExperimentConfig field names, the FeatureConfig field names, which set
    ``features``, and sigma, sigma_grid and selection_folds, which set
    ``pnn``. ``window = full`` and ``sigma = auto``
    select the defaults explicitly. Relative manifest/out paths are resolved
    against the config file's directory. Each of ``pairs`` joins two
    different channels in 1..``channels``, and no pair repeats in either
    order. ``n_bands`` divides ``psd_grid``, a numeric ``window`` holds
    more than ``ar_order`` samples and at least ``lbp_window``, and
    ``lbp_threshold`` lies in 0..2**``lbp_window`` - 2. Integers are
    written as dataset.parse_int reads them.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"config not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    cfg = ExperimentConfig()
    for line_no, key, value in read_key_values(path):
        try:
            cfg = _apply_key(cfg, key, value, base)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    # Keys that constrain each other may come in any order, so they are
    # checked together once every key is read.
    features = cfg.features
    channels = features.channels
    for i, j in features.pairs:
        if not (1 <= i <= channels and 1 <= j <= channels):
            raise ValueError(
                f"{path}: pairs has {i}-{j}, but channels = {channels}; "
                f"every pair needs two channels in 1..{channels}"
            )
    if features.psd_grid % features.n_bands:
        raise ValueError(
            f"{path}: psd_grid = {features.psd_grid}, but n_bands = {features.n_bands}; "
            "the bands must split psd_grid into equal parts"
        )
    window = features.window
    if window is not None and features.ar_order >= window:
        raise ValueError(
            f"{path}: ar_order = {features.ar_order}, but window = {window}; "
            "an AR model needs more samples than its order"
        )
    if window is not None and features.lbp_window > window:
        raise ValueError(
            f"{path}: lbp_window = {features.lbp_window}, but window = {window}; "
            "the LBP window must fit in the analysis window"
        )
    lbp_window, threshold = features.lbp_window, features.lbp_threshold
    # threshold + 1 < 2**lbp_window, without building 2**lbp_window.
    if threshold < 0 or (threshold + 1).bit_length() > lbp_window:
        raise ValueError(
            f"{path}: lbp_threshold = {threshold}, but lbp_window = {lbp_window}; "
            f"a threshold outside 0..2**{lbp_window} - 2 leaves one LBP column constant"
        )
    return cfg


# The keys that set a field of a nested config, with that config's name.
_NESTED_KEYS = {
    **{f.name: "features" for f in fields(FeatureConfig)},
    **{key: "pnn" for key in ("sigma", "sigma_grid", "selection_folds")},
}


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
    if key in _NESTED_KEYS:
        nested = _NESTED_KEYS[key]
        return replace(cfg, **{nested: replace(getattr(cfg, nested), **{key: parsed})})
    return replace(cfg, **{key: parsed})
