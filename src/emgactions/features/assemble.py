"""Assembly of per-pattern feature vectors from the five modalities."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from emgactions.dataset import Pattern, segment_channel
from emgactions.features.autoregressive import ar_psd, band_powers, burg_ar
from emgactions.features.crosschannel import DEFAULT_PAIRS, compute_ics
from emgactions.features.localbinary import LBP_THRESHOLD, LBP_WINDOW, lbp_features
from emgactions.features.registry import FeatureRegistry, build_registry
from emgactions.features.spectral import lmf_features, power_spectrum, spectral_moments
from emgactions.features.timedomain import tds

# Patterns computed together: one recording of the paper's corpus (15
# trials). One block for the whole corpus ran slower and held far larger FFT
# buffers.
BLOCK_PATTERNS = 15


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters.

    Attributes:
        window: segment length L; None means one segment spanning the trial.
        ar_order: autoregressive model order.
        psd_grid: AR spectrum grid size K (a multiple of n_bands).
        n_bands: number of spectral bands.
        lbp_window: LBP window length.
        lbp_threshold: LBP code threshold.
        pairs: ICS channel pairs (1-based).
    """

    window: int | None = None
    ar_order: int = 4
    psd_grid: int = 100
    n_bands: int = 10
    lbp_window: int = LBP_WINDOW
    lbp_threshold: int = LBP_THRESHOLD
    pairs: tuple = DEFAULT_PAIRS


def registry_for(config: FeatureConfig, channels: int = 8) -> FeatureRegistry:
    """Registry matching the layout produced by assemble_features."""
    return build_registry(
        channels=channels,
        pairs=config.pairs,
        n_bands=config.n_bands,
        lbp_threshold=config.lbp_threshold,
    )


def assemble_features(patterns, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Compute the full feature vector of one pattern, or of a block of them.

    Blocks are concatenated as [TDS | ICS | LMF | SBP | LBP], channel-major
    within each single-channel block. When the window splits a trial into
    several segments, per-segment features are averaged per channel so the
    vector length is independent of the segment count. With 8 channels and
    the default configuration the vector has 32+12+136+80+16 = 276 entries.

    Args:
        patterns: one Pattern, or a sequence of P patterns with equal
            channel count and length. Every family is computed once for the
            whole (P, M, W, L) stack of segments.
        config: extraction parameters.

    Returns:
        A (D,) row for one Pattern, otherwise a (P, D) matrix.

    Raises:
        Extractor errors, annotated with the subject, action label, trial
        index, channel and modality of the first segment that raises.
    """
    group = [patterns] if isinstance(patterns, Pattern) else list(patterns)
    x = np.stack([p.channels for p in group])
    segs = segment_channel(x, config.window if config.window is not None else x.shape[-1])

    def per_channel(modality, extract):
        values = _located(modality, extract, segs, group, row_axes=3)
        return values.mean(axis=2).reshape(len(group), -1)

    blocks = [
        per_channel("tds", tds),
        _located(
            "ics",
            lambda c: compute_ics(c, config.pairs, window=config.window),
            x,
            group,
            row_axes=1,
        ),
        per_channel("lmf", lambda s: lmf_features(spectral_moments(power_spectrum(s)))),
        per_channel(
            "sbp",
            lambda s: band_powers(
                ar_psd(burg_ar(s, config.ar_order), config.psd_grid), config.n_bands
            ),
        ),
        per_channel("lbp", lambda s: lbp_features(s, config.lbp_window, config.lbp_threshold)),
    ]
    rows = np.concatenate(blocks, axis=1)
    return rows[0] if isinstance(patterns, Pattern) else rows


def _located(modality, extract, block, group, row_axes):
    """extract(block), or the first failing row's error, named by its origin.

    The first row_axes axes of block index rows: the first indexes group,
    the second, when present, channels. A batched call cannot say which row
    raised, so on error every row is rerun alone until one raises again.
    """
    try:
        return extract(block)
    except Exception:
        for idx in np.ndindex(block.shape[:row_axes]):
            try:
                extract(block[idx])
            except Exception as exc:
                p = group[idx[0]]
                where = f"subject {p.subject_id} action {p.label} trial {p.trial_index}"
                if row_axes > 1:
                    where += f" channel {idx[1] + 1}"
                raise type(exc)(f"{where} {modality}: {exc}") from None
        raise


def extract_feature_matrix(patterns, config: FeatureConfig = FeatureConfig()):
    """Assemble features for a pattern sequence.

    Consecutive patterns of equal shape are computed together, in blocks of
    at most BLOCK_PATTERNS.

    Returns:
        (X, y, subjects, trials): X is (P, D) float, the rest are (P,) int
        arrays aligned with the pattern order.
    """
    patterns = list(patterns)
    blocks = []
    for _, run in itertools.groupby(patterns, key=lambda p: p.channels.shape):
        run = list(run)
        for start in range(0, len(run), BLOCK_PATTERNS):
            blocks.append(assemble_features(run[start : start + BLOCK_PATTERNS], config))
    X = np.vstack(blocks)
    y = np.array([p.label for p in patterns], dtype=int)
    subjects = np.array([p.subject_id for p in patterns], dtype=int)
    trials = np.array([p.trial_index for p in patterns], dtype=int)
    return X, y, subjects, trials
