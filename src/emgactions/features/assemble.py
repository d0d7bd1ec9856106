"""Assembly of per-pattern feature vectors from the five modalities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from emgactions.dataset import segment_channel
from emgactions.features.autoregressive import ar_psd, band_powers, burg_ar
from emgactions.features.crosschannel import DEFAULT_PAIRS, compute_ics
from emgactions.features.localbinary import LBP_THRESHOLD, LBP_WINDOW, lbp_features
from emgactions.features.registry import FeatureDescriptor, FeatureRegistry
from emgactions.features.spectral import LMF_COUNT, lmf_features, power_spectrum, spectral_moments
from emgactions.features.timedomain import TDS_NAMES, tds


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters and the feature layout they name.

    Attributes:
        channels: recording channel count M; every pair lies in 1..M.
        window: segment length L; None means one segment spanning the trial.
        ar_order: autoregressive model order.
        psd_grid: AR spectrum grid size K (a multiple of n_bands).
        n_bands: number of spectral bands.
        lbp_window: LBP window length.
        lbp_threshold: LBP code threshold.
        pairs: ICS channel pairs (1-based).
    """

    channels: int = 8
    window: int | None = None
    ar_order: int = 4
    psd_grid: int = 100
    n_bands: int = 10
    lbp_window: int = LBP_WINDOW
    lbp_threshold: int = LBP_THRESHOLD
    pairs: tuple = DEFAULT_PAIRS


def _families(config: FeatureConfig) -> tuple:
    """The five feature families in vector order: (modality, extract, suffixes).

    A per-channel family maps (..., L) segments to one value per suffix s,
    named ``<modality>_ch<c>_<s>`` for channel c, channel-major. ICS, the
    one pair family (suffixes None), maps (..., M, N) trials to one value
    per configured pair (i, j), named ``ics_ch<i>_ch<j>``. The default
    layout for 8 channels and 12 channel pairs:

        1..32    TDS, [mean, variance, skewness, kurtosis] per channel
        33..44   ICS, one per channel pair in pair-list order
        45..180  LMF, f1..f17 per channel
        181..260 SBP, band1..band10 per channel
        261..276 LBP, [le127, gt127] counts per channel

    Built per call, so the extractors are this module's attributes of the
    moment: a tracer that replaces them sees every call.
    """
    t = config.lbp_threshold
    return (
        ("tds", tds, TDS_NAMES),
        ("ics", lambda c: compute_ics(c, config.pairs, window=config.window), None),
        (
            "lmf",
            lambda s: lmf_features(spectral_moments(power_spectrum(s))),
            [f"f{q}" for q in range(1, LMF_COUNT + 1)],
        ),
        (
            "sbp",
            lambda s: band_powers(
                ar_psd(burg_ar(s, config.ar_order), config.psd_grid), config.n_bands
            ),
            [f"band{q}" for q in range(1, config.n_bands + 1)],
        ),
        ("lbp", lambda s: lbp_features(s, config.lbp_window, t), (f"le{t}", f"gt{t}")),
    )


def registry_for(config: FeatureConfig) -> FeatureRegistry:
    """Registry of the layout assemble_features writes for config.channels."""
    descriptors = []
    for modality, _, suffixes in _families(config):
        if suffixes is None:
            cells = [(None, pair, "ch%d_ch%d" % pair) for pair in config.pairs]
        else:
            channels = range(1, config.channels + 1)
            cells = [(ch, None, f"ch{ch}_{s}") for ch in channels for s in suffixes]
        descriptors += [
            FeatureDescriptor(len(descriptors) + q, modality, ch, pair, q, f"{modality}_{name}")
            for q, (ch, pair, name) in enumerate(cells, start=1)
        ]
    return FeatureRegistry(descriptors)


def assemble_features(trials, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Compute the feature vectors of a block of trials.

    Blocks are concatenated in the order of the family table (_families),
    [TDS | ICS | LMF | SBP | LBP], channel-major within each single-channel
    block. When the window splits a trial into several segments,
    per-segment features are averaged per channel so the vector length is
    independent of the segment count. With 8 channels and the default
    configuration the vector has 32+12+136+80+16 = 276 entries.

    Args:
        trials: float array of shape (P, M, N): P trials of M channels with
            N samples each. Every family is computed once for the whole
            (P, M, W, L) stack of segments. One (M, N) trial is the one-row
            case.
        config: extraction parameters.

    Returns:
        A (P, D) matrix, or the (D,) row of one (M, N) trial.

    Raises:
        ValueError: the trials' channel count is not config.channels, so
            the vector would not fit registry_for(config).
        Extractor errors, annotated with the 1-based trial index, channel
        and modality of the first segment that raises, e.g.
        ``trial 3 channel 6 sbp: ...``.
    """
    x = np.asarray(trials, dtype=float)
    channels = x.shape[-2] if x.ndim > 1 else 0
    if channels != config.channels:
        raise ValueError(f"trials have {channels} channels but config.channels = {config.channels}")
    block = x.reshape(-1, *x.shape[-2:])
    segs = segment_channel(block, config.window if config.window is not None else x.shape[-1])
    blocks = []
    for modality, extract, suffixes in _families(config):
        if suffixes is None:
            blocks.append(_located(modality, extract, block, row_axes=1))
        else:
            values = _located(modality, extract, segs, row_axes=2)
            blocks.append(values.mean(axis=2).reshape(len(block), -1))
    return np.concatenate(blocks, axis=1).reshape(*x.shape[:-2], -1)


def _located(modality, extract, block, row_axes):
    """extract(block), or the first failing row's error, named by its origin.

    The first row_axes axes of block index rows: the first indexes trials,
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
                where = f"trial {idx[0] + 1}"
                if row_axes > 1:
                    where += f" channel {idx[1] + 1}"
                raise type(exc)(f"{where} {modality}: {exc}") from None
        raise


def extract_feature_matrix(recordings, config: FeatureConfig = FeatureConfig()):
    """Assemble features for every trial of an iterable of recordings.

    The recordings are consumed once, in order, and each recording's
    (R, M, N) trials are computed as one block. Only each recording's
    (R, D) features are kept, so a lazy iterable such as load_dataset's
    holds one recording's samples in memory at a time.

    Returns:
        (X, y, subjects, trials): X is (P, D) float with one row per trial,
        recording by recording; y, subjects and trials are (P,) int arrays
        aligned with it: the action label, the subject id and the 1-based
        trial index within the recording.

    Raises:
        Extractor errors, annotated as by assemble_features and prefixed
        with the recording's subject id and action label, e.g.
        ``subject 3 action 12 trial 3 channel 6 sbp: ...``.
    """
    blocks, labels, subject_ids, counts = [], [], [], []
    for rec in recordings:
        try:
            blocks.append(assemble_features(rec.trials, config))
        except Exception as exc:
            raise type(exc)(f"subject {rec.subject_id} action {rec.action_label} {exc}") from None
        labels.append(rec.action_label)
        subject_ids.append(rec.subject_id)
        counts.append(len(rec.trials))
        # Release the samples before the next recording is read.
        del rec
    X = np.vstack(blocks)
    y = np.repeat(np.array(labels, dtype=int), counts)
    subjects = np.repeat(np.array(subject_ids, dtype=int), counts)
    trials = np.concatenate([np.arange(1, n + 1) for n in counts])
    return X, y, subjects, trials
