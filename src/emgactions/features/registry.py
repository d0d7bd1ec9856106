"""Provenance registry mapping global feature indices to descriptors.

Global indices are 1-based everywhere in the public API. The default layout
for 8 channels and 12 channel pairs:

    1..32    TDS, channel-major, [mean, variance, skewness, kurtosis]
    33..44   ICS, one per channel pair in pair-list order
    45..180  LMF, channel-major, 17 per channel
    181..260 SBP, channel-major, 10 bands per channel
    261..276 LBP, channel-major, [at-or-below, above] counts
"""

from __future__ import annotations

from dataclasses import dataclass

from emgactions.features.crosschannel import DEFAULT_PAIRS
from emgactions.features.localbinary import LBP_THRESHOLD
from emgactions.features.spectral import LMF_COUNT
from emgactions.features.timedomain import TDS_NAMES


class BadIndexError(ValueError):
    """Feature index outside the registry range."""


@dataclass(frozen=True)
class FeatureDescriptor:
    """What one global feature index measures.

    Attributes:
        index: global 1-based index.
        modality: one of 'tds', 'ics', 'lmf', 'sbp', 'lbp'.
        channel: 1-based channel for single-channel features, None for ICS.
        pair: (i, j) channel pair for ICS features, None otherwise.
        within: 1-based index inside the modality block.
        name: human-readable column name.
    """

    index: int
    modality: str
    channel: int | None
    pair: tuple[int, int] | None
    within: int
    name: str

    def touches_channel(self, channel: int) -> bool:
        if self.pair is not None:
            return channel in self.pair
        return self.channel == channel


class FeatureRegistry:
    """Bijection between global feature indices 1..D and descriptors."""

    def __init__(self, descriptors: list[FeatureDescriptor]):
        for pos, d in enumerate(descriptors, start=1):
            if d.index != pos:
                raise ValueError(f"descriptor {d.name} at position {pos} has index {d.index}")
        self._descriptors = tuple(descriptors)

    def __len__(self) -> int:
        return len(self._descriptors)

    def __iter__(self):
        return iter(self._descriptors)

    def __getitem__(self, index: int) -> FeatureDescriptor:
        """Look up by global 1-based index."""
        if not 1 <= index <= len(self._descriptors):
            raise BadIndexError(f"feature index {index} outside 1..{len(self._descriptors)}")
        return self._descriptors[index - 1]

    def names(self) -> list[str]:
        return [d.name for d in self._descriptors]

    def modality_indices(self, modality: str) -> tuple[int, ...]:
        """Global indices belonging to one modality, ascending."""
        return tuple(d.index for d in self._descriptors if d.modality == modality)


def build_registry(
    channels: int = 8,
    pairs=DEFAULT_PAIRS,
    lmf_count: int = LMF_COUNT,
    n_bands: int = 10,
    lbp_threshold: int = LBP_THRESHOLD,
) -> FeatureRegistry:
    """Construct the registry for the configured feature layout.

    With the defaults (8 channels, 12 pairs, 17 log-moment features, 10
    bands, 2 LBP counts) the registry covers 276 features.
    """
    descriptors: list[FeatureDescriptor] = []

    def add(modality, channel, pair, within, name):
        descriptors.append(
            FeatureDescriptor(len(descriptors) + 1, modality, channel, pair, within, name)
        )

    for ch in range(1, channels + 1):
        for q, stat in enumerate(TDS_NAMES, start=1):
            add("tds", ch, None, (ch - 1) * len(TDS_NAMES) + q, f"tds_ch{ch}_{stat}")
    for q, (i, j) in enumerate(pairs, start=1):
        add("ics", None, (i, j), q, f"ics_ch{i}_ch{j}")
    for ch in range(1, channels + 1):
        for q in range(1, lmf_count + 1):
            add("lmf", ch, None, (ch - 1) * lmf_count + q, f"lmf_ch{ch}_f{q}")
    for ch in range(1, channels + 1):
        for q in range(1, n_bands + 1):
            add("sbp", ch, None, (ch - 1) * n_bands + q, f"sbp_ch{ch}_band{q}")
    for ch in range(1, channels + 1):
        for q, side in enumerate(("le", "gt"), start=1):
            add("lbp", ch, None, (ch - 1) * 2 + q, f"lbp_ch{ch}_{side}{lbp_threshold}")
    return FeatureRegistry(descriptors)
