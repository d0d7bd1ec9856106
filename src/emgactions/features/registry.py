"""Provenance registry mapping global feature indices to descriptors.

Global indices are 1-based everywhere in the public API. The layout itself
is the family table of ``emgactions.features.assemble``.
"""

from __future__ import annotations

from dataclasses import dataclass


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
