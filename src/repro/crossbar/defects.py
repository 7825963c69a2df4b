"""Defect maps of a sampled crossbar instance.

A crosspoint is usable only if both its row wire and its column wire are
uniquely addressable; the paper does not simulate crosspoint-material
defects (neither do we — out of scope), so a defect map is
fully described by the two per-layer addressability vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.base import CodeSpace
from repro.crossbar.montecarlo import sample_electrical_mask, sample_geometric_mask
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import decoder_for


@dataclass(frozen=True)
class DefectMap:
    """Addressability of every wire of a sampled crossbar.

    Attributes
    ----------
    row_ok, col_ok:
        Boolean addressability per row / column nanowire.
    """

    row_ok: np.ndarray
    col_ok: np.ndarray

    def __post_init__(self) -> None:
        if self.row_ok.ndim != 1 or self.col_ok.ndim != 1:
            raise ValueError("wire masks must be 1-D")

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of the crosspoint grid."""
        return self.row_ok.size, self.col_ok.size

    @property
    def working(self) -> np.ndarray:
        """Boolean matrix of working crosspoints (outer AND of the wires)."""
        return np.logical_and.outer(self.row_ok, self.col_ok)

    @property
    def working_bits(self) -> int:
        """Number of usable crosspoints."""
        return int(self.row_ok.sum()) * int(self.col_ok.sum())

    @property
    def crosspoint_yield(self) -> float:
        """Working fraction of the raw crosspoints."""
        return self.working_bits / (self.row_ok.size * self.col_ok.size)


def sample_layer_mask(
    spec: CrossbarSpec,
    space: CodeSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """Addressability of one layer's ``side_nanowires`` wires.

    The layer is tiled from independent half caves, each patterned with
    the same code; the concatenated mask is trimmed to the layer width.
    """
    decoder = decoder_for(spec, space)
    pieces = []
    remaining = spec.side_nanowires
    while remaining > 0:
        mask = sample_electrical_mask(decoder, rng) & sample_geometric_mask(
            decoder, rng
        )
        pieces.append(mask[: min(remaining, mask.size)])
        remaining -= mask.size
    return np.concatenate(pieces)[: spec.side_nanowires]


def sample_defect_map(
    spec: CrossbarSpec,
    space: CodeSpace,
    seed: int = 0,
) -> DefectMap:
    """Sample one full crossbar instance (both layers)."""
    rng = np.random.default_rng(seed)
    return DefectMap(
        row_ok=sample_layer_mask(spec, space, rng),
        col_ok=sample_layer_mask(spec, space, rng),
    )
