"""Layer shape records and dense arithmetic-count math."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LayerSpec:
    """Shape and hyperparameters of one CONV or FC layer.

    FC layers are modeled as unpadded stride-1 layers whose filters span the
    whole input volume; kernel, stride and pad are forced to 1, 1, 0 when
    kind is "fc". A conv kernel must fit its padded input, so every layer
    has an output plane.
    """

    name: str
    kind: str  # "conv" or "fc"
    channels: int
    height: int
    width: int
    kernel: int
    stride: int
    pad: int
    filters: int

    def __post_init__(self):
        if self.kind not in ("conv", "fc"):
            raise ValueError(f"{self.name}: unknown layer kind {self.kind!r}")
        if self.kind == "fc":
            object.__setattr__(self, "kernel", 1)
            object.__setattr__(self, "stride", 1)
            object.__setattr__(self, "pad", 0)
        for field in ("channels", "height", "width", "kernel", "stride", "filters"):
            if getattr(self, field) < 1:
                raise ValueError(f"{self.name}: {field} must be >= 1")
        if self.pad < 0:
            raise ValueError(f"{self.name}: pad must be >= 0")
        padded_h = self.height + 2 * self.pad
        padded_w = self.width + 2 * self.pad
        if self.kernel > min(padded_h, padded_w):
            raise ValueError(f"{self.name}: kernel {self.kernel} exceeds "
                             f"padded input {padded_h}x{padded_w}")

    @property
    def bank_shape(self) -> tuple[int, int, int, int]:
        """Filter bank extents: (filters, C, k, k) conv, (filters, C, H, W) fc."""
        if self.kind == "fc":
            return self.filters, self.channels, self.height, self.width
        return self.filters, self.channels, self.kernel, self.kernel


def output_shape(layer: LayerSpec) -> tuple[int, int]:
    """Output plane extents (width, height), floor division on leftovers."""
    if layer.kind == "fc":
        return 1, 1
    out_w = (layer.width + 2 * layer.pad - layer.kernel) // layer.stride + 1
    out_h = (layer.height + 2 * layer.pad - layer.kernel) // layer.stride + 1
    return out_w, out_h


def mac_count(layer: LayerSpec) -> int:
    """Dense multiply-accumulate count for one input frame.

    Python ints, so counts never overflow. Grouped-convolution variants are
    counted with their full channel fan-in.
    """
    return math.prod(layer.bank_shape) * math.prod(output_shape(layer))
