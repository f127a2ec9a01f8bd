"""Output-buffer planning: feature division and filter grouping.

Feature division tiles the output plane so one tile's outputs fit the
on-chip buffer; every tile re-reads the whole filter bank, and adjacent
input tiles overlap by a halo of kernel minus stride rows and columns.
Filter grouping instead splits the filter bank into batches whose full
output planes fit the buffer; every batch re-streams the whole input.
Both planners report the resulting reload traffic so the strategies can
be compared per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import as_f32, pad_channels
from .layers import LayerSpec, output_shape


class PlanError(ValueError):
    """Requested plan cannot satisfy the buffer budget."""


@dataclass(frozen=True)
class DivisionPlan:
    """A tiling of the output plane plus its weight-reload accounting.

    tile_out_* are the nominal output tile extents; tiles in the last grid
    row or column shrink when the output plane does not divide evenly.
    tile_in_* are the matching input window extents, halo included.
    """

    grid_h: int
    grid_w: int
    tile_out_h: int
    tile_out_w: int
    tile_in_h: int
    tile_in_w: int
    out_h: int
    out_w: int
    stride: int
    kernel: int
    load_times: int
    dense_weight_count: int
    total_weights_loaded: int

    def tile_out_dims(self, tile_y: int, tile_x: int) -> tuple[int, int]:
        """(height, width) of output tile (tile_y, tile_x), edge-clipped."""
        if not (0 <= tile_y < self.grid_h and 0 <= tile_x < self.grid_w):
            raise IndexError(f"tile ({tile_y}, {tile_x}) outside "
                             f"{self.grid_h}x{self.grid_w} grid")
        h = min(self.tile_out_h, self.out_h - tile_y * self.tile_out_h)
        w = min(self.tile_out_w, self.out_w - tile_x * self.tile_out_w)
        return h, w

    def tile_in_dims(self, tile_y: int, tile_x: int) -> tuple[int, int]:
        """(height, width) of the input window feeding that output tile."""
        h, w = self.tile_out_dims(tile_y, tile_x)
        in_w, in_h = division_input_dims(w, h, self.stride, self.kernel)
        return in_h, in_w


@dataclass(frozen=True)
class GroupingPlan:
    """A filter batching plus its feature-restream accounting."""

    batch_size: int
    batches: int
    feature_count: int
    total_features_loaded: int
    note: str | None = None


def division_input_dims(w_do: int, h_do: int, stride: int, kernel: int):
    """Input window extents needed for an output tile of w_do x h_do."""
    return (w_do - 1) * stride + kernel, (h_do - 1) * stride + kernel


def plan_feature_division(layer: LayerSpec, budget: int,
                          tile: int | None = 14) -> DivisionPlan:
    """Tile a conv layer's output plane under an output-buffer budget.

    With `tile` set, the output plane is cut into tile x tile pieces
    (clipped to the plane when it is smaller). With tile=None the planner
    picks the largest square tile whose outputs for all filters fit the
    budget. Either way the effective tile must fit: tile area times the
    filter count may not exceed the budget.
    """
    if layer.kind != "conv":
        raise PlanError(f"{layer.name}: feature division applies to conv layers")
    if budget < layer.filters:
        raise PlanError(
            f"{layer.name}: budget {budget} cannot hold one output element "
            f"per filter ({layer.filters})"
        )
    out_w, out_h = output_shape(layer)
    if tile is None:
        t = math.isqrt(budget // layer.filters)
        t = min(t, max(out_h, out_w))
    else:
        if tile < 1:
            raise PlanError(f"{layer.name}: tile size {tile} must be >= 1")
        t = tile
    eff_h, eff_w = min(t, out_h), min(t, out_w)
    if eff_h * eff_w * layer.filters > budget:
        raise PlanError(
            f"{layer.name}: {eff_h}x{eff_w} output tiles for {layer.filters} "
            f"filters need {eff_h * eff_w * layer.filters} elements, "
            f"budget is {budget}"
        )
    grid_h = -(-out_h // eff_h)
    grid_w = -(-out_w // eff_w)
    in_w, in_h = division_input_dims(eff_w, eff_h, layer.stride, layer.kernel)
    load_times = grid_h * grid_w
    dense_weights = layer.filters * layer.channels * layer.kernel ** 2
    return DivisionPlan(
        grid_h=grid_h,
        grid_w=grid_w,
        tile_out_h=eff_h,
        tile_out_w=eff_w,
        tile_in_h=in_h,
        tile_in_w=in_w,
        out_h=out_h,
        out_w=out_w,
        stride=layer.stride,
        kernel=layer.kernel,
        load_times=load_times,
        dense_weight_count=dense_weights,
        total_weights_loaded=load_times * dense_weights,
    )


# rows where a published grouping table disagrees with its own batch formula,
# keyed by (channels, height, width, filters, feature_count) with the values
# it prints for (batches, total features loaded)
_PUBLISHED_GROUPING_ROWS = {
    (256, 28, 28, 512, 200704): (1, 200704),
}


def plan_filter_grouping(layer: LayerSpec, budget: int) -> GroupingPlan:
    """Split the filter bank into batches whose outputs fit the budget."""
    out_w, out_h = output_shape(layer)
    plane = out_h * out_w
    if budget < plane:
        raise PlanError(
            f"{layer.name}: budget {budget} cannot hold one {out_h}x{out_w} "
            f"output plane"
        )
    batch = min(layer.filters, budget // plane)
    batches = -(-layer.filters // batch)
    feature_count = layer.channels * layer.height * layer.width
    key = (layer.channels, layer.height, layer.width, layer.filters, feature_count)
    note = None
    published = _PUBLISHED_GROUPING_ROWS.get(key)
    if published is not None and published != (batches, batches * feature_count):
        note = (
            f"published figures list {published[0]} batches / {published[1]} "
            f"features loaded, inconsistent with {layer.filters} filters at "
            f"batch size {batch}"
        )
    return GroupingPlan(
        batch_size=batch,
        batches=batches,
        feature_count=feature_count,
        total_features_loaded=batches * feature_count,
        note=note,
    )


def division_layer(layer: LayerSpec, plan: DivisionPlan,
                   tile_y: int, tile_x: int) -> LayerSpec:
    """Layer describing one extracted tile: padding already materialized."""
    in_h, in_w = plan.tile_in_dims(tile_y, tile_x)
    return LayerSpec(
        name=f"{layer.name}[{tile_y},{tile_x}]",
        kind="conv",
        channels=layer.channels,
        height=in_h,
        width=in_w,
        kernel=layer.kernel,
        stride=layer.stride,
        pad=0,
        filters=layer.filters,
    )


def extract_division(features, plan: DivisionPlan, tile_y: int, tile_x: int,
                     layer: LayerSpec) -> np.ndarray:
    """Cut the input window for one tile out of the padded input planes.

    The window's origin in the padded plane is the first input sample its
    first output element reads, so adjacent windows share halo rows and
    columns; the copy is contiguous and safe to mutate.
    """
    x = as_f32(features, (layer.channels, layer.height, layer.width))
    padded = pad_channels(x, layer.pad)
    in_h, in_w = plan.tile_in_dims(tile_y, tile_x)
    y0 = tile_y * plan.tile_out_h * plan.stride
    x0 = tile_x * plan.tile_out_w * plan.stride
    return np.ascontiguousarray(padded[:, y0:y0 + in_h, x0:x0 + in_w])


def stitch_outputs(tiles, plan: DivisionPlan) -> np.ndarray:
    """Reassemble per-tile outputs into the full output tensor.

    `tiles` is a grid_h x grid_w nested sequence of (filters, h, w) arrays.
    Output tiles are disjoint, so placement is pure concatenation.
    """
    if len(tiles) != plan.grid_h:
        raise ValueError(f"expected {plan.grid_h} tile rows, got {len(tiles)}")
    rows = []
    for ty, row in enumerate(tiles):
        if len(row) != plan.grid_w:
            raise ValueError(
                f"tile row {ty} has {len(row)} tiles, expected {plan.grid_w}"
            )
        cells = []
        for tx, cell in enumerate(row):
            arr = np.asarray(cell, dtype=np.float32)
            want = plan.tile_out_dims(ty, tx)
            if arr.ndim != 3 or arr.shape[1:] != want:
                raise ValueError(
                    f"tile ({ty}, {tx}) has shape {arr.shape}, "
                    f"expected (*, {want[0]}, {want[1]})"
                )
            cells.append(arr)
        rows.append(np.concatenate(cells, axis=2))
    return np.concatenate(rows, axis=1)
