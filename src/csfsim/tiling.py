"""Output-buffer planning: feature division and filter grouping.

Feature division tiles the output plane so one tile's outputs fit the
on-chip buffer; every tile re-reads the whole filter bank, and adjacent
input tiles overlap by a halo of kernel minus stride rows and columns.
Filter grouping instead splits the filter bank into batches whose full
output planes fit the buffer; every batch re-streams the whole input.
Both planners report the resulting reload traffic so the strategies can
be compared per layer. Each plan field but `note` is the column of the
same name in `plan --csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layers import LayerSpec, output_shape


class PlanError(ValueError):
    """Requested plan cannot satisfy the buffer budget."""


@dataclass(frozen=True)
class DivisionPlan:
    """A tiling of the output plane plus its weight-reload accounting.

    Tiles in the last grid row or column are smaller when the output plane
    does not divide evenly. Every tile reloads the whole dense filter bank.
    """

    grid_h: int
    grid_w: int
    load_times: int
    filter_weights: int
    total_weights_loaded: int


@dataclass(frozen=True)
class GroupingPlan:
    """A filter batching plus its feature-restream accounting."""

    batch_size: int
    batches: int
    features: int
    total_features_loaded: int
    note: str | None = None


def plan_feature_division(layer: LayerSpec, budget: int,
                          tile: int | None) -> DivisionPlan:
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
    load_times = grid_h * grid_w
    filter_weights = math.prod(layer.bank_shape)
    return DivisionPlan(
        grid_h=grid_h,
        grid_w=grid_w,
        load_times=load_times,
        filter_weights=filter_weights,
        total_weights_loaded=load_times * filter_weights,
    )


# rows where a published grouping table disagrees with its own batch formula,
# keyed by (channels, height, width, filters, features) with the values
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
    features = layer.channels * layer.height * layer.width
    key = (layer.channels, layer.height, layer.width, layer.filters, features)
    note = None
    published = _PUBLISHED_GROUPING_ROWS.get(key)
    if published is not None and published != (batches, batches * features):
        note = (
            f"published figures list {published[0]} batches / {published[1]} "
            f"features loaded, inconsistent with {layer.filters} filters at "
            f"batch size {batch}"
        )
    return GroupingPlan(
        batch_size=batch,
        batches=batches,
        features=features,
        total_features_loaded=batches * features,
        note=note,
    )
