"""Division/grouping planners, halo math, tile extraction and stitching."""

import numpy as np
import pytest

from csfsim import (LayerSpec, PlanError, division_input_dims,
                    division_layer, encode_csf, extract_division,
                    output_shape, plan_feature_division, plan_filter_grouping,
                    random_sparse_filters, run_conv, stack_filters,
                    stitch_outputs)


def vgg_layer(name, channels, size, filters):
    return LayerSpec(name, "conv", channels, size, size, 3, 1, 1, filters)


def _rand_input(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) * 2.0 - 1.0).astype(np.float32)


class TestDivisionInputDims:
    def test_unit_stride(self):
        assert division_input_dims(14, 14, 1, 3) == (16, 16)

    def test_single_output_window(self):
        assert division_input_dims(1, 1, 4, 11) == (11, 11)

    def test_large_stride(self):
        assert division_input_dims(14, 14, 4, 11) == (63, 63)


class TestPlanFeatureDivision:
    def test_first_reference_row(self):
        plan = plan_feature_division(vgg_layer("c11", 3, 224, 64), 100352,
                                     tile=14)
        assert (plan.grid_h, plan.grid_w) == (16, 16)
        assert plan.load_times == 256
        assert plan.dense_weight_count == 1728
        assert plan.total_weights_loaded == 442_368
        assert (plan.tile_in_h, plan.tile_in_w) == (16, 16)

    def test_last_reference_row(self):
        plan = plan_feature_division(vgg_layer("c53", 512, 14, 512), 100352,
                                     tile=14)
        assert (plan.grid_h, plan.grid_w) == (1, 1)
        assert plan.total_weights_loaded == 2_359_296

    def test_budget_max_whole_layer_fits(self):
        layer = vgg_layer("s", 4, 10, 8)
        plan = plan_feature_division(layer, budget=8 * 100 + 50, tile=None)
        assert (plan.grid_h, plan.grid_w) == (1, 1)
        assert plan.total_weights_loaded == plan.dense_weight_count

    def test_budget_max_picks_largest_square(self):
        layer = vgg_layer("m", 4, 32, 8)
        plan = plan_feature_division(layer, budget=8 * 7 * 7, tile=None)
        assert (plan.tile_out_h, plan.tile_out_w) == (7, 7)
        assert plan.tile_out_h ** 2 * 8 <= 8 * 7 * 7

    def test_infeasible_tile(self):
        with pytest.raises(PlanError, match="budget"):
            plan_feature_division(vgg_layer("x", 4, 64, 512), 100, tile=14)

    def test_budget_below_filter_count(self):
        with pytest.raises(PlanError, match="one output element"):
            plan_feature_division(vgg_layer("x", 4, 64, 512), 511, tile=1)

    def test_tile_clipped_to_small_plane(self):
        layer = LayerSpec("t", "conv", 4, 13, 13, 3, 1, 1, 8)
        plan = plan_feature_division(layer, 10 ** 6, tile=14)
        assert (plan.tile_out_h, plan.tile_out_w) == (13, 13)
        assert (plan.grid_h, plan.grid_w) == (1, 1)

    def test_edge_tiles_shrink(self):
        layer = LayerSpec("e", "conv", 2, 13, 17, 3, 2, 1, 4)
        # output 7 x 9
        plan = plan_feature_division(layer, 10 ** 6, tile=4)
        assert (plan.grid_h, plan.grid_w) == (2, 3)
        assert plan.tile_out_dims(0, 0) == (4, 4)
        assert plan.tile_out_dims(1, 2) == (3, 1)
        assert plan.tile_in_dims(1, 2) == ((3 - 1) * 2 + 3, (1 - 1) * 2 + 3)

    def test_fc_layer_rejected(self):
        with pytest.raises(PlanError, match="conv"):
            plan_feature_division(LayerSpec("f", "fc", 2, 3, 3, 1, 1, 0, 4),
                                  10 ** 6)

    def test_monotone_in_budget(self):
        layer = vgg_layer("m", 16, 56, 64)
        previous = None
        for budget in (64 * 4, 64 * 16, 64 * 64, 64 * 256, 64 * 1024,
                       64 * 4096):
            plan = plan_feature_division(layer, budget, tile=None)
            if previous is not None:
                assert plan.total_weights_loaded <= previous
            previous = plan.total_weights_loaded


class TestPlanFilterGrouping:
    def test_first_reference_row(self):
        plan = plan_filter_grouping(vgg_layer("c11", 3, 224, 64), 200704)
        assert plan.batch_size == 4
        assert plan.batches == 16
        assert plan.feature_count == 150_528
        assert plan.total_features_loaded == 2_408_448
        assert plan.note is None

    def test_mid_reference_row(self):
        plan = plan_filter_grouping(vgg_layer("c31", 128, 56, 256), 200704)
        assert (plan.batch_size, plan.batches) == (64, 4)
        assert plan.total_features_loaded == 1_605_632

    def test_inconsistent_published_row_flagged(self):
        plan = plan_filter_grouping(vgg_layer("c41", 256, 28, 512), 200704)
        assert (plan.batch_size, plan.batches) == (256, 2)
        assert plan.total_features_loaded == 401_408
        assert plan.note is not None and "inconsistent" in plan.note

    def test_flag_clears_when_budget_matches_published(self):
        plan = plan_filter_grouping(vgg_layer("c41", 256, 28, 512), 401408)
        assert (plan.batch_size, plan.batches) == (512, 1)
        assert plan.note is None

    def test_budget_too_small(self):
        with pytest.raises(PlanError, match="output plane"):
            plan_filter_grouping(vgg_layer("x", 3, 224, 64), 1000)

    def test_fc_layer_groups_by_output_elements(self):
        plan = plan_filter_grouping(LayerSpec("f", "fc", 50, 4, 4, 1, 1, 0,
                                              500), 128)
        assert plan.batch_size == 128
        assert plan.batches == 4

    def test_feasibility_invariant(self):
        layer = vgg_layer("inv", 16, 56, 100)
        for budget in (3136, 5000, 31360, 313600):
            plan = plan_filter_grouping(layer, budget)
            assert plan.batch_size * 56 * 56 <= budget
            assert plan.batch_size * plan.batches >= 100


class TestExtractAndStitch:
    def test_single_tile_is_full_padded_input(self):
        layer = LayerSpec("p", "conv", 2, 6, 6, 3, 1, 1, 4)
        plan = plan_feature_division(layer, 10 ** 6, tile=14)
        x = _rand_input((2, 6, 6), 1)
        tile = extract_division(x, plan, 0, 0, layer)
        assert tile.shape == (2, 8, 8)
        assert np.array_equal(tile[:, 1:7, 1:7], x)
        assert not tile[:, 0, :].any() and not tile[:, :, 0].any()

    def test_quarter_division_origins(self):
        # 28x28 plane, 2x2 grid of 14x14 output tiles, 16x16 input windows
        layer = LayerSpec("q", "conv", 1, 28, 28, 3, 1, 1, 4)
        plan = plan_feature_division(layer, 4 * 14 * 14, tile=14)
        assert (plan.grid_h, plan.grid_w) == (2, 2)
        x = _rand_input((1, 28, 28), 2)
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        for ty in range(2):
            for tx in range(2):
                tile = extract_division(x, plan, ty, tx, layer)
                assert tile.shape == (1, 16, 16)
                y0, x0 = ty * 14, tx * 14
                assert np.array_equal(
                    tile, padded[:, y0:y0 + 16, x0:x0 + 16])

    def test_adjacent_tiles_share_halo_columns(self):
        layer = LayerSpec("h", "conv", 1, 28, 28, 3, 1, 1, 4)
        plan = plan_feature_division(layer, 4 * 14 * 14, tile=14)
        x = _rand_input((1, 28, 28), 3)
        left = extract_division(x, plan, 0, 0, layer)
        right = extract_division(x, plan, 0, 1, layer)
        overlap = layer.kernel - layer.stride
        assert np.array_equal(left[:, :, -overlap:], right[:, :, :overlap])

    def test_tile_index_out_of_range(self):
        layer = LayerSpec("o", "conv", 1, 28, 28, 3, 1, 1, 4)
        plan = plan_feature_division(layer, 4 * 14 * 14, tile=14)
        with pytest.raises(IndexError):
            extract_division(np.zeros((1, 28, 28)), plan, 2, 0, layer)

    def test_stitch_identity_on_single_tile(self):
        layer = LayerSpec("s", "conv", 2, 6, 6, 3, 1, 1, 4)
        plan = plan_feature_division(layer, 10 ** 6, tile=14)
        block = _rand_input((4, 6, 6), 4)
        assert np.array_equal(stitch_outputs([[block]], plan), block)

    def test_stitch_block_constant(self):
        layer = LayerSpec("b", "conv", 1, 28, 28, 3, 1, 1, 2)
        plan = plan_feature_division(layer, 2 * 14 * 14, tile=14)
        tiles = [[np.full((2, 14, 14), float(10 * ty + tx), np.float32)
                  for tx in range(2)] for ty in range(2)]
        out = stitch_outputs(tiles, plan)
        assert out.shape == (2, 28, 28)
        assert (out[:, :14, :14] == 0).all()
        assert (out[:, :14, 14:] == 1).all()
        assert (out[:, 14:, :14] == 10).all()
        assert (out[:, 14:, 14:] == 11).all()

    def test_stitch_rejects_bad_shape(self):
        layer = LayerSpec("r", "conv", 1, 28, 28, 3, 1, 1, 2)
        plan = plan_feature_division(layer, 2 * 14 * 14, tile=14)
        tiles = [[np.zeros((2, 14, 14))] * 2,
                 [np.zeros((2, 14, 14)), np.zeros((2, 13, 14))]]
        with pytest.raises(ValueError, match="shape"):
            stitch_outputs(tiles, plan)

    @pytest.mark.parametrize("h,w,k,s,p,t", [
        (28, 28, 3, 1, 1, 14),
        (13, 17, 3, 2, 1, 3),
        (11, 11, 5, 2, 2, 2),
        (9, 12, 1, 1, 0, 4),
    ])
    def test_tiled_equals_whole_bitwise(self, h, w, k, s, p, t):
        layer = LayerSpec("tw", "conv", 3, h, w, k, s, p, 5)
        bank = random_sparse_filters(layer, 0.6, h * 100 + w)
        x = _rand_input((3, h, w), h + w)
        stream = encode_csf(stack_filters(bank, 0, 5), "conv")
        whole, _ = run_conv(stream, x, layer)
        plan = plan_feature_division(layer, 10 ** 9, tile=t)
        tiles = []
        for ty in range(plan.grid_h):
            row = []
            for tx in range(plan.grid_w):
                sub = extract_division(x, plan, ty, tx, layer)
                out, _ = run_conv(stream, sub,
                                  division_layer(layer, plan, ty, tx))
                row.append(out)
            tiles.append(row)
        stitched = stitch_outputs(tiles, plan)
        assert stitched.shape == whole.shape
        assert np.array_equal(stitched, whole)

    def test_tile_windows_exactly_feed_tile_outputs(self):
        # each extracted window, run as its own layer, must produce exactly
        # the tile's output extent: the halo arithmetic leaves no slack
        layer = LayerSpec("x", "conv", 2, 13, 17, 3, 2, 1, 4)
        plan = plan_feature_division(layer, 10 ** 6, tile=4)
        for ty in range(plan.grid_h):
            for tx in range(plan.grid_w):
                sub_layer = division_layer(layer, plan, ty, tx)
                out_w, out_h = output_shape(sub_layer)
                assert (out_h, out_w) == plan.tile_out_dims(ty, tx)
