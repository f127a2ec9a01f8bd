"""Feature-division and filter-grouping planners."""

import pytest

from csfsim import (LayerSpec, PlanError, plan_feature_division,
                    plan_filter_grouping)


def vgg_layer(name, channels, size, filters):
    return LayerSpec(name, "conv", channels, size, size, 3, 1, 1, filters)


class TestPlanFeatureDivision:
    def test_first_reference_row(self):
        plan = plan_feature_division(vgg_layer("c11", 3, 224, 64), 100352,
                                     tile=14)
        assert (plan.grid_h, plan.grid_w) == (16, 16)
        assert plan.load_times == 256
        assert plan.filter_weights == 1728
        assert plan.total_weights_loaded == 442_368

    def test_last_reference_row(self):
        plan = plan_feature_division(vgg_layer("c53", 512, 14, 512), 100352,
                                     tile=14)
        assert (plan.grid_h, plan.grid_w) == (1, 1)
        assert plan.total_weights_loaded == 2_359_296

    def test_budget_max_whole_layer_fits(self):
        layer = vgg_layer("s", 4, 10, 8)
        plan = plan_feature_division(layer, budget=8 * 100 + 50, tile=None)
        assert (plan.grid_h, plan.grid_w) == (1, 1)
        assert plan.total_weights_loaded == plan.filter_weights

    def test_budget_max_picks_largest_square(self):
        layer = vgg_layer("m", 4, 32, 8)
        plan = plan_feature_division(layer, budget=8 * 7 * 7, tile=None)
        # 7x7 tiles: a 32-px output plane needs ceil(32 / 7) = 5 per side
        assert (plan.grid_h, plan.grid_w) == (5, 5)
        with pytest.raises(PlanError, match="budget"):
            plan_feature_division(layer, budget=8 * 7 * 7, tile=8)

    def test_infeasible_tile(self):
        with pytest.raises(PlanError, match="budget"):
            plan_feature_division(vgg_layer("x", 4, 64, 512), 100, tile=14)

    def test_tile_below_one_refused(self):
        with pytest.raises(PlanError, match="^x: tile size 0 must be >= 1$"):
            plan_feature_division(vgg_layer("x", 4, 64, 512), 10 ** 6, tile=0)

    def test_budget_below_filter_count(self):
        with pytest.raises(PlanError, match="one output element"):
            plan_feature_division(vgg_layer("x", 4, 64, 512), 511, tile=1)

    def test_tile_clipped_to_small_plane(self):
        layer = LayerSpec("t", "conv", 4, 13, 13, 3, 1, 1, 8)
        # a 14-px tile is cut to the 13x13 plane, so 13 * 13 * 8 fits
        plan = plan_feature_division(layer, 13 * 13 * 8, tile=14)
        assert (plan.grid_h, plan.grid_w) == (1, 1)
        with pytest.raises(PlanError, match="13x13 output tiles"):
            plan_feature_division(layer, 13 * 13 * 8 - 1, tile=14)

    def test_edge_tiles_shrink(self):
        layer = LayerSpec("e", "conv", 2, 13, 17, 3, 2, 1, 4)
        # output 7 x 9
        plan = plan_feature_division(layer, 10 ** 6, tile=4)
        assert (plan.grid_h, plan.grid_w) == (2, 3)
        assert plan.load_times == 6

    def test_fc_layer_rejected(self):
        with pytest.raises(PlanError, match="conv"):
            plan_feature_division(LayerSpec("f", "fc", 2, 3, 3, 1, 1, 0, 4),
                                  10 ** 6, tile=14)

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
        assert plan.features == 150_528
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
