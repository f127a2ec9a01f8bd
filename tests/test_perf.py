"""Efficiency metrics, the runtime predictor, and the dense trace."""

import math

import numpy as np
import pytest

from csfsim import (LayerSpec, PerfParams, TraceCounters, dense_trace,
                    efficiency_per_pe, predict_runtime, random_sparse_filters,
                    run_layer_batched)


def _trace(macs=0, loads=None, instructions=0):
    loads = macs if loads is None else loads
    return TraceCounters(macs_executed=macs, weight_loads=loads,
                         index_loads=loads, feature_loads=0, pointer_loads=0,
                         simd_instructions=instructions)


class TestPerfParams:
    def test_weights_per_clock_defaults_to_pe_count(self):
        assert PerfParams(pe_count=8).weights_per_clock == 8
        assert PerfParams(pe_count=8, weights_per_clock=2).weights_per_clock == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfParams(pe_count=0)
        with pytest.raises(ValueError):
            PerfParams(clock_mhz=0.0)
        with pytest.raises(ValueError):
            PerfParams(efficiency_divisor=0)

    @pytest.mark.parametrize("clock", [math.inf, math.nan, -math.inf])
    def test_non_finite_clock_rejected(self, clock):
        with pytest.raises(ValueError, match="clock_mhz must be positive "
                                             "and finite"):
            PerfParams(clock_mhz=clock)


class TestEfficiencyPerPe:
    def test_published_baseline_value(self):
        assert efficiency_per_pe(118.1646, 18.4, 168) == pytest.approx(
            0.0382, abs=1e-4)

    def test_published_value_divisor_four(self):
        assert efficiency_per_pe(224.2806, 182.249, 4) == pytest.approx(
            0.3077, abs=1e-4)

    def test_unit_case(self):
        assert efficiency_per_pe(100.0, 100.0, 1) == 1.0

    def test_homogeneous_in_scale(self):
        base = efficiency_per_pe(50.0, 7.0, 4)
        assert efficiency_per_pe(50.0 * 3, 7.0 * 3, 4) == pytest.approx(base)

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            efficiency_per_pe(1.0, 0.0, 4)


class TestPredictRuntime:
    def test_empty_workload_is_drain_only(self):
        params = PerfParams()
        ms = predict_runtime(_trace(macs=0, instructions=100), params)
        assert ms == pytest.approx(11 * 100 / (299.97 * 1000.0))

    def test_compute_term_doubles_with_macs(self):
        # plenty of load bandwidth: weight term never dominates
        params = PerfParams(pe_count=8, weights_per_clock=10 ** 9)
        base = predict_runtime(_trace(macs=80_000), params)
        double = predict_runtime(_trace(macs=160_000), params)
        assert double == pytest.approx(2 * base)

    def test_hand_computed_value(self):
        params = PerfParams(pe_count=8, clock_mhz=299.97,
                            add_latency_cycles=11)
        trace = _trace(macs=1000, instructions=7)
        cycles = max(math.ceil(1000 / 8), math.ceil(1000 / 8)) + 11 * 7
        assert predict_runtime(trace, params) == cycles / (299.97 * 1000.0)

    def test_load_bound_side(self):
        params = PerfParams(pe_count=1000, weights_per_clock=1)
        trace = _trace(macs=500, loads=500, instructions=0)
        assert predict_runtime(trace, params) == 500 / (299.97 * 1000.0)

    def test_monotone_in_every_count(self):
        params = PerfParams()
        base = predict_runtime(_trace(macs=1000, instructions=10), params)
        assert predict_runtime(_trace(macs=2000, instructions=10),
                               params) >= base
        assert predict_runtime(_trace(macs=1000, instructions=20),
                               params) >= base
        assert predict_runtime(_trace(macs=1000, loads=9000,
                                      instructions=10), params) >= base


class TestDenseTrace:
    def test_matches_engine_at_density_one(self):
        layer = LayerSpec("d", "conv", 3, 8, 8, 3, 1, 1, 6)
        bank = random_sparse_filters(layer, 1.0, 0)
        x = np.zeros((3, 8, 8), np.float32)
        _, trace = run_layer_batched(bank, x, layer, 6)
        assert vars(dense_trace(layer)) == vars(trace)

    def test_matches_engine_fc(self):
        layer = LayerSpec("f", "fc", 2, 4, 4, 1, 1, 0, 5)
        bank = random_sparse_filters(layer, 1.0, 1)
        _, trace = run_layer_batched(bank, np.zeros((2, 4, 4), np.float32),
                                     layer, 5)
        assert vars(dense_trace(layer)) == vars(trace)
