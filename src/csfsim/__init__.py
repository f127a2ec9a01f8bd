"""Compressed sparse filter streams and a stacked-filter streaming engine.

The package covers the full path from dense filter banks to simulated
sparse execution: layer shape math and dense reference semantics
(`layers`, `dense`), the relative-indexed compressed stream format with
its byte serialization (`codec`), a functional simulator of the streaming
dataflow with memory-traffic counters (`engine`), output-buffer planning
for feature division and filter grouping (`tiling`), analytic throughput
metrics (`perf`), and a network config grammar plus CLI (`netconfig`,
`cli`).
"""

from .codec import (CsfFormatError, CsfRangeError, CsfStream, decode_csf,
                    deserialize_csf, encode_csf, quantize_shift, serialize_csf,
                    stack_filters)
from .dense import (as_f32, dense_conv, dense_fc, pad_channels,
                    random_sparse_filters)
from .engine import (EngineContext, TraceCounters, run_conv, run_fc,
                     run_layer_batched)
from .layers import LayerSpec, mac_count, output_shape
from .netconfig import (ConfigError, NetworkConfig, load_network_config,
                        parse_network_config, render_network_config)
from .perf import (BASELINE_PARAMS, LayerPerfRow, PerfParams, build_table,
                   dense_trace, efficiency_per_pe, improvement,
                   predict_runtime)
from .tiling import (DivisionPlan, GroupingPlan, PlanError,
                     StrategyComparison, compare_strategies,
                     division_input_dims, division_layer, extract_division,
                     plan_feature_division, plan_filter_grouping,
                     stitch_outputs)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_PARAMS",
    "ConfigError",
    "CsfFormatError",
    "CsfRangeError",
    "CsfStream",
    "DivisionPlan",
    "EngineContext",
    "GroupingPlan",
    "LayerPerfRow",
    "LayerSpec",
    "NetworkConfig",
    "PerfParams",
    "PlanError",
    "StrategyComparison",
    "TraceCounters",
    "as_f32",
    "build_table",
    "compare_strategies",
    "decode_csf",
    "dense_conv",
    "dense_fc",
    "dense_trace",
    "deserialize_csf",
    "division_input_dims",
    "division_layer",
    "efficiency_per_pe",
    "encode_csf",
    "extract_division",
    "improvement",
    "load_network_config",
    "mac_count",
    "output_shape",
    "pad_channels",
    "parse_network_config",
    "plan_feature_division",
    "plan_filter_grouping",
    "predict_runtime",
    "quantize_shift",
    "random_sparse_filters",
    "render_network_config",
    "run_conv",
    "run_fc",
    "run_layer_batched",
    "serialize_csf",
    "stack_filters",
    "stitch_outputs",
]
