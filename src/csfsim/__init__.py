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

from .codec import (CsfFormatError, CsfStream, decode_csf, deserialize_csf,
                    encode_csf, quantize_shift, serialize_csf, stack_filters)
from .dense import dense_conv, dense_fc, random_sparse_filters
from .engine import (TraceCounters, run_conv, run_fc, run_layer_batched,
                     stack_trace)
from .layers import LayerSpec, mac_count, output_shape
from .netconfig import (ConfigError, NetworkConfig, load_network_config,
                        parse_network_config, render_network_config)
from .perf import PerfParams, dense_trace, efficiency_per_pe, predict_runtime
from .tiling import PlanError, plan_feature_division, plan_filter_grouping

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CsfFormatError",
    "CsfStream",
    "LayerSpec",
    "NetworkConfig",
    "PerfParams",
    "PlanError",
    "TraceCounters",
    "decode_csf",
    "dense_conv",
    "dense_fc",
    "dense_trace",
    "deserialize_csf",
    "efficiency_per_pe",
    "encode_csf",
    "load_network_config",
    "mac_count",
    "output_shape",
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
    "stack_trace",
]
