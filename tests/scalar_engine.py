"""The engine's scalar reference: one instruction, one multiply at a time.

`EngineContext.simd3d_step` is the literal instruction-level walk that
`csfsim.engine` describes. `tests/test_engine.py` and
`tests/test_engine_properties.py` compare `run_conv`'s output bytes and
counters against it; it tallies every load as it happens, where
`run_conv` prices its counters with `stack_trace`.
"""

import numpy as np

from csfsim import CsfStream, LayerSpec, TraceCounters, output_shape
from csfsim.dense import as_f32, pad_channels


class EngineContext:
    """Scalar instruction-at-a-time execution over one conv stream."""

    def __init__(self, layer: LayerSpec, stream: CsfStream, features):
        if layer.kind != "conv" or stream.profile != "conv":
            raise ValueError("instruction stepping needs a conv layer and "
                             "a conv stream")
        if (stream.channels, stream.kernel) != (layer.channels, layer.kernel):
            raise ValueError(
                f"stream {stream.channels}x{stream.kernel} does not match "
                f"layer {layer.channels}x{layer.kernel}"
            )
        x = as_f32(features, (layer.channels, layer.height, layer.width))
        self.padded = pad_channels(x, layer.pad)
        self.out_w, self.out_h = output_shape(layer)
        self.layer = layer
        self.stream = stream
        self.global_buffer = np.zeros((stream.filters, self.out_h, self.out_w),
                                      np.float32)
        self.counters = TraceCounters()

    def simd3d_step(self, chi: int, y: int, x: int) -> np.ndarray:
        """Run one instruction: window (y, x) of channel chi, all filters."""
        k, stride = self.layer.kernel, self.layer.stride
        s = self.stream
        registers = np.zeros(s.filters, np.float32)
        c = self.counters
        for r in range(k):
            for col in range(k):
                value = self.padded[chi, y * stride + r, x * stride + col]
                c.feature_loads += 1
                c.pointer_loads += 1
                p = (chi * k + r) * k + col
                for i in range(s.offsets[p], s.offsets[p + 1]):
                    registers[s.indices[i]] += s.weights[i] * value
                    c.macs_executed += 1
                    c.weight_loads += 1
                    c.index_loads += 1
        self.global_buffer[:, y, x] += registers
        c.simd_instructions += 1
        return registers.copy()

    def run(self) -> np.ndarray:
        """Issue every instruction of the layer; returns the output buffer."""
        for chi in range(self.layer.channels):
            for y in range(self.out_h):
                for x in range(self.out_w):
                    self.simd3d_step(chi, y, x)
        return self.global_buffer
