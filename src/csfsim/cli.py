"""Command line surface: encode, decode, verify, plan, macs, report.

Exit codes: 0 on success, 1 when a verification run found a mismatch,
2 on usage, config, or input-format errors, an input too large for
memory, or a number too large for a float.

Weight bank files are raw dumps: a 16-byte header of four little-endian
32-bit unsigned extents (filters, channels, kernel, kernel; the two kernel
extents must match) followed by the float32 weights in C order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import struct
import sys
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .codec import (decode_csf, deserialize_csf, encode_csf, quantize_shift,
                    serialize_csf, stack_filters)
from .dense import dense_conv, dense_fc, random_sparse_filters
from .engine import run_layer_batched
from .layers import LayerSpec, mac_count
from .netconfig import NetworkConfig, load_network_config, parse_network_config
from .perf import PerfParams, dense_trace, efficiency_per_pe, predict_runtime
from .tiling import (DivisionPlan, GroupingPlan, PlanError,
                     plan_feature_division, plan_filter_grouping)

_BANK_HEADER = struct.Struct("<IIII")


def write_weight_bank(path, bank: np.ndarray) -> None:
    """Dump a (filters, channels, k, k) float32 bank to disk.

    Every extent must be at least 1, as `read_weight_bank` requires.
    """
    arr = np.ascontiguousarray(bank, dtype="<f4")
    if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
        raise ValueError(f"bank shape {arr.shape} is not (filters, channels, k, k)")
    if min(arr.shape) < 1:
        raise ValueError(f"{path}: zero extent in header")
    with open(path, "wb") as fh:
        fh.write(_BANK_HEADER.pack(*arr.shape))
        fh.write(arr.data)


def read_weight_bank(path) -> np.ndarray:
    """Load a bank dump, header checked against payload, as a read-only view."""
    data = Path(path).read_bytes()
    if len(data) < _BANK_HEADER.size:
        raise ValueError(f"{path}: shorter than the 16-byte header")
    filters, channels, k1, k2 = _BANK_HEADER.unpack_from(data)
    if k1 != k2:
        raise ValueError(f"{path}: kernel extents {k1} and {k2} differ")
    if min(filters, channels, k1) < 1:
        raise ValueError(f"{path}: zero extent in header")
    count = filters * channels * k1 * k2
    if len(data) != _BANK_HEADER.size + 4 * count:
        raise ValueError(
            f"{path}: header promises {count} weights but payload holds "
            f"{(len(data) - _BANK_HEADER.size) // 4}"
        )
    flat = np.frombuffer(data, dtype="<f4", offset=_BANK_HEADER.size)
    return flat.reshape(filters, channels, k1, k2)


def _load_config(arg: str) -> NetworkConfig:
    """Read a config path, falling back to the bundled example configs."""
    path = Path(arg)
    if path.exists():
        return load_network_config(path)
    name = arg if arg.endswith(".cfg") else arg + ".cfg"
    if "/" not in arg and "\\" not in arg:
        bundled = resources.files("csfsim").joinpath("configs", name)
        if bundled.is_file():
            return parse_network_config(bundled.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"config {arg!r} not found")


def _print_table(headers, rows):
    """Aligned text table: first column left, the rest right-justified."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    def fmt(row):
        first = row[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        return "  ".join([first] + rest).rstrip()
    print(fmt(headers))
    for row in cells:
        print(fmt(row))


def _write_csv(headers, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def _cmd_encode(args) -> int:
    bank = read_weight_bank(args.weights)
    quantized = args.quantize_shift is not None
    if quantized:
        bank = quantize_shift(bank, *args.quantize_shift)
    stream = encode_csf(stack_filters(bank, 0, bank.shape[0]), args.profile,
                        quantized=quantized)
    payload = serialize_csf(stream)
    Path(args.output).write_bytes(payload)
    print(f"{args.output}: {stream.filters} filters, "
          f"{stream.position_count} positions, {stream.total_nnz} nonzeros, "
          f"{len(payload)} bytes")
    return 0


def _cmd_decode(args) -> int:
    stream = deserialize_csf(Path(args.stream).read_bytes())
    for key, value in (
        ("profile", stream.profile),
        ("filters", stream.filters),
        ("channels", stream.channels),
        ("kernel", stream.kernel),
        ("positions", stream.position_count),
        ("nonzeros", stream.total_nnz),
        ("quantized", "yes" if stream.quantized else "no"),
    ):
        print(f"{key:<10}{value}")
    if args.output:
        write_weight_bank(args.output, decode_csf(stream))
        print(f"wrote {args.output}")
    return 0


def _verify_input(layer: LayerSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (layer.channels, layer.height, layer.width)
    return (rng.random(shape) * 2.0 - 1.0).astype(np.float32)


def _ulp_key(value) -> int:
    """A float32's place on the number line in ULP steps; +0.0 and -0.0 are 0."""
    bits = int(np.float32(value).view(np.int32))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFF)


def _first_mismatch(expected: np.ndarray, actual: np.ndarray,
                    mismatch: np.ndarray) -> str:
    """Where the mask `mismatch` first marks two outputs, and by how much."""
    f, y, x = np.unravel_index(np.argmax(mismatch), actual.shape)
    want, got = expected[f, y, x], actual[f, y, x]
    ulps = abs(_ulp_key(want) - _ulp_key(got))
    return (f"; first mismatch at (filter {f}, y {y}, x {x}): expected "
            f"{float(want):.9g}, actual {float(got):.9g}, {ulps} ulp")


def _verify_layer(layer: LayerSpec, layer_seed: int, args) -> bool:
    """Run one layer through the engine and its oracle; prints its line.

    A function of its own so the layer's bank and outputs are freed
    before the next layer's are made.
    """
    bank = random_sparse_filters(layer, args.density, layer_seed)
    features = _verify_input(layer, layer_seed + 3571)
    if layer.kind == "conv":
        expected = dense_conv(features, bank, layer)
    else:
        expected = dense_fc(features, bank, layer)
    if args.corrupt_layer == layer.name:
        bank[0, 0, 0, 0] += 1.0
    actual, trace = run_layer_batched(bank, features, layer, args.batch_size)
    if actual.shape != expected.shape:
        print(f"{layer.name}: FAIL ({trace.macs_executed} macs; output shape "
              f"{actual.shape}, expected {expected.shape})")
        return False
    # bytes, not values: -0.0 == +0.0 would pass a sign-of-zero defect
    mismatch = actual.view(np.uint32) != expected.view(np.uint32)
    exact = not mismatch.any()
    deviation = float(np.max(np.abs(actual - expected))) if not exact else 0.0
    verdict = "PASS" if exact else "FAIL"
    where = "" if exact else _first_mismatch(expected, actual, mismatch)
    print(f"{layer.name}: {verdict} (max abs deviation {deviation:.3e}, "
          f"{trace.macs_executed} macs{where})")
    return exact


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    if not config.layers:
        raise ValueError(f"config {args.config!r} has no layers to verify")
    failures = sum(not _verify_layer(layer, args.seed + 7919 * i, args)
                   for i, layer in enumerate(config))
    print(f"{len(config.layers) - failures}/{len(config.layers)} layers passed")
    return 0 if failures == 0 else 1


def _plan_sections(config, args) -> list[tuple]:
    """Run each requested planner once per layer (shared by plan and report).

    A section is (title, columns, results): the plan's fields but `note`,
    and per layer (cells, note), cells None where the layer is infeasible.
    """
    runs = []
    if args.div_budget is not None:
        tile = None if args.budget_max else args.tile
        mode = f"tile {tile}" if tile is not None else "largest tile in budget"
        runs.append((f"feature division (output buffer budget "
                     f"{args.div_budget}, {mode})", DivisionPlan,
                     plan_feature_division, (args.div_budget, tile)))
    if args.grp_budget is not None:
        runs.append((f"filter grouping (output buffer budget {args.grp_budget})",
                     GroupingPlan, plan_filter_grouping, (args.grp_budget,)))
    sections = []
    for title, plan_type, planner, plan_args in runs:
        columns = [f.name for f in dataclasses.fields(plan_type)
                   if f.name != "note"]
        results = []
        for layer in config:
            try:
                plan = planner(layer, *plan_args)
            except PlanError as exc:
                results.append((None, f"infeasible: {exc}"))
            else:
                results.append(([getattr(plan, c) for c in columns],
                                getattr(plan, "note", None)))
        sections.append((title, columns, results))
    return sections


def _print_sections(config, sections) -> None:
    """Each section as a titled table whose totals sum the last two cells."""
    for i, (title, columns, results) in enumerate(sections):
        if i:
            print()
        print(title)
        # headers are the columns, spaced; grid_h and grid_w are one AxB cell
        grid = columns[:2] == ["grid_h", "grid_w"]
        headers = [c.replace("_", " ") for c in columns]
        if grid:
            headers[:2] = ["grid"]
        rows = []
        for layer, (cells, note) in zip(config, results):
            if cells is None:
                cells = ["-"] * len(headers)
            elif grid:
                cells = [f"{cells[0]}x{cells[1]}", *cells[2:]]
            rows.append([layer.name, *cells, note or ""])
        feasible = [cells for cells, _ in results if cells is not None]
        totals = [sum(cells[col] for cells in feasible) for col in (-2, -1)]
        rows.append(["total", *[""] * (len(headers) - 2), *totals, ""])
        _print_table(["layer", *headers, "note"], rows)


def _write_sections_csv(headers, leading, sections) -> None:
    """One row per layer: the caller's leading cells, each plan, the notes."""
    rows = []
    for i, lead in enumerate(leading):
        row, notes = list(lead), []
        for _, columns, results in sections:
            cells, note = results[i]
            row += [""] * len(columns) if cells is None else cells
            if note:
                notes.append(note)
        rows.append([*row, "; ".join(notes)])
    columns = [c for _, section_columns, _ in sections for c in section_columns]
    _write_csv([*headers, *columns, "note"], rows)


def _cmd_plan(args) -> int:
    if args.div_budget is None and args.grp_budget is None:
        raise ValueError("plan needs --div-budget and/or --grp-budget")
    config = _load_config(args.config)
    sections = _plan_sections(config, args)
    if args.csv:
        _write_sections_csv(["layer", "kind"],
                            [[layer.name, layer.kind] for layer in config],
                            sections)
    else:
        _print_sections(config, sections)
    return 0


def _cmd_macs(args) -> int:
    config = _load_config(args.config)
    headers = ["layer", "kind", "macs", "millions"]
    counts = [mac_count(layer) for layer in config]
    rows = [[layer.name, layer.kind, macs, f"{macs / 1e6:.4f}"]
            for layer, macs in zip(config, counts)]
    if args.csv:
        _write_csv(headers, rows)
        return 0
    rows.append(["total", "", sum(counts), f"{sum(counts) / 1e6:.4f}"])
    _print_table(headers, rows)
    return 0


def _cmd_report(args) -> int:
    config = _load_config(args.config)
    params = PerfParams(**{field.name: getattr(args, field.name)
                           for field in dataclasses.fields(PerfParams)})
    perf_rows = []
    for layer in config:
        trace = dense_trace(layer)
        macs_millions = trace.macs_executed / 1e6
        ms = predict_runtime(trace, params)
        eff = efficiency_per_pe(macs_millions, ms, params.efficiency_divisor)
        perf_rows.append([layer.name, layer.kind, trace.macs_executed,
                          f"{macs_millions:.4f}", f"{ms:.4f}", f"{eff:.4f}"])
    sections = _plan_sections(config, args)
    if args.csv:
        _write_sections_csv(["layer", "kind", "macs", "macs_millions",
                             "predicted_ms", "efficiency"], perf_rows, sections)
        return 0
    print(f"arithmetic and predicted timing ({params.pe_count} processing "
          f"elements at {params.clock_mhz} MHz)")
    _print_table(["layer", "kind", "macs", "millions", "predicted ms",
                  "efficiency"], perf_rows)
    print()
    _print_sections(config, sections)
    return 0


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type: an int of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


@functools.cache  # built on first use, not at import; parsing keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csfsim",
        description="Compressed sparse filter streams and the stacked-filter "
                    "streaming dataflow: encoding, simulation, planning and "
                    "reporting tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="pack a weight bank into a stream file")
    p.add_argument("weights", help="weight bank dump (16-byte header + f32)")
    p.add_argument("-o", "--output", required=True, help="stream file to write")
    p.add_argument("--profile", choices=("conv", "fc"), default="conv")
    p.add_argument("--quantize-shift", nargs=2, type=int, default=None,
                   metavar=("EXP_MIN", "EXP_MAX"),
                   help="round weights to powers of two in this exponent range")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode", help="inspect a stream file")
    p.add_argument("stream", help="stream file to read")
    p.add_argument("-o", "--output", default=None,
                   help="also write the dense bank back to this path")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("verify",
                       help="check the streaming engine against the dense "
                            "reference on every layer of a config")
    p.add_argument("config", help="network config path or bundled name")
    p.add_argument("--density", type=float, default=0.25,
                   help="nonzero weight fraction (default 0.25)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--batch-size", type=_int_at_least(1), default=64,
                   help="filters per encoded stack (default 64)")
    p.add_argument("--corrupt-layer", default=None, help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_verify)

    def add_plan_args(p):
        p.add_argument("--div-budget", type=_int_at_least(1), default=None,
                       help="output buffer budget for feature division")
        p.add_argument("--grp-budget", type=_int_at_least(1), default=None,
                       help="output buffer budget for filter grouping")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--tile", type=_int_at_least(1), default=14,
                           help="square output tile size (default 14)")
        group.add_argument("--budget-max", action="store_true",
                           help="pick the largest tile the budget allows")
        p.add_argument("--csv", action="store_true")

    p = sub.add_parser("plan", help="feature-division and filter-grouping "
                                    "tables for a config")
    p.add_argument("config", help="network config path or bundled name")
    add_plan_args(p)
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("macs", help="dense multiply-accumulate counts")
    p.add_argument("config", help="network config path or bundled name")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_macs)

    p = sub.add_parser("report", help="full analytic report: arithmetic, "
                                      "predicted timing, and both plans")
    p.add_argument("config", help="network config path or bundled name")
    add_plan_args(p)
    for field in dataclasses.fields(PerfParams):
        p.add_argument("--" + field.name.replace("_", "-"),
                       type=float if field.type == "float" else int,
                       default=field.default)
    p.set_defaults(handler=_cmd_report, div_budget=100352, grp_budget=200704)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
