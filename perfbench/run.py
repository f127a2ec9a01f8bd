"""csfsim benchmark: host time, memory and modelled accelerator time.

Run from the repository root:

    python3 perfbench/run.py --workload verify-alexnet-d50 --seed 1 \
        --seconds 20 --trace 0

The package is imported from ./src, in this one process and thread. Each
workload drives csfsim only through its command line entry point,
`csfsim.cli.main`, repeating one pass until --seconds of host time have
gone by (at least one pass). Times are reported scaled to a reference host
speed (see perfbench/hostspeed.py); host seconds are printed beside them.
Every pass is checked for correctness; `failed` and `attempted` in the
result count failed and made checks.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced passes
for --seconds, then traced passes for --seconds, and prints the per-layer
metrics; the spans are written to .perfbench_out/. The last line of
standard output is the JSON result. See perfbench/NOTES.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Reference, ScaledClock
from spans import Tracer, patched

ROOT = Path.cwd()
SRC = ROOT / "src"
if not (SRC / "csfsim" / "__init__.py").is_file():
    sys.exit("perfbench: no src/csfsim under the current directory; "
             "run from the repository root")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import csfsim  # noqa: E402
from csfsim import cli, engine, perf  # noqa: E402
from csfsim.codec import HEADER_LEN  # noqa: E402
from csfsim.layers import mac_count, output_shape  # noqa: E402
from csfsim.netconfig import (NetworkConfig, load_network_config,  # noqa: E402
                              render_network_config)

if not Path(csfsim.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: csfsim imported from {csfsim.__file__}, not {SRC}")

# name -> (kind, bundled network, layers used or None for all, density)
WORKLOADS = {
    # the first layer of each of VGG16's five blocks: one pass of all 13
    # layers takes about 40 s, too long to repeat within a run
    "verify-vgg16-blocks-d10": ("verify", "vgg16",
                                ("CONV1-1", "CONV2-1", "CONV3-1", "CONV4-1",
                                 "CONV5-1"), 0.1),
    "verify-alexnet-d50": ("verify", "alexnet", None, 0.5),
    "codec-vgg16-d10": ("codec", "vgg16", None, 0.1),
    # tiny inputs for perfbench/selftest.py
    "verify-lenet-d20": ("verify", "lenet", None, 0.2),
    "codec-lenet-d20": ("codec", "lenet", None, 0.2),
}
BATCH = 64
SETUP_REPEATS = 11
WORK = ROOT / ".perfbench_work" / str(os.getpid())
OUT = ROOT / ".perfbench_out"

# (module, attribute) pairs the traced pass wraps in spans. The CLI and
# the engine look these up as module globals at call time.
TRACED = [(cli, name) for name in (
    "random_sparse_filters", "dense_conv", "dense_fc", "run_layer_batched",
    "read_weight_bank", "write_weight_bank", "stack_filters", "encode_csf",
    "serialize_csf", "deserialize_csf", "decode_csf")] + \
    [(engine, name) for name in (
        "stack_filters", "encode_csf", "run_conv", "run_fc")]

COUNTERS = ("macs_executed", "weight_loads", "index_loads", "feature_loads",
            "pointer_loads", "simd_instructions")


def bundled_config(net) -> Path:
    return SRC / "csfsim" / "configs" / f"{net}.cfg"


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('csfsim.')}.{fn.__name__}"


class Checks:
    """Correctness checks made and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_cli(argv, tracer):
    """One csfsim command in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = cli.main(argv)
    return code, out.getvalue()


def traced_replacements(tracer):
    if tracer is None:
        return {}
    return {(mod, name): tracer.wrap(getattr(mod, name),
                                     span_name(getattr(mod, name)))
            for mod, name in TRACED}


def sum_traces(pairs):
    """Summed counters, and modelled ms (sparse, dense) over CNN layers."""
    params = perf.PerfParams()
    total = engine.TraceCounters()
    sparse_ms = dense_ms = 0.0
    for layer, trace in pairs:
        total += trace
        if layer.kind != "conv":
            continue
        sparse_ms += perf.predict_runtime(trace, params)
        dense_ms += perf.predict_runtime(perf.dense_trace(layer), params)
    return total, sparse_ms, dense_ms


def rate(amount, per):
    return amount / per if per > 0 else 0.0


def windows(layer) -> int:
    out_w, out_h = output_shape(layer)
    return out_w * out_h


def positions(layer) -> int:
    if layer.kind == "conv":
        return layer.channels * layer.kernel ** 2
    return layer.channels * layer.height * layer.width


def expected_counters(layer, nnz, batch):
    """Engine counters for `nnz` nonzeros run in stacks of `batch`."""
    stacks = -(-layer.filters // batch)
    w = windows(layer)
    streams = positions(layer) * w
    instructions = layer.channels * w if layer.kind == "conv" else streams
    return {"macs_executed": nnz * w, "weight_loads": nnz * w,
            "index_loads": nnz * w, "feature_loads": stacks * streams,
            "pointer_loads": stacks * streams,
            "simd_instructions": stacks * instructions}


class VerifyWorkload:
    """`csfsim verify CONFIG --density D --batch-size 64 --seed S`."""

    def __init__(self, net, names, density, seed, extra_argv=()):
        config = load_network_config(bundled_config(net))
        if names is not None:
            config = NetworkConfig(tuple(layer for layer in config
                                         if layer.name in names))
            net = str(WORK / f"{net}-subset.cfg")
            WORK.mkdir(parents=True, exist_ok=True)
            Path(net).write_text(render_network_config(config))
        self.config = config
        self.argv = ["verify", net, "--density", str(density),
                     "--batch-size", str(BATCH), "--seed", str(seed),
                     *extra_argv]

    def run_pass(self, checks, clock, tracer=None):
        """One verify pass, timed on `clock`; returns its summary."""
        state = {}
        traces = []
        rsf, oracle_conv, oracle_fc, batched = (
            cli.random_sparse_filters, cli.dense_conv, cli.dense_fc,
            cli.run_layer_batched)
        reps = traced_replacements(tracer)
        rsf = reps.get((cli, "random_sparse_filters"), rsf)
        oracle_conv = reps.get((cli, "dense_conv"), oracle_conv)
        oracle_fc = reps.get((cli, "dense_fc"), oracle_fc)
        batched = reps.get((cli, "run_layer_batched"), batched)

        def on_bank(layer, density, seed):
            clock.cut()
            if tracer is not None:
                tracer.layer = layer.name
            state["bank"] = rsf(layer, density, seed)
            return state["bank"]

        def on_oracle(oracle):
            def hook(features, weights, layer):
                clock.cut()
                state["expected"] = oracle(features, weights, layer)
                return state["expected"]
            return hook

        def on_run(weights, features, layer, batch_size):
            clock.cut()
            actual, trace = batched(weights, features, layer, batch_size)
            with clock.paused():
                expected = state.pop("expected")
                checks.check(actual.shape == expected.shape
                             and np.array_equal(actual, expected),
                             f"{layer.name}: engine output differs from "
                             "the oracle")
                want = expected_counters(
                    layer, int(np.count_nonzero(state.pop("bank"))),
                    batch_size)
                got = {name: getattr(trace, name) for name in COUNTERS}
                checks.check(got == want,
                             f"{layer.name}: counters {got} expected {want}")
                traces.append((layer, trace))
            return actual, trace

        reps.update({(cli, "random_sparse_filters"): on_bank,
                     (cli, "dense_conv"): on_oracle(oracle_conv),
                     (cli, "dense_fc"): on_oracle(oracle_fc),
                     (cli, "run_layer_batched"): on_run})
        with patched(reps):
            clock.start()
            code, _ = run_cli(self.argv, tracer)
            clock.stop()
        checks.check(code == 0, f"verify exited with code {code}")
        checks.check(len(traces) == len(self.config.layers),
                     f"{len(traces)} of {len(self.config.layers)} layers ran")
        total, sparse_ms, dense_ms = sum_traces(traces)
        nnz = sum(t.macs_executed // windows(layer) for layer, t in traces)
        stacks = [-(-layer.filters // BATCH) for layer, _ in traces]
        summary = {
            "sim_macs": total.macs_executed,
            "model_pred_ms": sparse_ms,
            "model_dense_ms": dense_ms,
            "dense_macs": sum(mac_count(layer) for layer, _ in traces
                              if layer.kind == "conv"),
            "nnz": nnz,
            "stream_bytes": 6 * nnz + sum(
                s * (HEADER_LEN + 2 * positions(layer))
                for s, (layer, _) in zip(stacks, traces)),
            "counters": {name: getattr(total, name) for name in COUNTERS},
        }
        return summary


def write_banks(net, density, seed, directory):
    """Bank dumps for a net's CNN layers, seeded like `csfsim verify`."""
    config = load_network_config(bundled_config(net))
    directory.mkdir(parents=True, exist_ok=True)
    for i, layer in enumerate(config):
        if layer.kind == "conv":
            bank = csfsim.random_sparse_filters(layer, density,
                                                seed + 7919 * i)
            cli.write_weight_bank(directory / f"{i}.bank", bank)


def read_bank(path):
    data = Path(path).read_bytes()
    shape = np.frombuffer(data, "<u4", 4)
    return np.frombuffer(data, "<f4", offset=16).reshape(shape)


class CodecWorkload:
    """`csfsim encode` then `csfsim decode -o` on each CNN layer's bank."""

    def __init__(self, net, density, seed):
        config = load_network_config(bundled_config(net))
        self.layers = [(i, layer) for i, layer in enumerate(config)
                       if layer.kind == "conv"]
        # a child process writes the banks, so generating them leaves no
        # trace in this process's peak memory
        subprocess.run([sys.executable, __file__, "--write-banks", net,
                        str(density), str(seed), str(WORK)], check=True)
        self.first = {}  # layer index -> (.csf bytes, decoded bank bytes)

    def run_pass(self, checks, clock, tracer=None):
        """One codec pass, timed on `clock`; returns its summary."""
        params = perf.PerfParams()
        summary = {"sim_macs": 0, "model_pred_ms": 0.0, "model_dense_ms": 0.0,
                   "dense_macs": 0, "nnz": 0, "stream_bytes": 0,
                   "counters": dict.fromkeys(COUNTERS, 0)}
        reps = traced_replacements(tracer)
        clock.start()
        for i, layer in self.layers:
            bank_path = WORK / f"{i}.bank"
            csf_path = WORK / f"{i}.csf"
            back_path = WORK / f"{i}.back.bank"
            if tracer is not None:
                tracer.layer = layer.name
            with patched(reps):
                enc_code, _ = run_cli(["encode", str(bank_path),
                                       "-o", str(csf_path)], tracer)
            clock.cut()
            with patched(reps):
                dec_code, dec_out = run_cli(["decode", str(csf_path),
                                             "-o", str(back_path)], tracer)
            with clock.paused():
                self.check_layer(checks, i, layer, enc_code, dec_code,
                                 dec_out, summary, params)
        clock.stop()
        return summary

    def check_layer(self, checks, i, layer, enc_code, dec_code, dec_out,
                    summary, params):
        """Checks one layer's roundtrip and adds the layer to the summary."""
        checks.check(enc_code == 0,
                     f"{layer.name}: encode exited with {enc_code}")
        checks.check(dec_code == 0,
                     f"{layer.name}: decode exited with {dec_code}")
        if enc_code or dec_code:
            return
        original = read_bank(WORK / f"{i}.bank")
        nnz = int(np.count_nonzero(original))
        payload = (WORK / f"{i}.csf").read_bytes()
        back_path = WORK / f"{i}.back.bank"
        decoded_bytes = back_path.read_bytes()
        checks.check(len(payload) == HEADER_LEN + 2 * positions(layer)
                     + 6 * nnz,
                     f"{layer.name}: stream is {len(payload)} bytes")
        checks.check(f"nonzeros  {nnz}\n" in dec_out,
                     f"{layer.name}: decode did not report {nnz} nonzeros")
        decoded = read_bank(back_path)
        # by value: dropped weights are -0.0 in the bank, +0.0 once decoded
        checks.check(decoded.shape == original.shape
                     and np.array_equal(decoded, original),
                     f"{layer.name}: decoded bank differs from the original")
        if i not in self.first:
            again = WORK / f"{i}.again.csf"
            code, _ = run_cli(["encode", str(back_path), "-o", str(again)],
                              None)
            checks.check(code == 0 and again.read_bytes() == payload,
                         f"{layer.name}: re-encoding the decoded bank "
                         "changed the stream")
            self.first[i] = (payload, decoded_bytes)
        else:
            checks.check(self.first[i] == (payload, decoded_bytes),
                         f"{layer.name}: pass output differs from pass 1")
        # `csfsim encode` packs every filter of the bank in one stack
        trace = engine.TraceCounters(
            **expected_counters(layer, nnz, layer.filters))
        summary["nnz"] += nnz
        summary["stream_bytes"] += len(payload)
        summary["sim_macs"] += trace.macs_executed
        summary["model_pred_ms"] += perf.predict_runtime(trace, params)
        summary["model_dense_ms"] += perf.predict_runtime(
            perf.dense_trace(layer), params)


def measure_setup(net, reference):
    """Seconds from a fresh interpreter to csfsim and config loaded.

    Returns (median scaled to the reference speed, median host seconds).
    """
    code = ("import sys, time\n"
            "import csfsim.cli\n"
            "from csfsim.netconfig import load_network_config\n"
            "load_network_config(sys.argv[1])\n"
            "print(time.monotonic())\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        clock = ScaledClock(reference)
        clock.start()
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code,
                               str(bundled_config(net))], env=env,
                              check=True, capture_output=True, text=True)
        ready = float(done.stdout.split()[-1]) - start
        clock.stop()
        raw.append(ready)
        scaled.append(ready * clock.scaled / clock.raw)
    return statistics.median(scaled), statistics.median(raw)


def run_passes(workload, checks, seconds, reference, tracing):
    """Passes until their host seconds add up to `seconds`.

    Returns [(scaled seconds, host seconds, summary, tracer)].
    """
    results = []
    while sum(raw for _, raw, _, _ in results) < seconds:
        tracer = Tracer() if tracing else None
        clock = ScaledClock(reference, tracer)
        summary = workload.run_pass(checks, clock, tracer)
        if not results:
            summary["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        results.append((clock.scaled, clock.raw, summary, tracer))
        print(f"pass {len(results)}{' traced' if tracing else ''}: "
              f"{clock.raw:.3f} host s, {clock.scaled:.3f} scaled s, "
              f"reference {statistics.median(clock.samples) * 1e3:.3f} ms",
              flush=True)
    return results


def layer_metrics(tracer, summary, scale):
    """Per-layer metrics of one traced pass, and csfsim's summed self time.

    Times are scaled to the reference speed by `scale`, the pass's scaled
    over host seconds; the summed self time stays in host seconds.
    """
    spans = tracer.by_name()

    def sec(name):
        return spans.get(name, (0.0, 0))[0] * scale

    counters = summary["counters"]
    values = {
        "dense.dense_conv_s": (sec("dense.dense_conv"), "s"),
        "dense.macs_per_s": (rate(summary["dense_macs"],
                                  sec("dense.dense_conv")), "1/s"),
        "dense.random_sparse_filters_s":
            (sec("dense.random_sparse_filters"), "s"),
        "codec.encode_csf_s": (sec("codec.encode_csf"), "s"),
        "codec.stack_filters_s": (sec("codec.stack_filters"), "s"),
        "codec.encode_nnz_per_s": (rate(summary["nnz"],
                                        sec("codec.encode_csf")), "1/s"),
        "codec.serialize_csf_s": (sec("codec.serialize_csf"), "s"),
        "codec.deserialize_csf_s": (sec("codec.deserialize_csf"), "s"),
        "codec.decode_csf_s": (sec("codec.decode_csf"), "s"),
        "codec.deserialize_mb_per_s": (
            rate(summary["stream_bytes"] / 1e6,
                 sec("codec.deserialize_csf")), "MB/s"),
        "cli.read_weight_bank_s": (sec("cli.read_weight_bank"), "s"),
        "cli.write_weight_bank_s": (sec("cli.write_weight_bank"), "s"),
        "cli.self_s": (sec("cli.main"), "s"),
        "engine.run_conv_s": (sec("engine.run_conv"), "s"),
        "engine.run_layer_batched_self_s":
            (sec("engine.run_layer_batched"), "s"),
        "engine.macs_per_s": (rate(counters["macs_executed"],
                                   sec("engine.run_conv")), "1/s"),
        "codec.nnz": (summary["nnz"], "count"),
        "codec.stream_bytes": (summary["stream_bytes"], "count"),
        **{f"engine.{name}": (counters[name], "count") for name in COUNTERS},
        "engine.stacks": (spans.get("engine.run_conv", (0, 0))[1]
                          + spans.get("engine.run_fc", (0, 0))[1], "count"),
    }
    total_self = sum(s for name, (s, _) in spans.items()
                     if name != "perfbench")
    return values, total_self


def breakdown_rows(tracer):
    """Stage self seconds by CNN layer, as printable rows."""
    cells = {}
    for (name, layer), seconds in tracer.self_seconds().items():
        cells.setdefault(layer, {})[name] = seconds
    names = sorted({name for row in cells.values() for name in row})
    rows = [[layer or "(pass)"] + [f"{row.get(n, 0.0):.4f}" for n in names]
            for layer, row in cells.items()]
    return ["layer"] + names, rows


def machine_facts(seed):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None
    cgroup = Path("/sys/fs/cgroup")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        # cgroup v2 files, else the v1 ones
        "cgroup_cpu_max": read(cgroup / "cpu.max") or " ".join(
            str(read(cgroup / "cpu" / f)) for f in
            ("cpu.cfs_quota_us", "cpu.cfs_period_us")),
        "cgroup_memory_max": read(cgroup / "memory.max") or read(
            cgroup / "memory" / "memory.limit_in_bytes"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def result_line(checks, metrics):
    return json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-layer", default=None,
                        help="passed to verify; for the self-test")
    parser.add_argument("--write-banks", nargs=4, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_banks:
        net, density, seed, directory = args.write_banks
        write_banks(net, float(density), int(seed), Path(directory))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    kind, net, names, density = WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    print(f"perfbench {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(facts), flush=True)

    reference = Reference()
    setup = None if args.trace else measure_setup(net, reference)
    if setup:
        print(f"setup_s {setup[0]:.4f} (median of {SETUP_REPEATS}, scaled to "
              f"the reference speed; host seconds median {setup[1]:.4f})")
    extra = (["--corrupt-layer", args.corrupt_layer] if args.corrupt_layer
             else [])
    checks = Checks()
    try:
        if kind == "verify":
            workload = VerifyWorkload(net, names, density, args.seed, extra)
        else:
            workload = CodecWorkload(net, density, args.seed)
        plain = run_passes(workload, checks, args.seconds, reference, False)
        wall_s = statistics.median(scaled for scaled, _, _, _ in plain)
        summary = plain[0][2]
        print(f"wall_s {wall_s:.4f} (median of {len(plain)} passes, scaled "
              f"to the reference speed; host seconds median "
              f"{statistics.median(raw for _, raw, _, _ in plain):.4f})")
        if args.trace:
            traced = run_passes(workload, checks, args.seconds, reference,
                                True)
            ordered = sorted(traced, key=lambda t: t[0])
            scaled, raw, traced_summary, tracer = ordered[
                (len(ordered) - 1) // 2]
            traced_wall = statistics.median(t[0] for t in traced)
            metrics, self_sum = layer_metrics(tracer, traced_summary,
                                              scaled / raw)
            metrics["tracing_overhead_s"] = (traced_wall - wall_s, "s")
            print(f"accounting (median traced pass): {raw:.4f} host s, "
                  f"csfsim self times sum {self_sum:.4f} host s; scaled "
                  f"traced median {traced_wall:.4f} s, untraced median "
                  f"{wall_s:.4f} s, tracing overhead "
                  f"{traced_wall - wall_s:.4f} s")
            headers, rows = breakdown_rows(tracer)
            print("self host seconds by CNN layer (median traced pass)")
            first = max(len(row[0]) for row in [headers] + rows)
            for row in [headers] + rows:
                print("  ".join([row[0].ljust(first)] + [
                    c.rjust(len(h)) for c, h in zip(row[1:], headers[1:])]))
            OUT.mkdir(exist_ok=True)
            dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            dump.write_text(json.dumps({
                "machine": facts, "workload": args.workload,
                "untraced_passes": [{"scaled_s": w, "host_s": r}
                                    for w, r, _, _ in plain],
                "traced_passes": [{"scaled_s": w, "host_s": r}
                                  for w, r, _, _ in traced],
                "metrics": metrics,
                "breakdown": {"headers": headers, "rows": rows},
                "spans": [t.spans for _, _, _, t in traced],
            }))
            print(f"spans written to {dump.relative_to(ROOT)}")
        else:
            metrics = {
                "wall_s": (wall_s, "s"),
                "sim_macs_per_s": (summary["sim_macs"] / wall_s, "1/s"),
                "setup_s": (setup[0], "s"),
                "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
                "model_pred_ms": (summary["model_pred_ms"], "ms"),
                "model_speedup": (rate(summary["model_dense_ms"],
                                       summary["model_pred_ms"]), "x"),
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    fail_frac = len(checks.failures) / checks.attempted
    print(f"fail_frac {fail_frac} ({len(checks.failures)} of "
          f"{checks.attempted} checks failed)")
    for what in checks.failures[:20]:
        print(f"FAILED: {what}")
    print(result_line(checks, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
