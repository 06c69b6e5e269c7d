"""One benchmark run of one workload, in its own process.

``run.py`` starts this file as a child process with a hard deadline; it
is not meant to be run by hand.  The run:

1. generates the workload's inputs from ``--seed`` (not timed);
2. constructs the trainer a third of ``setup_reps`` times (the other two
   thirds follow the timed window and the checks; ``setup_s`` is the
   median of all);
3. trains ``warmup`` untimed epochs, then a closed loop of one client:
   epochs back to back, each timed alone, until ``--seconds`` have passed
   and at least ``MIN_EPOCHS`` epochs are timed;
4. checks the outputs (finite losses, a float64 probe against the serial
   reference, inproc parity of the multiproc run);
5. with ``--trace 1``, runs a traced pass of ``trace_epochs`` epochs on a
   fresh trainer (on a multiproc workload, one inproc and one on worker
   processes), checks it bit for bit against the untraced run, and
   exports its spans as a Perfetto-loadable trace.

Every epoch trained counts as attempted; a failed check fails them all.

The last line of standard output is the result object; the full record
(environment, samples, checks, every metric) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

from repro.nn import Adam, SerialGCN
from repro.obs import TraceCollector, validate_chrome_trace
from repro.obs import trace as obs_trace

from spans import LayerProbe, epoch_breakdown, layer_metrics, leftover_wrappers
from workloads import (
    WORKLOADS,
    Workload,
    build_inproc,
    build_multiproc,
    make_inputs,
    options,
    timed_setup,
)

#: timed epochs per run, so that at least ten samples lie beyond the p90
MIN_EPOCHS = 100
#: length of the stretches of the timed window whose medians make
#: ``epoch_ms_p50`` (the host changes speed on a scale of seconds)
BLOCK_S = 1.0
#: epochs of the float64 probe and of the multiproc/inproc parity probe
PROBE_EPOCHS = 3
#: the tier-1 tolerance between the distributed and the serial losses
SERIAL_TOLERANCE = 1e-9
#: untraced/traced chunk pairs of the inproc traced pass
TRACE_CHUNKS = 10
#: epochs of a run kept for the parity checks (more than any traced pass)
HISTORY = 1000
#: the epoch spans must cover at least this share of the traced chunks'
#: wall time (the rest is ``train()`` and the benchmark's own loop)
MIN_EPOCH_COVERAGE = 0.95

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: every metric's unit, as ``BENCHMARK.json`` declares it
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: the runtime layer's metrics: measured on worker processes, 0 inproc
RUNTIME = tuple(name for name in UNITS if name.startswith("runtime."))


def with_units(values: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def stats_key(e) -> tuple:
    return (e.loss, e.epoch_time, e.comm_time, e.comp_time)


class Attempts:
    """Epochs trained so far in this run.  The count goes to standard
    output about once a second, so a run killed at its deadline still
    reports how many epochs it attempted."""

    def __init__(self) -> None:
        self.count = 0
        self._reported = time.monotonic()

    def add(self, n: int) -> None:
        self.count += n
        now = time.monotonic()
        if now - self._reported >= 1.0:
            self._reported = now
            print(json.dumps({"attempted": self.count}), flush=True)


ATTEMPTS = Attempts()


def record_epochs(epochs, history: list) -> None:
    """Count the epochs and check each loss as it arrives; keep only the
    first ``HISTORY`` epochs (all the parity checks compare), so the
    benchmark's own memory does not grow with the length of the run."""
    ATTEMPTS.add(len(epochs))
    for e in epochs:
        if not math.isfinite(e.loss):
            raise CheckFailed(f"loss {e.loss} is not finite")
        if len(history) < HISTORY:
            history.append(e)


def train_epochs(trainer, epochs: int, history: list) -> float:
    """Train ``epochs`` epochs one at a time; returns the wall seconds."""
    t0 = time.perf_counter()
    for _ in range(epochs):
        record_epochs(trainer.train(1).epochs, history)
    return time.perf_counter() - t0


def timed_loop(trainer, seconds: float, history: list) -> tuple[array, float]:
    """The closed loop: each epoch starts when the previous one ends."""
    samples = array("d")
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        epochs = trainer.train(1).epochs
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        record_epochs(epochs, history)
        if len(samples) >= MIN_EPOCHS and t1 - start >= seconds:
            return samples, t1 - start


def peak_rss_mb(multiproc: bool) -> float:
    """Highest resident set of this process or, on the multiproc workload,
    of any worker it has joined (``ru_maxrss`` is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if multiproc:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def check_serial(w: Workload, seed: int) -> float:
    """A float64 probe of the workload's configuration against SerialGCN."""
    inputs = make_inputs(w, seed, dtype=np.float64)
    losses = build_inproc(w, inputs, seed, np.float64).train(PROBE_EPOCHS).losses
    serial = SerialGCN(list(w.layer_dims), seed=seed)
    opt = Adam(serial.parameters(), lr=options(w, seed).lr)
    ref = [
        serial.train_step(inputs.adjacency, inputs.features.copy(), inputs.labels,
                          inputs.train_mask, opt)
        for _ in range(PROBE_EPOCHS)
    ]
    dev = max(abs(a - b) for a, b in zip(losses, ref))
    if not dev <= SERIAL_TOLERANCE:
        raise CheckFailed(f"float64 probe deviates from SerialGCN by {dev:.3e}")
    return dev


def check_same(name: str, got: list, want: list) -> None:
    n = min(len(got), len(want))
    if n == 0:
        raise CheckFailed(f"{name}: nothing to compare")
    for i in range(n):
        if stats_key(got[i]) != stats_key(want[i]):
            raise CheckFailed(
                f"{name}: epoch {i} differs: {stats_key(got[i])} != {stats_key(want[i])}"
            )


def check_coverage(epochs: list[dict], traced: int, traced_s: float) -> None:
    """The epoch spans against an independent clock: one span per traced
    epoch, together covering most of the traced chunks' wall time (a
    missed, doubled or misplaced epoch wrapper fails this)."""
    if len(epochs) != traced:
        raise CheckFailed(f"{len(epochs)} epoch spans for {traced} traced epochs")
    covered = sum(e["duration_ns"] for e in epochs) / 1e9
    if not MIN_EPOCH_COVERAGE * traced_s <= covered <= traced_s:
        raise CheckFailed(
            f"epoch spans cover {covered:.4f} s of {traced_s:.4f} s traced wall time"
        )


def traced_inproc(w: Workload, inputs, seed: int, out_dir: Path) -> dict:
    """The traced pass: layer wrappers + the program's own tracer.

    After the warm-up, chunks of untraced and traced epochs alternate on
    one trainer, so the tracing overhead is measured against untraced
    epochs of the same minute rather than across host drift; toggling the
    tracing must leave every epoch bit for bit unchanged.
    """
    trainer = build_inproc(w, inputs, seed)
    history: list = []
    train_epochs(trainer, w.warmup, history)
    probe = LayerProbe()
    program_events: list = []
    chunk = max(1, w.trace_epochs // TRACE_CHUNKS)
    plain_s = traced_s = 0.0
    for done in range(0, w.trace_epochs, chunk):
        n = min(chunk, w.trace_epochs - done)
        plain_s += train_epochs(trainer, n, history)
        obs_trace.enable("inproc")
        try:
            with probe:
                traced_s += train_epochs(trainer, n, history)
        finally:
            program_events += obs_trace.drain()
            obs_trace.disable()
    left = leftover_wrappers()
    if left:
        raise CheckFailed(f"layer wrappers still installed: {left}")
    epochs = epoch_breakdown(probe.events)
    check_coverage(epochs, w.trace_epochs, traced_s)
    collector = TraceCollector()
    collector.add_wall("perfbench layers", probe.events)
    collector.add_wall("inproc", program_events)
    collector.write(out_dir)
    return {
        "history": history,
        "layers": {**layer_metrics(epochs), "obs.traced_over_untraced": plain_s / traced_s},
    }


def traced_multiproc(w: Workload, inputs, seed: int, out_dir: Path, untraced_eps: float) -> dict:
    """The traced pass on worker processes: the runtime's own telemetry.

    The model runs in the workers, out of reach of the layer wrappers, so
    this pass reports the runtime layer instead, read from the
    ``metrics.jsonl`` and ``events.jsonl`` that
    ``MultiprocTrainer(trace_dir=...)`` writes.  Tracing is on for the
    trainer's whole life, so the overhead is taken against the untraced
    run's ``untraced_eps``.
    """
    with build_multiproc(w, inputs, seed, trace_dir=out_dir) as trainer:
        # one command per stretch: each train() call rewrites the whole
        # merged trace, which per-epoch calls would make quadratic
        history: list = []
        record_epochs(trainer.train(w.warmup).epochs, history)
        t0 = time.perf_counter()
        record_epochs(trainer.train(w.trace_epochs).epochs, history)
        seconds = time.perf_counter() - t0
    lo, hi = w.warmup, w.warmup + w.trace_epochs
    counters: dict[str, dict[int, dict]] = {}
    for line in (out_dir / "metrics.jsonl").read_text().splitlines():
        row = json.loads(line)
        if row["process"].startswith("worker") and row["epoch"] in (lo, hi):
            counters.setdefault(row["process"], {})[row["epoch"]] = row
    if len(counters) != w.workers or any(len(v) != 2 for v in counters.values()):
        raise CheckFailed("worker metrics snapshots are missing from the trace")

    def delta(get) -> float:
        return sum(get(rows[hi]) - get(rows[lo]) for rows in counters.values())

    open_at: dict[str, float | None] = {}
    epoch_us = []
    for line in (out_dir / "events.jsonl").read_text().splitlines():
        ev = json.loads(line)
        if ev["name"] != "worker.epoch":
            continue
        if ev["ph"] == "B":
            open_at[ev["process"]] = ev["ts_us"] if ev["args"]["epoch"] >= lo else None
        elif open_at.get(ev["process"]) is not None:
            epoch_us.append(ev["ts_us"] - open_at.pop(ev["process"]))
    layers = {
        "runtime.frames_sent": delta(lambda r: r["counters"]["frames_sent"]) / w.trace_epochs,
        "runtime.bytes_sent_mb": delta(lambda r: r["counters"]["bytes_sent"])
        / w.trace_epochs / 1e6,
        "runtime.barrier_wait_ms": delta(lambda r: r["hists"]["barrier_wait_s"]["sum"])
        / w.workers / w.trace_epochs * 1e3,
        "runtime.worker_epoch_ms": statistics.fmean(epoch_us) / 1e3,
        "obs.traced_over_untraced": w.trace_epochs / seconds / untraced_eps,
    }
    return {"history": history, "layers": layers}


def traced_pass(w: Workload, inputs, seed: int, out_dir: Path, untraced_eps: float) -> dict:
    """The per-layer metrics of a workload; ``histories`` holds the epochs
    of each traced trainer, for the caller to check bit for bit.

    The model layers are always measured inproc.  On worker processes the
    model is out of the wrappers' reach, so there the same spec is also
    traced inproc for the model layers, and the workers' own telemetry
    (under ``out_dir / "workers"``) gives the runtime layer and the
    tracing overhead.  Inproc the runtime layer is absent and reads 0.
    """
    inproc = traced_inproc(w, inputs, seed, out_dir)
    if not w.workers:
        return {"histories": [inproc["history"]],
                "layers": {**inproc["layers"], **dict.fromkeys(RUNTIME, 0.0)}}
    workers = out_dir / "workers"
    workers.mkdir()
    multiproc = traced_multiproc(w, inputs, seed, workers, untraced_eps)
    problems = validate_chrome_trace(workers / "trace.json")
    if problems:
        raise CheckFailed(f"exported worker trace is invalid: {problems[:3]}")
    return {"histories": [inproc["history"], multiproc["history"]],
            "layers": {**inproc["layers"], **multiproc["layers"]}}


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded (a
    wheel bundles it in ``numpy.libs``)."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "lib*openblas*.so*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
    }


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def block_median_ms(samples) -> float:
    """The median epoch time of each consecutive ``BLOCK_S`` stretch of
    the timed window, averaged with the stretches' lengths as weights.

    Each stretch's median is the epoch time of the host's speed in that
    stretch; the average weighs the speeds by the time spent at each.
    The median of the whole window would instead jump from one speed to
    the other as the slow share of the run crosses one half.
    """
    total = weighted = elapsed = 0.0
    start = 0
    for i, s in enumerate(samples):
        elapsed += s
        if elapsed >= BLOCK_S or i == len(samples) - 1:
            weighted += statistics.median(samples[start:i + 1]) * elapsed
            total += elapsed
            start, elapsed = i + 1, 0.0
    return weighted / total * 1e3


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path, record: dict) -> None:
    """Measure and check one run, filling ``record`` as it goes."""
    inputs = make_inputs(w, seed)
    group = w.setup_reps // 3
    trainer, setup_times = timed_setup(w, inputs, seed, group)
    history: list = []
    try:
        train_epochs(trainer, w.warmup, history)
        samples, window = timed_loop(trainer, seconds, history)
    finally:
        if w.workers:
            trainer.close()
    rss = peak_rss_mb(bool(w.workers))
    setup_times += timed_setup(w, inputs, seed, group, keep=False)[1]

    record["checks"]["finite_losses"] = w.warmup + len(samples)
    record["checks"]["serial_max_dev"] = check_serial(w, seed)
    if w.workers:
        inproc: list = []
        train_epochs(build_inproc(w, inputs, seed), w.warmup + PROBE_EPOCHS, inproc)
        check_same("multiproc vs inproc", history, inproc)
        record["checks"]["multiproc_parity_epochs"] = len(inproc)
    setup_times += timed_setup(w, inputs, seed, w.setup_reps - 2 * group, keep=False)[1]
    end_to_end = {
        "epochs_per_sec": len(samples) / window,
        "epoch_ms_p50": block_median_ms(samples),
        "epoch_ms_p90": percentile_ms(samples, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    record.update(
        samples=len(samples), setup_samples=len(setup_times), end_to_end=with_units(end_to_end)
    )

    if trace:
        traced = traced_pass(w, inputs, seed, out_dir, end_to_end["epochs_per_sec"])
        for traced_history in traced["histories"]:
            check_same("traced vs untraced", traced_history, history)
        problems = validate_chrome_trace(out_dir / "trace.json")
        if problems:
            raise CheckFailed(f"exported trace is invalid: {problems[:3]}")
        timed = traced["histories"][0][w.warmup:]
        per_layer = {
            **traced["layers"],
            "dist.cluster.sim_epoch_ms": statistics.fmean(e.epoch_time for e in timed) * 1e3,
            "dist.cluster.sim_comm_ms": statistics.fmean(e.comm_time for e in timed) * 1e3,
        }
        record["per_layer"] = with_units(per_layer)
        record["checks"]["traced_parity_epochs"] = [len(h) for h in traced["histories"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    # one trace directory per workload: each traced run replaces the last
    trace_dir = args.out.parent / f"{w.name}-trace"
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    record: dict = {"workload": w.name, "environment": environment(args.seed), "checks": {}}
    try:
        run(w, args.seed, args.seconds, bool(args.trace), trace_dir, record)
        record["correct"] = True
    except CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        record.update(correct=False, error=str(err))
    except Exception as err:  # the program failed: report the run as failed
        traceback.print_exc()
        record.update(correct=False, error=f"{type(err).__name__}: {err}")
    record["attempted"] = ATTEMPTS.count
    args.out.write_text(json.dumps(record, indent=2, default=str))
    print(json.dumps(record, default=str))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
