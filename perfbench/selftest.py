"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the layer wrappers are fully uninstalled after a traced pass,
that the epoch spans account for the traced epochs' wall time, that
``epoch_ms_p50`` weighs the host's speeds by the time spent at each, that
the counts of the traced pass repeat exactly across two runs of one seed,
and that the runner refuses to report a result where there is no program
to measure.
The file is not named ``test_*.py``: the repository's test suite does not
collect it.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"

#: per-layer metrics that are counts or simulated times, so repeat exactly
EXACT_SUFFIXES = ("_calls", "_gflop", "_mb", "runtime.frames_sent")


def _setup():
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import spans
    import workloads

    return measure, spans, workloads


def test_wrappers_uninstalled():
    measure, spans, workloads = _setup()
    originals = [
        (owner, attr, owner.__dict__[attr])
        for _, owner, attr, _ in spans.LAYER_TARGETS
        if owner is not None
    ]
    w = dataclasses.replace(workloads.WORKLOADS["ragged-blocked"], warmup=1, trace_epochs=2)
    with spans.LayerProbe():
        if not spans.leftover_wrappers():
            raise AssertionError("probe installed no wrappers")
    out = OUT / "uninstall"
    out.mkdir(parents=True, exist_ok=True)
    traced = measure.traced_inproc(w, workloads.make_inputs(w, 0), 0, out)
    if not traced["layers"]["core.batch.gemm_calls"]:
        raise AssertionError("the traced pass recorded no spans")
    left = spans.leftover_wrappers()
    if left:
        raise AssertionError(f"wrappers left after the traced pass: {left}")
    for owner, attr, original in originals:
        if owner.__dict__[attr] is not original:
            raise AssertionError(f"{owner.__name__}.{attr} not restored")


def test_epoch_spans_cover_wall_time():
    measure, spans, workloads = _setup()
    for name in ("small-eager", "ragged-blocked"):
        w = dataclasses.replace(workloads.WORKLOADS[name], warmup=1, trace_epochs=20)
        out = OUT / f"cover-{name}"
        out.mkdir(parents=True, exist_ok=True)
        # traced_inproc raises CheckFailed unless the spans cover the time
        measure.traced_inproc(w, workloads.make_inputs(w, 0), 0, out)
        trainer = workloads.build_inproc(w, workloads.make_inputs(w, 0), 0)
        with spans.LayerProbe() as probe:
            trainer.train(2)
        epochs = spans.epoch_breakdown(probe.events)
        if any(len(e["spans"]) < 10 for e in epochs):
            raise AssertionError(f"{name}: only {sorted(epochs[0]['spans'])} recorded")
    # the check itself: a missing epoch span or uncovered time fails it
    epoch = {"duration_ns": 10**9, "spans": {}}
    for epochs, n, seconds in (([epoch], 2, 1.0), ([epoch], 1, 1.2), ([epoch], 1, 0.9)):
        try:
            measure.check_coverage(epochs, n, seconds)
        except measure.CheckFailed:
            continue
        raise AssertionError(f"coverage check passed {len(epochs)} spans / {n} epochs "
                             f"over {seconds} s")


def test_block_median():
    measure, _, _ = _setup()
    steady = [0.002, 0.001, 0.003] * 400
    if abs(measure.block_median_ms(steady) - 2.0) > 1e-9:
        raise AssertionError("one speed: not the median of the samples")
    # 40% of the time slow: the whole window's median would read 1 ms
    mixed = [0.001] * 3000 + [0.002] * 1000
    got = measure.block_median_ms(mixed)
    if abs(got - 1.4) > 0.05:
        raise AssertionError(f"two speeds, 60/40 of the time: {got} ms, not 1.4 ms")


def _exact(per_layer: dict) -> dict:
    return {
        k: v for k, v in per_layer.items()
        if k.endswith(EXACT_SUFFIXES) or k.startswith("dist.cluster.sim_")
    }


def test_counts_repeat():
    measure, spans, workloads = _setup()
    for name in workloads.WORKLOADS:
        w = dataclasses.replace(workloads.WORKLOADS[name], warmup=2, trace_epochs=4)
        inputs = workloads.make_inputs(w, 7)
        passes = []
        for i in range(2):
            out = OUT / f"{name}-{i}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            traced = measure.traced_pass(w, inputs, 7, out, untraced_eps=1.0)
            timed = traced["histories"][0][w.warmup:]
            passes.append(_exact({
                **traced["layers"],
                "dist.cluster.sim_epoch_ms": sum(e.epoch_time for e in timed),
                "dist.cluster.sim_comm_ms": sum(e.comm_time for e in timed),
            }))
        if passes[0] != passes[1]:
            diff = {k: (passes[0][k], passes[1][k]) for k in passes[0]
                    if passes[0][k] != passes[1][k]}
            raise AssertionError(f"{name}: counts differ between runs: {diff}")
        if not any(passes[0].values()):
            raise AssertionError(f"{name}: every count is zero")


def test_refuses_without_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    shutil.copy(HERE / "README.md", bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-eager", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"runner reported {proc.stdout!r} with no program present")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
