"""Benchmark entry point: end-to-end and per-layer metrics of the trainer.

One workload::

    python3 perfbench/run.py --workload small-eager --seed 1 --seconds 10 --trace 0

runs it once and prints, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``.  Without ``--workload`` every workload of
``BENCHMARK.json`` runs, untraced and traced, and a table of every metric
is printed (see README.md).

Each run executes ``measure.py`` in a fresh child process (its own
session, so worker processes share its process group) under a hard
deadline.  The child's environment drops the BLAS/OpenMP thread pins, so
the program's own thread policy is what gets measured.  An overrun child
is killed with its workers, counted as failed (every epoch it reported
as attempted), and ``/dev/shm`` is swept with
``repro.runtime.cleanup_orphans``.  The full record of each run
(environment, samples, checks) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: thread pins removed from every child's environment (never set)
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: a run must end within 180 s; the child gets this long before it is killed
DEADLINE_S = 165.0
#: how long processes left in a finished child's session may take to exit
REAP_S = 5.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_PINS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def session_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def wait_session(pgid: int, seconds: float) -> bool:
    """Wait up to ``seconds`` for the session to empty; True if it did."""
    end = time.monotonic() + seconds
    while session_alive(pgid):
        if time.monotonic() > end:
            return False
        time.sleep(0.05)
    return True


def reap_session(pgid: int) -> None:
    """Wait until every process of the child's session has ended, killing
    whatever is still there after ``REAP_S``."""
    if wait_session(pgid, REAP_S):
        return
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if not wait_session(pgid, REAP_S):
        print(f"processes of session {pgid} outlived SIGKILL", file=sys.stderr)


def sweep_shm() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.runtime import cleanup_orphans

    removed = cleanup_orphans()
    if removed:
        print(f"swept {len(removed)} orphaned shared-memory segments", file=sys.stderr)


def last_report(stdout: str) -> dict | None:
    """The child's last JSON line: its record, or a progress line
    ``{"attempted": n}`` if it did not get to the end."""
    for line in reversed(stdout.strip().splitlines()):
        try:
            report = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(report, dict) and "attempted" in report:
            return report
    return None


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One child run; returns its record, or ``None`` when the child
    reported nothing."""
    out = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    error = None
    try:
        stdout, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        # SIGTERM ends the child and its workers at once; the
        # multiprocessing resource tracker ignores it, outlives them and
        # unlinks the semaphores and segments they leave behind
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            stdout, _ = proc.communicate(timeout=REAP_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
        error = f"overran its {DEADLINE_S:.0f} s deadline; killed"
    reap_session(proc.pid)
    report = last_report(stdout)
    if error is None and (report is None or "correct" not in report):
        error = f"exited {proc.returncode} without a result"
    if error is None:
        return report
    print(f"{workload}: {error}", file=sys.stderr)
    sweep_shm()
    if report is None:
        return None
    return {"workload": workload, "correct": False, "attempted": report["attempted"],
            "error": error}


def result_line(record: dict, trace: int) -> dict:
    correct = bool(record.get("correct"))
    attempted = max(1, int(record.get("attempted", 0)))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": record.get("per_layer" if trace else "end_to_end") or {},
    }


def print_table(records: list[tuple[str, int, dict, dict]]) -> None:
    print(f"{'workload':16s} {'metric':32s} {'value':>14s}  unit   samples")
    for workload, trace, record, result in records:
        samples = {
            "epochs_per_sec": record.get("samples"),
            "epoch_ms_p50": record.get("samples"),
            "epoch_ms_p90": record.get("samples"),
            "setup_s": record.get("setup_samples"),
        }
        for name, m in result["metrics"].items():
            print(f"{workload:16s} {name:32s} {m['value']:14.6g}  {m['unit']:6s} "
                  f"{samples.get(name) or ''}")
        error_rate = result["failed"] / result["attempted"]
        print(f"{workload:16s} {'error_rate' + (' (traced)' if trace else ''):32s} "
              f"{error_rate:14.6g}  ratio  {result['attempted']}")


def rationale(records: list[tuple[str, int, dict, dict]]) -> list[tuple[bool, str]]:
    """The workload rationale, checked on the traced passes."""
    layers = {
        w: {k: m["value"] for k, m in result["metrics"].items()}
        for w, trace, _, result in records if trace
    }
    bookkeeping = ("dist.comm.issue.self_ms", "dist.comm.wait.self_ms",
                   "dist.cluster.record_ms", "dist.cluster.advance_ms",
                   "dist.cluster.barrier_ms")
    math_ms = ("core.batch.spmm_ms", "core.batch.gemm_ms")
    lines = []
    if "small-eager" in layers:
        m = layers["small-eager"]
        comm = sum(m[k] for k in bookkeeping) + m["dist.comm.data_ms"]
        batch = sum(m[k] for k in math_ms)
        lines.append((comm > batch, f"small-eager: dist.comm + dist.cluster {comm:.3f} ms "
                                    f"vs core.batch {batch:.3f} ms"))
    if "heavy-overlap-ragged" in layers:
        m = layers["heavy-overlap-ragged"]
        work = sum(m[k] for k in math_ms) + m["dist.comm.data_ms"]
        books = sum(m[k] for k in bookkeeping)
        lines.append((work > books, f"heavy-overlap-ragged: core.batch + dist.comm.data "
                                    f"{work:.3f} ms vs bookkeeping {books:.3f} ms"))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="run one workload (default: every workload of "
                             "BENCHMARK.json, both passes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure under {ROOT}", file=sys.stderr)
        return 2

    if args.workload:
        record = run_one(args.workload, args.seed, args.seconds, args.trace)
        if record is None:
            return 1
        result = result_line(record, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            record = run_one(workload, args.seed, args.seconds, trace)
            if record is None:
                return 1
            records.append((workload, trace, record, result_line(record, trace)))
    print_table(records)
    checks = rationale(records)
    for holds, line in checks:
        print(f"rationale {'holds' if holds else 'FAILS'}: {line}")
    ok = all(result["correct"] for *_, result in records) and all(h for h, _ in checks)
    print(json.dumps({"correct": ok, "runs": len(records)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
