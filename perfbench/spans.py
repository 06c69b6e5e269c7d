"""Layer spans recorded from outside the program, and their self-times.

:class:`LayerProbe` wraps the public functions and methods on the epoch
path (``LAYER_TARGETS``) so that every call records a begin and an end
event.  The events use the tuple format of :mod:`repro.obs.trace`
(``(ph, name, t_ns, args)``, ``time.monotonic_ns``), so the same list
feeds :class:`repro.obs.TraceCollector` for the Perfetto export and
:func:`epoch_breakdown` for the per-layer numbers.  A span's parent is the
span open around it; its self-time is its duration minus the time its
child spans cover.  Nothing under ``src/`` changes: the probe patches
attributes while installed and restores the originals on ``uninstall``.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

from repro.core.batch import BlockDiagSpmm, stack_matmul
from repro.core.model import PlexusGCN
from repro.core.trainer import PlexusTrainer, distributed_masked_ce
from repro.dist import comm as _comm
from repro.dist.cluster import ClockStore, VirtualCluster
from repro.dist.comm import AxisCommunicator, PendingCollective
from repro.dist.padded import PaddedStack
from repro.nn.optim import Adam

EPOCH = "core.trainer.epoch"
_MARK = "__perfbench_original__"


def _gemm_args(a, b, *, ta: bool = False, tb: bool = False) -> dict:
    """``2*m*n*k`` of one ``stack_matmul`` from its operand shapes (valid
    extents for padded stacks: the product runs per exact-shape group)."""

    if not isinstance(a, PaddedStack) and not isinstance(b, PaddedStack):
        world, m, k = a.shape
        n = b.shape[1] if tb else b.shape[2]
        return {"flop": 2 * world * m * k * n}

    def extents(x, t):
        if isinstance(x, PaddedStack):
            rows, cols = x.rows, x.cols
        else:
            rows = np.full(x.shape[0], x.shape[1])
            cols = np.full(x.shape[0], x.shape[2])
        return (cols, rows) if t else (rows, cols)

    m, k = extents(a, ta)
    _, n = extents(b, tb)
    return {"flop": 2 * int(np.sum(m * k * n))}


def _issue_args(self, stacked, *args, **kwargs) -> dict:
    """Operand bytes of one collective issue (valid bytes when padded)."""
    if isinstance(stacked, PaddedStack):
        return {"bytes": int(stacked.valid_nbytes().sum())}
    return {"bytes": int(stacked.nbytes)}


#: (span name, owner, attribute, args function) for every wrapped call.
#: Functions are patched in every ``repro`` module that binds them, since
#: call sites look them up through their own module's globals.
LAYER_TARGETS = (
    (EPOCH, PlexusTrainer, "train_epoch", None),
    ("core.trainer.loss", None, distributed_masked_ce, None),
    ("core.model.forward", PlexusGCN, "forward", None),
    ("core.model.backward", PlexusGCN, "backward", None),
    ("core.batch.spmm", BlockDiagSpmm, "apply_batched", None),
    ("core.batch.gemm", None, stack_matmul, _gemm_args),
    ("dist.comm.issue", AxisCommunicator, "all_reduce", _issue_args),
    ("dist.comm.issue", AxisCommunicator, "all_gather", _issue_args),
    ("dist.comm.issue", AxisCommunicator, "reduce_scatter", _issue_args),
    ("dist.comm.data", None, _comm.stacked_all_reduce_data, None),
    ("dist.comm.data", None, _comm.stacked_all_gather_data, None),
    ("dist.comm.data", None, _comm.stacked_reduce_scatter_data, None),
    ("dist.comm.wait", PendingCollective, "wait", None),
    ("dist.cluster.record", ClockStore, "record_at", None),
    ("dist.cluster.record", ClockStore, "record_all", None),
    ("dist.cluster.record", ClockStore, "record_idx", None),
    ("dist.cluster.advance", VirtualCluster, "advance_all", None),
    ("dist.cluster.barrier", VirtualCluster, "barrier", None),
    ("dist.padded.stack", PaddedStack, "__init__", None),
    ("nn.optim.adam", Adam, "step", None),
)


def _wrap(events: list, name: str, fn, args_fn):
    clock = time.monotonic_ns
    append = events.append

    if args_fn is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            append(("B", name, clock(), None))
            try:
                return fn(*args, **kwargs)
            finally:
                append(("E", name, clock(), None))
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # args first, so their cost falls outside the span
            span_args = args_fn(*args, **kwargs)
            append(("B", name, clock(), span_args))
            try:
                return fn(*args, **kwargs)
            finally:
                append(("E", name, clock(), None))

    setattr(wrapper, _MARK, fn)
    return wrapper


class LayerProbe:
    """Installs the layer wrappers; ``events`` collects their spans."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        #: (owner, attribute, original) for every patched binding
        self._patched: list[tuple] = []

    def install(self) -> "LayerProbe":
        for name, owner, attr, args_fn in LAYER_TARGETS:
            if owner is not None:
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrap(self.events, name, original, args_fn))
                self._patched.append((owner, attr, original))
                continue
            wrapper = _wrap(self.events, name, attr, args_fn)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is attr:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, attr))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def leftover_wrappers() -> list[str]:
    """Every attribute of a ``repro`` module or class that is still one of
    the probe's wrappers (empty once the probe is uninstalled)."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, _MARK)
                )
    return found


def epoch_breakdown(events: list[tuple]) -> list[dict]:
    """Per-epoch self-time table from a nested span event list.

    Returns one dict per top-level :data:`EPOCH` span: ``"duration_ns"``
    and, per span name inside it (the epoch included), ``self_ns``,
    ``calls`` and the summed numeric args (``flop``, ``bytes``).  Self-times
    are integer nanoseconds, so within an epoch they sum exactly to its
    duration.
    """
    epochs: list[dict] = []
    stack: list[list] = []  # [name, start_ns, child_ns, args]
    current: dict | None = None
    for ph, name, t, args in events:
        if ph == "B":
            if not stack and name == EPOCH:
                current = {"duration_ns": 0, "spans": {}}
            stack.append([name, t, 0, args])
            continue
        if ph != "E":
            continue
        frame = stack.pop()
        if frame[0] != name:
            raise ValueError(f"span {name!r} closed while {frame[0]!r} was open")
        dur = t - frame[1]
        if stack:
            stack[-1][2] += dur
        if current is None:
            continue  # a span outside any epoch
        row = current["spans"].setdefault(name, {"self_ns": 0, "calls": 0})
        row["self_ns"] += dur - frame[2]
        row["calls"] += 1
        for key, value in (frame[3] or {}).items():
            row[key] = row.get(key, 0) + value
        if not stack:
            current["duration_ns"] = dur
            epochs.append(current)
            current = None
    if stack:
        raise ValueError(f"unclosed spans: {[f[0] for f in stack]}")
    return epochs


def layer_metrics(epochs: list[dict]) -> dict[str, float]:
    """Per-epoch means of the per-layer metrics, as ``name -> value``."""
    n = len(epochs)
    if n == 0:
        raise ValueError("no epoch spans recorded")

    def total(span: str, key: str) -> float:
        return sum(e["spans"].get(span, {}).get(key, 0) for e in epochs) / n

    def ms(span: str) -> float:
        return total(span, "self_ns") / 1e6

    return {
        "core.trainer.epoch.self_ms": ms(EPOCH),
        "core.trainer.loss.self_ms": ms("core.trainer.loss"),
        "core.model.forward.self_ms": ms("core.model.forward"),
        "core.model.backward.self_ms": ms("core.model.backward"),
        "core.batch.spmm_ms": ms("core.batch.spmm"),
        "core.batch.spmm_calls": total("core.batch.spmm", "calls"),
        "core.batch.gemm_ms": ms("core.batch.gemm"),
        "core.batch.gemm_calls": total("core.batch.gemm", "calls"),
        "core.batch.gemm_gflop": total("core.batch.gemm", "flop") / 1e9,
        "dist.comm.issue.self_ms": ms("dist.comm.issue"),
        "dist.comm.issue_calls": total("dist.comm.issue", "calls"),
        "dist.comm.issue_mb": total("dist.comm.issue", "bytes") / 1e6,
        "dist.comm.data_ms": ms("dist.comm.data"),
        "dist.comm.wait.self_ms": ms("dist.comm.wait"),
        "dist.comm.wait_calls": total("dist.comm.wait", "calls"),
        "dist.cluster.record_ms": ms("dist.cluster.record"),
        "dist.cluster.record_calls": total("dist.cluster.record", "calls"),
        "dist.cluster.advance_ms": ms("dist.cluster.advance"),
        "dist.cluster.barrier_ms": ms("dist.cluster.barrier"),
        "dist.padded.stack_ms": ms("dist.padded.stack"),
        "dist.padded.stack_calls": total("dist.padded.stack", "calls"),
        "nn.optim.adam_ms": ms("nn.optim.adam"),
    }
