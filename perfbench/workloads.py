"""Workload definitions and the load generator.

Every workload trains a 3-layer GCN on the 64-rank X4Y4Z4 grid of the
simulated Perlmutter machine, float32, on an RMAT graph.  The graph,
features, labels, train mask and weight-init seed all derive from the
``--seed`` argument; the program only ever sees the generated inputs.
Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer
from repro.dist import PERLMUTTER, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.sparse.ops import gcn_normalize

GRID = GridConfig(4, 4, 4)


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    layer_dims: tuple[int, ...]
    avg_degree: float
    options: dict = field(default_factory=dict)
    #: worker processes; 0 runs the in-process trainer
    workers: int = 0
    #: untimed epochs before the timed window (caches, allocator, BLAS)
    warmup: int = 5
    #: constructions per run, in three groups spread over the run (host
    #: speed drifts on a scale of seconds); ``setup_s`` is their median
    setup_reps: int = 15
    #: epochs of the traced pass (a fixed count, so its counts repeat)
    trace_epochs: int = 100


WORKLOADS = {
    w.name: w
    for w in (
        # the workloads BENCHMARK.json gates
        Workload("small-eager", 128, (32, 32, 32, 16), 6, trace_epochs=200),
        Workload(
            "heavy-overlap-ragged", 1538, (194, 194, 194, 50), 8,
            {"overlap": True, "aggregation_blocks": 4}, trace_epochs=40,
        ),
        Workload(
            "small-eager-2w", 128, (32, 32, 32, 16), 6,
            workers=2, setup_reps=3, trace_epochs=100,
        ),
        # run by name only: not steady enough on a 2-vCPU host to gate
        # (see README)
        Workload(
            "heavy-overlap", 1536, (192, 192, 192, 48), 8,
            {"overlap": True, "aggregation_blocks": 4}, trace_epochs=40,
        ),
        Workload(
            "ragged-blocked", 130, (34, 34, 34, 18), 6,
            {"aggregation_blocks": 4}, trace_epochs=100,
        ),
        Workload(
            "multiproc-2w", 1536, (192, 192, 192, 48), 8,
            {"overlap": True, "aggregation_blocks": 4},
            workers=2, warmup=3, setup_reps=3, trace_epochs=20,
        ),
    )
}


@dataclass
class Inputs:
    adjacency: object
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray


def make_inputs(w: Workload, seed: int, dtype=np.float32) -> Inputs:
    """The load generator: the same seed gives the same inputs."""
    a = gcn_normalize(rmat_graph(w.nodes, avg_degree=w.avg_degree, seed=seed))
    features = synth_features(w.nodes, w.layer_dims[0], seed=seed + 1, dtype=dtype)
    labels = degree_labels(a, w.layer_dims[-1], seed=seed + 2)
    train_mask, _, _ = random_split_masks(w.nodes, seed=seed + 3)
    return Inputs(a, features, labels, train_mask)


def options(w: Workload, seed: int, dtype=np.float32) -> PlexusOptions:
    return PlexusOptions(seed=seed, compute_dtype=dtype, **w.options)


def build_inproc(w: Workload, inputs: Inputs, seed: int, dtype=np.float32) -> PlexusTrainer:
    """``PlexusGCN`` + ``PlexusTrainer`` construction: the inproc set-up."""
    model = PlexusGCN(
        VirtualCluster(GRID.total, PERLMUTTER), GRID, inputs.adjacency,
        inputs.features, inputs.labels, inputs.train_mask,
        list(w.layer_dims), options(w, seed, dtype),
    )
    return PlexusTrainer(model)


#: the launcher's deadline for any one worker command; a run that needs it
#: has already blown the benchmark's own per-run deadline
MULTIPROC_TIMEOUT_S = 60.0


def build_multiproc(w: Workload, inputs: Inputs, seed: int, trace_dir=None):
    """``MultiprocTrainer(...)``: spawn plus worker bootstrap."""
    from repro.runtime import MultiprocTrainer, WorkloadSpec

    spec = WorkloadSpec(
        config=GRID, layer_dims=list(w.layer_dims), workers=w.workers,
        machine=PERLMUTTER, options=options(w, seed), adjacency=inputs.adjacency,
        features=inputs.features, labels=inputs.labels, train_mask=inputs.train_mask,
    )
    return MultiprocTrainer(spec, timeout=MULTIPROC_TIMEOUT_S, trace_dir=trace_dir)


def timed_setup(w: Workload, inputs: Inputs, seed: int, reps: int, keep: bool = True):
    """Construct ``reps`` trainers back to back, timing each.

    Returns the last trainer (``None`` unless ``keep``) and the list of
    construction times.  Each trainer is released before the next is
    built, so memory holds one trainer at a time.
    """
    times, trainer = [], None
    for i in range(reps):
        t0 = time.perf_counter()
        trainer = (
            build_multiproc(w, inputs, seed) if w.workers else build_inproc(w, inputs, seed)
        )
        times.append(time.perf_counter() - t0)
        if keep and i == reps - 1:
            break
        if w.workers:
            trainer.close()
        trainer = None
        gc.collect()
    return trainer, times
