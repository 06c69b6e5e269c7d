"""Epoch-boundary checkpoint/restore (inproc surface; tier-1).

Acceptance: a training run interrupted at a checkpoint boundary and resumed
from disk must be **bitwise identical** — losses, weights, Adam moments,
per-rank clocks and phase totals — to the uninterrupted run.  Also covered:
the quiescence rule (an overlap schedule's in-flight cross-epoch prefetch
restores verbatim into the saving instance but refuses a cross-instance
quiescent restore), manifest/latest/prune directory management, and torn
checkpoints (no manifest) being invisible to resume, and the format
guard (a checkpoint of another ``FORMAT_VERSION`` is refused, never loaded).

The multiproc crash-recovery path over the same files lives in
``tests/test_runtime_faults.py`` (spawn-heavy; run in its own CI step).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import GridConfig, PlexusOptions
from repro.dist import LAPTOP
from repro.errors import CheckpointError
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.runtime import WorkloadSpec, build_trainer, latest_checkpoint
from repro.runtime import checkpoint as ckpt
from repro.sparse.ops import gcn_normalize

N_NODES = 48
DIMS = [16, 16, 8]
CFG = GridConfig(2, 2, 2)


def _dataset(n=N_NODES, dims=DIMS):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
    feats = synth_features(n, dims[0], seed=2)
    labels = degree_labels(a, dims[-1], seed=3)
    mask, _, _ = random_split_masks(n, seed=4)
    return a, feats, labels, mask


def _trainer(**opts):
    a, feats, labels, mask = _dataset()
    spec = WorkloadSpec(
        config=CFG,
        layer_dims=list(DIMS),
        workers=2,
        machine=LAPTOP,
        options=PlexusOptions(seed=0, **opts),
        adjacency=a,
        features=feats,
        labels=labels,
        train_mask=mask,
    )
    return build_trainer(spec, backend="inproc")


def _final_state(trainer) -> dict:
    model = trainer.model
    store = model.cluster.store
    return {
        "clocks": store.clocks.copy(),
        "by_phase": {k: v.copy() for k, v in store.by_phase.items()},
        "weights": {
            f"W{i}": np.asarray(l.w_stack).copy() for i, l in enumerate(model.layers)
        },
        "adam_t": model.optimizer.t,
        "adam_m": {k: v.copy() for k, v in model.optimizer.m.items()},
    }


def _assert_same(a: dict, b: dict) -> None:
    assert np.array_equal(a["clocks"], b["clocks"])
    assert set(a["by_phase"]) == set(b["by_phase"])
    for k, v in a["by_phase"].items():
        assert np.array_equal(v, b["by_phase"][k]), k
    for k, v in a["weights"].items():
        assert np.array_equal(v, b["weights"][k]), k
    assert a["adam_t"] == b["adam_t"]
    for k, v in a["adam_m"].items():
        assert np.array_equal(v, b["adam_m"][k]), k


class TestRoundTrip:
    def test_eager_resume_is_bitwise(self, tmp_path):
        """Save at epoch 2, resume in a *fresh* trainer, finish: identical
        to the uninterrupted run — losses, clocks, weights, Adam state."""
        ref = _trainer()
        losses_ref = ref.train(5).losses

        saver = _trainer()
        head = saver.train(2).losses
        path = saver.save_checkpoint(tmp_path, epoch=2)
        assert head == losses_ref[:2]

        resumed = _trainer()
        manifest = resumed.load_checkpoint(path)
        assert manifest["epoch"] == 2 and manifest["world"] == CFG.total
        tail = resumed.train(3).losses
        assert tail == losses_ref[2:]
        _assert_same(_final_state(ref), _final_state(resumed))

    def test_overlap_verbatim_restore_same_instance(self, tmp_path):
        """With overlap + the cross-epoch F prefetch in flight at the
        boundary, the saving instance restores verbatim (links + pending
        handle inventory) and replays bitwise."""
        tr = _trainer(overlap=True)
        tr.train(2)
        assert tr.model._f0_pending is not None  # prefetch crosses the boundary
        path = tr.save_checkpoint(tmp_path, epoch=2)
        first = tr.train(3).losses
        state_first = _final_state(tr)

        tr.load_checkpoint(path)  # rewind the same instance
        replay = tr.train(3).losses
        assert replay == first
        _assert_same(state_first, _final_state(tr))

    def test_overlap_refuses_cross_instance_quiescent_restore(self, tmp_path):
        """A checkpoint holding an in-flight prefetch is not quiescent: the
        cross-instance (non-verbatim) policy must refuse it loudly."""
        tr = _trainer(overlap=True)
        tr.train(2)
        path = tr.save_checkpoint(tmp_path, epoch=2)
        other = _trainer(overlap=True)
        with pytest.raises(CheckpointError, match="quiescent"):
            other.load_checkpoint(path, verbatim=False)

    def test_restore_rejects_mismatched_model(self, tmp_path):
        tr = _trainer()
        tr.train(1)
        path = tr.save_checkpoint(tmp_path, epoch=1)
        state, exact = ckpt.load_slice(path, 0, CFG.total)
        assert exact
        state["weights"]["W0"] = state["weights"]["W0"][:, :-1, :]
        with pytest.raises(CheckpointError, match="W0"):
            ckpt.restore_model(_trainer().model, state)
        state, _ = ckpt.load_slice(path, 0, CFG.total)
        del state["weights"]["W1"]
        with pytest.raises(CheckpointError, match="parameters"):
            ckpt.restore_model(_trainer().model, state)


def downgrade_to_format_1(path) -> None:
    """Rewrite every slice file of a checkpoint in the format-1 link layout
    (one scalar per process-group link key instead of one array per axis)."""
    for f in path.glob("worker-*.pkl"):
        state = pickle.loads(f.read_bytes())
        state["format"] = 1
        state["links"] = {
            (key, gi): float(t)
            for key, v in state["links"].items()
            for gi, t in enumerate(np.ravel(v))
        }
        f.write_bytes(pickle.dumps(state))


class TestFormat:
    def test_links_saved_as_axis_arrays(self, tmp_path):
        tr = _trainer(overlap=True)
        tr.train(2)
        path = tr.save_checkpoint(tmp_path, epoch=2)
        state, exact = ckpt.load_slice(path, 0, CFG.total)
        assert exact and state["format"] == ckpt.FORMAT_VERSION == 2
        assert state["links"]
        for v in state["links"].values():
            assert isinstance(v, np.ndarray) and v.dtype == np.float64

    def test_older_format_refused_verbatim_and_cross_layout(self, tmp_path):
        """A format-1 checkpoint's per-group link keys mean nothing to the
        columnar layout: every restore path refuses it with a typed error."""
        tr = _trainer(overlap=True)
        tr.train(2)
        path = tr.save_checkpoint(tmp_path, epoch=2)
        downgrade_to_format_1(path)
        for verbatim in (None, True):  # the saving instance and a fresh one
            with pytest.raises(CheckpointError, match="format 1"):
                tr.load_checkpoint(path, verbatim=verbatim)
            with pytest.raises(CheckpointError, match="format 1"):
                _trainer(overlap=True).load_checkpoint(path, verbatim=verbatim)
        with pytest.raises(CheckpointError, match="format 1"):
            ckpt.load_cube_state(path)  # the re-slicing (cross-layout) path

    def test_same_format_verbatim_replay_is_bitwise(self, tmp_path):
        """The same-format verbatim restore replays an eager schedule, and
        an overlap schedule with its prefetch in flight, bit for bit."""
        for overlap in (False, True):
            tr = _trainer(overlap=overlap)
            tr.train(2)
            path = tr.save_checkpoint(tmp_path / str(overlap), epoch=2)
            first = tr.train(3).losses
            state_first = _final_state(tr)
            tr.load_checkpoint(path, verbatim=True)
            assert tr.train(3).losses == first
            _assert_same(state_first, _final_state(tr))


class TestDirectoryManagement:
    def test_latest_prune_and_torn_checkpoints(self, tmp_path):
        tr = _trainer()
        for e in (1, 2, 3):
            tr.train(1)
            tr.save_checkpoint(tmp_path, epoch=e, keep=2)
        # keep=2 pruned epoch 1; the newest complete checkpoint is epoch 3
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [ckpt.checkpoint_name(2), ckpt.checkpoint_name(3)]
        epoch, path = latest_checkpoint(tmp_path)
        assert (epoch, path.name) == (3, ckpt.checkpoint_name(3))
        # tearing the newest (no manifest) makes epoch 2 the latest again
        (path / ckpt.MANIFEST_NAME).unlink()
        epoch, path = latest_checkpoint(tmp_path)
        assert epoch == 2
        with pytest.raises(CheckpointError, match="torn"):
            ckpt.read_manifest(tmp_path / ckpt.checkpoint_name(3))

    def test_latest_on_missing_or_empty_root(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None
        assert latest_checkpoint(tmp_path) is None

    def test_prune_never_deletes_the_only_restore_point(self, tmp_path):
        tr = _trainer()
        tr.train(1)
        tr.save_checkpoint(tmp_path, epoch=1)
        assert ckpt.prune_checkpoints(tmp_path, keep=0) == []
        assert latest_checkpoint(tmp_path) is not None


class TestTrainPlexusCheckpointing:
    def test_total_target_resume(self, tmp_path):
        """train_plexus with checkpoint_dir treats epochs as a total target:
        an interrupted job re-run with the same directory completes and
        returns the bitwise-identical TrainResult."""
        from repro import train_plexus

        kw = dict(gpus=8, config=GridConfig(2, 1, 4), seed=0, scale="tiny")
        ref = train_plexus("reddit", epochs=5, **kw)
        d = tmp_path / "ckpt"
        part = train_plexus("reddit", epochs=3, checkpoint_dir=str(d), **kw)
        assert part.losses == ref.losses[:3]
        full = train_plexus("reddit", epochs=5, checkpoint_dir=str(d), **kw)
        assert full.losses == ref.losses
