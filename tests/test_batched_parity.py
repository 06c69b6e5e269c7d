"""Rank-batched engine vs per-rank reference: exact-parity property tests.

The batched engine reorganizes every hot-path operation (stacked GEMMs,
block-diagonal SpMM, cube-reshaped axis collectives, stacked Adam) but must
not change a single bit of the float64 computation — the per-rank loop is
the reference oracle and Fig. 7's serial-parity check sits on top of it.
These tests train the same model under both engines on random grids up to
X3Y2Z2 and assert bitwise equality of losses, weights and even the
simulated rank clocks; in float32 mode (the benchmark dtype) agreement is
atol-bounded instead.

The batched engine is *universal*: divisible sharding runs on plain ndarray
stacks, indivisible (quasi-equal / ragged) sharding on zero-padded masked
stacks, and blocked aggregation on per-block stacked SpMM plans — the
padded/blocked hypothesis suites below assert the same bitwise parity for
those configurations, eager and ``overlap=True`` alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, SpmmNoise
from repro.core.batch import (
    BlockDiagSpmm,
    PaddedStack,
    batched_matmul,
    concat_stack_rows,
    stack_matmul,
    stack_shards,
)
from repro.dist import PERLMUTTER, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.sparse.ops import gcn_normalize, random_sparse

#: divisible by every axis size (1..3) and every pairwise axis product of
#: the grids below, so the uniform single-stack fast path engages
N_NODES = 72
DIMS = [24, 24, 12]

GRIDS = [
    GridConfig(3, 2, 2),
    GridConfig(2, 2, 2),
    GridConfig(3, 1, 2),
    GridConfig(1, 2, 3),
    GridConfig(2, 3, 1),
    GridConfig(1, 1, 1),
]


def _dataset(seed):
    a = gcn_normalize(rmat_graph(N_NODES, avg_degree=6, seed=seed))
    feats = synth_features(N_NODES, DIMS[0], seed + 1)
    labels = degree_labels(a, DIMS[-1], seed + 2)
    train, _, _ = random_split_masks(N_NODES, seed + 3)
    return a, feats, labels, train


def _train(a, feats, labels, mask, cfg, engine, epochs=4, dtype=np.float64, **opts):
    cluster = VirtualCluster(cfg.total, PERLMUTTER)
    feats = feats.astype(dtype)
    model = PlexusGCN(
        cluster, cfg, a, feats, labels, mask, DIMS,
        PlexusOptions(seed=0, engine=engine, compute_dtype=dtype, **opts),
    )
    result = PlexusTrainer(model).train(epochs)
    return model, result, cluster


class TestEngineParity:
    @settings(max_examples=12, deadline=None)
    @given(
        grid_idx=st.integers(0, len(GRIDS) - 1),
        seed=st.integers(0, 50),
        perm=st.sampled_from(["none", "single", "double"]),
    )
    def test_float64_bitwise(self, grid_idx, seed, perm):
        """Random grids up to X3Y2Z2: losses, weights and clocks bitwise."""
        cfg = GRIDS[grid_idx]
        a, feats, labels, mask = _dataset(seed)
        mb, rb, cb = _train(a, feats, labels, mask, cfg, "batched", permutation=perm)
        mp, rp, cp = _train(a, feats, labels, mask, cfg, "perrank", permutation=perm)
        assert mb.engine == "batched" and mp.engine == "perrank"
        assert rb.losses == rp.losses
        for i in range(len(DIMS) - 1):
            for r in range(cfg.total):
                assert np.array_equal(mb.layers[i].w_shards[r], mp.layers[i].w_shards[r])
        assert np.array_equal(cb.clocks, cp.clocks)
        assert np.array_equal(cb.category_totals("comm:"), cp.category_totals("comm:"))
        assert np.array_equal(cb.category_totals("comp:"), cp.category_totals("comp:"))

    def test_float32_atol(self):
        """Benchmark dtype: engines agree to float32 round-off."""
        a, feats, labels, mask = _dataset(9)
        _, rb, _ = _train(a, feats, labels, mask, GRIDS[0], "batched", dtype=np.float32)
        _, rp, _ = _train(a, feats, labels, mask, GRIDS[0], "perrank", dtype=np.float32)
        np.testing.assert_allclose(rb.losses, rp.losses, atol=1e-5)

    def test_trainable_features_bitwise(self):
        a, feats, labels, mask = _dataset(3)
        mb, rb, _ = _train(a, feats, labels, mask, GRIDS[1], "batched", trainable_features=True)
        mp, rp, _ = _train(a, feats, labels, mask, GRIDS[1], "perrank", trainable_features=True)
        assert rb.losses == rp.losses
        for r in range(GRIDS[1].total):
            assert np.array_equal(mb.f0_shards[r], mp.f0_shards[r])

    def test_untuned_dw_gemm_bitwise(self):
        a, feats, labels, mask = _dataset(5)
        _, rb, cb = _train(a, feats, labels, mask, GRIDS[0], "batched", tune_dw_gemm=False)
        _, rp, cp = _train(a, feats, labels, mask, GRIDS[0], "perrank", tune_dw_gemm=False)
        assert rb.losses == rp.losses
        assert np.array_equal(cb.clocks, cp.clocks)

    def test_noisy_runs_bitwise(self):
        """SpMM noise on the batched engine: the vectorized sampler consumes
        the same RNG stream as per-rank draws in rank order, so losses,
        weights and (noise-inflated) clocks match the reference bitwise."""
        a, feats, labels, mask = _dataset(7)
        noise = lambda: SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11)  # noqa: E731
        mb, rb, cb = _train(a, feats, labels, mask, GRIDS[0], "batched", noise=noise())
        mp, rp, cp = _train(a, feats, labels, mask, GRIDS[0], "perrank", noise=noise())
        assert mb.engine == "batched" and mp.engine == "perrank"
        assert rb.losses == rp.losses
        for i in range(len(DIMS) - 1):
            for r in range(GRIDS[0].total):
                assert np.array_equal(mb.layers[i].w_shards[r], mp.layers[i].w_shards[r])
        assert np.array_equal(cb.clocks, cp.clocks)
        assert np.array_equal(cb.category_totals("comm:"), cp.category_totals("comm:"))
        assert np.array_equal(cb.category_totals("comp:"), cp.category_totals("comp:"))


class TestEngineSelection:
    """The batched engine is universal: auto selects it for *every*
    configuration; the per-rank loop runs only on explicit request."""

    def test_auto_prefers_batched_on_divisible(self):
        a, feats, labels, mask = _dataset(0)
        m, _, _ = _train(a, feats, labels, mask, GRIDS[0], "auto", epochs=1)
        assert m.engine == "batched"
        assert m.uniform

    def test_auto_batched_on_indivisible_dims(self):
        """Indivisible hidden dim: auto still picks batched (padded stacks)."""
        a, feats, labels, mask = _dataset(0)
        cluster = VirtualCluster(12, PERLMUTTER)
        model = PlexusGCN(
            cluster, GRIDS[0], a, feats, labels, mask, [DIMS[0], 13, DIMS[-1]],
            PlexusOptions(seed=0, engine="auto"),
        )
        assert model.engine == "batched"
        assert not model.uniform

    def test_auto_batched_on_blocked_aggregation(self):
        """Blocked aggregation: auto still picks batched (per-block plans)."""
        a, feats, labels, mask = _dataset(0)
        m, _, _ = _train(a, feats, labels, mask, GRIDS[1], "auto", epochs=1, aggregation_blocks=3)
        assert m.engine == "batched"

    def test_noise_no_longer_forces_perrank(self):
        """The vectorized sampler draws per rank in rank order, so noisy
        runs stay eligible for the rank-batched engine."""
        a, feats, labels, mask = _dataset(0)
        m, _, _ = _train(a, feats, labels, mask, GRIDS[1], "auto", epochs=1,
                         noise=SpmmNoise(threshold_nnz=1))
        assert m.engine == "batched"

    def test_explicit_batched_works_on_formerly_ineligible_config(self):
        """engine='batched' no longer raises on indivisible dims: it runs
        the padded stacks and matches the per-rank oracle bitwise."""
        a, feats, labels, mask = _dataset(0)
        dims = [DIMS[0], 13, DIMS[-1]]
        rb = _train_dims(a, feats, labels, mask, GRIDS[0], dims, "batched")
        rp = _train_dims(a, feats, labels, mask, GRIDS[0], dims, "perrank")
        assert rb[1].losses == rp[1].losses
        assert np.array_equal(rb[2].clocks, rp[2].clocks)

    def test_perrank_still_selectable(self):
        a, feats, labels, mask = _dataset(0)
        m, _, _ = _train(a, feats, labels, mask, GRIDS[0], "perrank", epochs=1)
        assert m.engine == "perrank"


def _train_dims(a, feats, labels, mask, cfg, dims, engine, epochs=3, **opts):
    cluster = VirtualCluster(cfg.total, PERLMUTTER)
    model = PlexusGCN(
        cluster, cfg, a, feats, labels, mask, dims,
        PlexusOptions(seed=0, engine=engine, **opts),
    )
    result = PlexusTrainer(model).train(epochs)
    return model, result, cluster


def _assert_bitwise(cfg, dims, mb, rb, cb, mp, rp, cp):
    assert mb.engine == "batched" and mp.engine == "perrank"
    assert rb.losses == rp.losses
    for i in range(len(dims) - 1):
        for r in range(cfg.total):
            assert np.array_equal(mb.layers[i].w_shards[r], mp.layers[i].w_shards[r])
    assert np.array_equal(cb.clocks, cp.clocks)
    assert np.array_equal(cb.category_totals("comm:"), cp.category_totals("comm:"))
    assert np.array_equal(cb.category_totals("comp:"), cp.category_totals("comp:"))


class TestPaddedParity:
    """Indivisible (quasi-equal) sharding: the padded batched engine must be
    bitwise identical to the per-rank oracle — losses, weights, per-rank
    clocks and phase totals, eager and overlapped."""

    @settings(max_examples=10, deadline=None)
    @given(
        grid_idx=st.integers(0, len(GRIDS) - 1),
        n_nodes=st.sampled_from([70, 71, 73]),
        d_hidden=st.sampled_from([23, 25]),
        seed=st.integers(0, 20),
        overlap=st.booleans(),
    )
    def test_float64_bitwise_ragged(self, grid_idx, n_nodes, d_hidden, seed, overlap):
        cfg = GRIDS[grid_idx]
        dims = [25, d_hidden, 11]
        a = gcn_normalize(rmat_graph(n_nodes, avg_degree=6, seed=seed))
        feats = synth_features(n_nodes, dims[0], seed + 1)
        labels = degree_labels(a, dims[-1], seed + 2)
        mask, _, _ = random_split_masks(n_nodes, seed + 3)
        mb, rb, cb = _train_dims(a, feats, labels, mask, cfg, dims, "batched", overlap=overlap)
        mp, rp, cp = _train_dims(a, feats, labels, mask, cfg, dims, "perrank", overlap=overlap)
        _assert_bitwise(cfg, dims, mb, rb, cb, mp, rp, cp)

    def test_zero_class_columns(self):
        """More X-shards than classes: some ranks own zero logit columns."""
        cfg = GridConfig(5, 1, 2)
        dims = [24, 16, 3]
        n = 70
        a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
        feats = synth_features(n, dims[0], 2)
        labels = degree_labels(a, dims[-1], 3)
        mask, _, _ = random_split_masks(n, 4)
        mb, rb, cb = _train_dims(a, feats, labels, mask, cfg, dims, "batched")
        mp, rp, cp = _train_dims(a, feats, labels, mask, cfg, dims, "perrank")
        _assert_bitwise(cfg, dims, mb, rb, cb, mp, rp, cp)

    def test_trainable_features_ragged(self):
        cfg = GRIDS[0]
        dims = [25, 23, 11]
        n = 70
        a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=5))
        feats = synth_features(n, dims[0], 6)
        labels = degree_labels(a, dims[-1], 7)
        mask, _, _ = random_split_masks(n, 8)
        mb, rb, _ = _train_dims(a, feats, labels, mask, cfg, dims, "batched",
                                trainable_features=True)
        mp, rp, _ = _train_dims(a, feats, labels, mask, cfg, dims, "perrank",
                                trainable_features=True)
        assert rb.losses == rp.losses
        for r in range(cfg.total):
            assert np.array_equal(mb.f0_shards[r], mp.f0_shards[r])

    def test_noisy_ragged_bitwise(self):
        cfg = GRIDS[0]
        dims = [25, 23, 11]
        n = 70
        a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=9))
        feats = synth_features(n, dims[0], 10)
        labels = degree_labels(a, dims[-1], 11)
        mask, _, _ = random_split_masks(n, 12)
        mb, rb, cb = _train_dims(a, feats, labels, mask, cfg, dims, "batched",
                                 noise=SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11))
        mp, rp, cp = _train_dims(a, feats, labels, mask, cfg, dims, "perrank",
                                 noise=SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11))
        _assert_bitwise(cfg, dims, mb, rb, cb, mp, rp, cp)


class TestBlockedAggregationParity:
    """Blocked aggregation on the batched engine (per-block stacked SpMM
    plans) vs the per-rank oracle: bitwise, eager and overlapped, uniform
    and ragged sharding."""

    @settings(max_examples=8, deadline=None)
    @given(
        blocks=st.integers(2, 5),
        overlap=st.booleans(),
        ragged=st.booleans(),
        seed=st.integers(0, 20),
    )
    def test_blocked_bitwise(self, blocks, overlap, ragged, seed):
        cfg = GRIDS[0]
        n = 70 if ragged else N_NODES
        dims = [25, 23, 11] if ragged else DIMS
        a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=seed))
        feats = synth_features(n, dims[0], seed + 1)
        labels = degree_labels(a, dims[-1], seed + 2)
        mask, _, _ = random_split_masks(n, seed + 3)
        mb, rb, cb = _train_dims(a, feats, labels, mask, cfg, dims, "batched",
                                 aggregation_blocks=blocks, overlap=overlap)
        mp, rp, cp = _train_dims(a, feats, labels, mask, cfg, dims, "perrank",
                                 aggregation_blocks=blocks, overlap=overlap)
        _assert_bitwise(cfg, dims, mb, rb, cb, mp, rp, cp)


class TestBatchPrimitives:
    """The building blocks handle quasi-equal (grouped-by-shape) operands."""

    def test_batched_matmul_matches_per_rank(self, rng):
        a = [rng.standard_normal((3 + (r % 2), 4)) for r in range(6)]
        b = [rng.standard_normal((4, 2 + (r % 3))) for r in range(6)]
        out = batched_matmul(a, b)
        for r in range(6):
            assert np.array_equal(out[r], a[r] @ b[r])

    def test_block_diag_spmm_grouped(self, rng):
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(6)]
        f = [rng.standard_normal((5, 2)) for r in range(6)]
        out = BlockDiagSpmm(shards).apply(f)
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))

    def test_block_diag_spmm_stacked(self, rng):
        shards = [random_sparse(4, 5, 0.4, rng) for _ in range(6)]
        f = rng.standard_normal((6, 5, 3))
        out = BlockDiagSpmm(shards).apply_stacked(f)
        assert out.shape == (6, 4, 3)
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))

    def test_block_diag_spmm_stacked_rejects_unequal_rows(self, rng):
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(4)]
        f = rng.standard_normal((4, 5, 2))
        with pytest.raises(ValueError, match="uniform"):
            BlockDiagSpmm(shards).apply_stacked(f)

    def test_block_diag_spmm_padded(self, rng):
        """Ragged A rows *and* ragged F cols through one padded plan."""
        ks = [4 + (r % 2) for r in range(6)]
        shards = [random_sparse(3 + (r % 3), ks[r], 0.4, rng) for r in range(6)]
        f_list = [rng.standard_normal((ks[r], 2 + (r % 2))) for r in range(6)]
        out = BlockDiagSpmm(shards).apply_padded(PaddedStack.from_shards(f_list))
        assert isinstance(out, PaddedStack)
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f_list[r]))
        # pad rows of the output stay exact zeros
        for r in range(6):
            assert not out.data[r, out.rows[r]:, :].any()

    def test_block_diag_apply_batched_wraps_uniform_operand(self, rng):
        """Uniform dense stack against ragged A shards: the output comes
        back as a padded stack with the ragged row mask."""
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(4)]
        f = rng.standard_normal((4, 5, 2))
        out = BlockDiagSpmm(shards).apply_batched(f)
        assert isinstance(out, PaddedStack)
        for r in range(4):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))

    def test_stack_matmul_matches_batched_matmul_bitwise(self, rng):
        """The padded GEMM groups by exact shape like batched_matmul, so the
        results (incl. transposed operand layouts) are bitwise identical."""
        a_list = [rng.standard_normal((3 + (r % 2), 4)) for r in range(6)]
        b_list = [rng.standard_normal((4, 2 + (r % 3))) for r in range(6)]
        out = stack_matmul(PaddedStack.from_shards(a_list), PaddedStack.from_shards(b_list))
        ref = batched_matmul(a_list, b_list)
        for r in range(6):
            assert np.array_equal(out[r], ref[r])
        # transposed-a form (the grad-W kernel)
        out_t = stack_matmul(
            PaddedStack.from_shards(a_list).transpose(), PaddedStack.from_shards(b_list),
            ta=True,
        )
        ref_t = batched_matmul(a_list, b_list)
        for r in range(6):
            assert np.array_equal(out_t[r], ref_t[r])

    def test_stack_shards_picks_representation(self, rng):
        uniform = [rng.standard_normal((3, 4)) for _ in range(4)]
        assert isinstance(stack_shards(uniform), np.ndarray)
        ragged = [rng.standard_normal((3 + (r % 2), 4)) for r in range(4)]
        stacked = stack_shards(ragged)
        assert isinstance(stacked, PaddedStack)
        for r in range(4):
            assert np.array_equal(stacked[r], ragged[r])

    def test_concat_stack_rows_padded(self, rng):
        parts = []
        for b in range(3):
            parts.append(PaddedStack.from_shards(
                [rng.standard_normal((1 + ((r + b) % 2), 3)) for r in range(4)]
            ))
        out = concat_stack_rows(parts)
        for r in range(4):
            ref = np.concatenate([p[r] for p in parts], axis=0)
            assert np.array_equal(out[r], ref)


class TestBatchedLossParity:
    """``_masked_ce_batched`` against the per-rank ``distributed_masked_ce``
    loop, bit for bit.  Per-rank class widths 1-17 straddle the 8-column
    point where numpy's row sum switches from in-order to pairwise adds."""

    CFG = GridConfig(2, 2, 2)

    def _model(self, width, dtype):
        a, feats, _, train = _dataset(5)
        n_classes = 2 * width  # every axis of the grid has size 2
        labels = np.random.default_rng(width).integers(0, n_classes, N_NODES)
        model = PlexusGCN(
            VirtualCluster(self.CFG.total, PERLMUTTER), self.CFG, a, feats,
            labels, train, [DIMS[0], 8, n_classes],
            PlexusOptions(seed=0, engine="batched", compute_dtype=dtype),
        )
        assert model.label_stack.shape[0] == self.CFG.total
        return model

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", range(1, 18))
    def test_bitwise_against_per_rank_loop(self, width, dtype):
        from repro.core.trainer import _masked_ce_batched, distributed_masked_ce

        model = self._model(width, dtype)
        # ranks 0 and 5 own no training rows at all
        for r in (0, 5):
            model.mask_stack[r] = False
            model.mask_shards[r][:] = False
        rng = np.random.default_rng(100 + width)
        world, rows = model.mask_stack.shape
        logits = (
            rng.standard_normal((world, rows, width)) * 10.0 ** rng.uniform(-1, 2, (world, rows, 1))
        ).astype(dtype)
        # some masked rows' labels live in the other X rank's class columns
        local = model.label_stack - model.class_start[:, None]
        foreign = model.mask_stack & ((local < 0) | (local >= width))
        assert foreign.any()
        loss_b, grad_b = _masked_ce_batched(model, logits)
        loss_r, grad_r = distributed_masked_ce(model, [logits[r] for r in range(world)])
        assert loss_b == loss_r
        assert grad_b.dtype == dtype
        for r in range(world):
            assert np.array_equal(grad_b[r], grad_r[r]), r
        assert not grad_b[0].any() and not grad_b[5].any()
        # the label-side plan is cached: a second call is bitwise the same
        loss_2, grad_2 = _masked_ce_batched(model, logits)
        assert loss_2 == loss_b and np.array_equal(grad_2, grad_b)
