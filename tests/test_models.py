"""Tests for DLRM, NeuMF, the model zoo and the trainer (repro.models)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CriteoSynthetic, CriteoConfig, MovieLensConfig, MovieLensSynthetic
from repro.models import (
    DLRM,
    DLRMConfig,
    NeuMF,
    NeuMFConfig,
    Trainer,
    build_model,
    criteo_model_specs,
    evaluate_error,
    get_model_spec,
    movielens_model_specs,
)
from repro.models.zoo import MODEL_ZOO, RM_LARGE, RM_MED, RM_SMALL
from repro.nn import MLP, EmbeddingTable


def tiny_dlrm(seed=0):
    return DLRM(
        DLRMConfig(
            name="tiny",
            embedding_dim=4,
            mlp_bottom=(5, 8, 4),
            mlp_top=(16,),
            table_sizes=(10, 12, 8),
            seed=seed,
        )
    )


class EinsumDLRM(DLRM):
    """Oracle: the per-table, ``einsum`` DLRM step the table-batched path replaced.

    It shares the bottom and top MLPs' code but owns separate embedding
    tables, drawn from its own replay of the model seed.
    """

    def __init__(self, config):
        super().__init__(config)
        rng = np.random.default_rng(config.seed)
        MLP(config.mlp_bottom, rng=rng)  # replay the bottom MLP's draws
        dim = config.embedding_dim
        self.tables = [EmbeddingTable(rows, dim, rng=rng) for rows in config.table_sizes]

    def modules(self):
        return [self.bottom, *self.tables, self.top]

    def forward(self, dense, sparse):
        cfg = self.config
        bottom_out = self.bottom.forward(dense)
        lookups = [table.forward(sparse[:, k]) for k, table in enumerate(self.tables)]
        emb_out = np.concatenate(lookups, axis=1)
        emb_vectors = emb_out.reshape(len(dense), cfg.num_tables, cfg.embedding_dim)
        vectors = np.concatenate([bottom_out[:, None, :], emb_vectors], axis=1)
        gram = np.einsum("bik,bjk->bij", vectors, vectors)
        iu, ju = np.triu_indices(cfg.num_tables + 1, k=1)
        self._vectors = vectors
        return self.top.forward(np.concatenate([bottom_out, gram[:, iu, ju]], axis=1))

    def backward(self, grad_logits):
        vectors = self._vectors
        batch, n, d = vectors.shape
        grad_top_input = self.top.backward(grad_logits)
        grad_gram = np.zeros((batch, n, n))
        iu, ju = np.triu_indices(n, k=1)
        grad_gram[:, iu, ju] = grad_top_input[:, d:]
        grad_vectors = np.einsum("bij,bjk->bik", grad_gram + grad_gram.transpose(0, 2, 1), vectors)
        self.bottom.backward(grad_vectors[:, 0, :] + grad_top_input[:, :d])
        for k, table in enumerate(self.tables):
            table.backward(grad_vectors[:, 1 + k, :])


def assert_matches(new, old):
    """Agree to rtol=1e-12; an entry that cancels to near zero keeps the array's ULP scale."""
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-14 * np.abs(old).max(initial=0.0))


class TestDLRM:
    @given(
        table_sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        dim=st.integers(min_value=1, max_value=6),
        batches=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_table_batched_step_matches_einsum_oracle(self, table_sizes, dim, batches, seed):
        config = DLRMConfig(
            name="eq",
            embedding_dim=dim,
            mlp_bottom=(3, 5, dim),
            mlp_top=(7,),
            table_sizes=tuple(table_sizes),
            seed=seed % 1000,
        )
        model, oracle = DLRM(config), EinsumDLRM(config)
        rng = np.random.default_rng(seed)
        model.zero_grad()
        oracle.zero_grad()
        # Two backward calls without a zero in between; tiny tables force repeated rows.
        for batch in batches:
            dense = rng.standard_normal((batch, 3))
            sparse = rng.integers(0, table_sizes, size=(batch, len(table_sizes)))
            logits = model.forward(dense, sparse)
            assert_matches(logits, oracle.forward(dense, sparse))
            grad_logits = rng.standard_normal((batch, 1))
            model.backward(grad_logits)
            oracle.backward(grad_logits)
            for new, old in zip(model.parameters(), oracle.parameters(), strict=True):
                np.testing.assert_array_equal(new, old)
            for new, old in zip(model.gradients(), oracle.gradients(), strict=True):
                assert_matches(new, old)

    def test_forward_shape_and_range(self):
        model = tiny_dlrm()
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 5))
        sparse = rng.integers(0, 8, size=(6, 3))
        logits = model.forward(dense, sparse)
        assert logits.shape == (6, 1)
        probs = model.predict(dense, sparse)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_interaction_width(self):
        config = tiny_dlrm().config
        assert config.num_interaction_features == 4 * 3 // 2
        assert config.top_input_width == 4 + 6

    def test_bottom_must_end_in_embedding_dim(self):
        with pytest.raises(ValueError):
            DLRMConfig(
                name="bad",
                embedding_dim=4,
                mlp_bottom=(5, 8),
                mlp_top=(16,),
                table_sizes=(10,),
            )

    def test_wrong_dense_width_rejected(self):
        model = tiny_dlrm()
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 7)), np.zeros((2, 3), dtype=int))

    def test_training_reduces_loss(self):
        model = tiny_dlrm(seed=1)
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((256, 5))
        sparse = rng.integers(0, 8, size=(256, 3))
        labels = (dense[:, 0] + 0.5 * dense[:, 1] > 0).astype(float)
        from repro.nn import Adam, BCEWithLogitsLoss

        loss_fn = BCEWithLogitsLoss()
        opt = Adam(model.parameters(), model.gradients(), lr=0.01)
        losses = []
        for _ in range(30):
            model.zero_grad()
            logits = model.forward(dense, sparse)
            losses.append(loss_fn.forward(logits, labels))
            model.backward(loss_fn.backward())
            opt.step()
        assert losses[-1] < losses[0] * 0.9

    def test_cost_profile(self):
        cost = tiny_dlrm().cost()
        assert cost.embedding_lookups_per_item == 3
        assert cost.embedding_dim == 4
        assert cost.macs_per_item > 0
        assert len(cost.mlp_layer_dims) == 2 + 2  # bottom layers + top layers


class TestNeuMF:
    def make(self, seed=0):
        return NeuMF(
            NeuMFConfig(
                name="tiny-nmf",
                num_users=20,
                num_items=15,
                embedding_dim=4,
                mlp_hidden=(8, 4),
                seed=seed,
            )
        )

    def test_forward_shape(self):
        model = self.make()
        sparse = np.array([[0, 1], [5, 10], [19, 14]])
        logits = model.forward(np.zeros((3, 1)), sparse)
        assert logits.shape == (3, 1)

    def test_requires_two_sparse_columns(self):
        with pytest.raises(ValueError):
            self.make().forward(np.zeros((2, 1)), np.zeros((2, 3), dtype=int))

    def test_training_reduces_loss(self):
        model = self.make(seed=1)
        rng = np.random.default_rng(0)
        users = rng.integers(0, 20, size=200)
        items = rng.integers(0, 15, size=200)
        labels = ((users + items) % 2).astype(float)
        sparse = np.stack([users, items], axis=1)
        from repro.nn import Adam, BCEWithLogitsLoss

        loss_fn = BCEWithLogitsLoss()
        opt = Adam(model.parameters(), model.gradients(), lr=0.02)
        losses = []
        for _ in range(40):
            model.zero_grad()
            logits = model.forward(np.zeros((200, 1)), sparse)
            losses.append(loss_fn.forward(logits, labels))
            model.backward(loss_fn.backward())
            opt.step()
        assert losses[-1] < losses[0]

    def test_cost_profile(self):
        cost = self.make().cost()
        assert cost.embedding_lookups_per_item == 4
        assert cost.macs_per_item > 0


class TestModelZoo:
    def test_zoo_contains_paper_models(self):
        assert {"RMsmall", "RMmed", "RMlarge"}.issubset(MODEL_ZOO)
        assert get_model_spec("RMlarge").reference_macs_per_item == 180_000

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_model_spec("RMgigantic")

    def test_pareto_ordering(self):
        specs = criteo_model_specs()
        macs = [s.reference_macs_per_item for s in specs]
        errors = [s.paper_error_percent for s in specs]
        noises = [s.score_noise for s in specs]
        assert macs == sorted(macs)
        assert errors == sorted(errors, reverse=True)
        assert noises == sorted(noises, reverse=True)

    def test_reference_costs_match_table1(self):
        assert RM_SMALL.reference_storage_bytes == 1 * 1024**3
        assert RM_MED.reference_storage_bytes == 4 * 1024**3
        assert RM_LARGE.reference_storage_bytes == 8 * 1024**3
        assert RM_SMALL.embedding_dim == 4
        assert RM_MED.embedding_dim == 16
        assert RM_LARGE.embedding_dim == 32

    def test_build_model_dlrm_and_neumf(self):
        dlrm = build_model(RM_SMALL, [50] * 26, num_dense=13)
        assert isinstance(dlrm, DLRM)
        nmf = build_model(movielens_model_specs()[0], [100, 80])
        assert isinstance(nmf, NeuMF)

    def test_neumf_requires_two_tables(self):
        with pytest.raises(ValueError):
            build_model(movielens_model_specs()[0], [100, 80, 60])

    def test_scaled_cost(self):
        cost = RM_LARGE.reference_cost()
        scaled = cost.scaled(4.0)
        assert scaled.reference_storage_bytes == 4 * cost.reference_storage_bytes
        with pytest.raises(ValueError):
            cost.scaled(0.0)


class TestTrainer:
    def test_criteo_training_improves_over_epochs(self):
        dataset = CriteoSynthetic(CriteoConfig(table_size=300)).build_dataset(
            num_train=1500, num_test=400
        )
        model = build_model(RM_SMALL, dataset.table_sizes, num_dense=13, seed=3)
        trainer = Trainer(model, lr=0.01, batch_size=128, seed=3)
        pre_training_loss = trainer.evaluate_loss(dataset.test)
        history = trainer.fit(dataset, epochs=3)
        assert min(history.test_loss) < pre_training_loss
        assert 0.0 <= history.final_test_error <= 100.0

    def test_movielens_training_runs(self):
        ml = MovieLensSynthetic(MovieLensConfig(num_users=200, num_items=150))
        dataset = ml.build_dataset(num_train=800, num_test=200)
        model = build_model(movielens_model_specs()[0], dataset.table_sizes, seed=1)
        trainer = Trainer(model, lr=0.01, batch_size=128)
        history = trainer.fit(dataset, epochs=2)
        assert len(history.train_loss) == 2

    def test_fit_history_equals_separate_evaluation_with_one_test_forward(self):
        dataset = CriteoSynthetic(CriteoConfig(table_size=200)).build_dataset(
            num_train=600, num_test=300
        )

        def trainer():
            model = build_model(RM_SMALL, dataset.table_sizes, num_dense=13, seed=4)
            return Trainer(model, lr=0.01, batch_size=128, seed=4)

        fitted = trainer()
        test_forwards = []
        forward = fitted.model.forward

        def counting_forward(dense, sparse):
            test_forwards.append(dense is dataset.test.dense)
            return forward(dense, sparse)

        fitted.model.forward = counting_forward
        history = fitted.fit(dataset, epochs=3)
        assert sum(test_forwards) == 3

        separate = trainer()
        for epoch in range(3):
            assert separate._run_epoch(dataset.train) == history.train_loss[epoch]
            assert separate.evaluate_loss(dataset.test) == history.test_loss[epoch]
            assert evaluate_error(separate.model, dataset.test) == history.test_error[epoch]

    def test_evaluate_error_threshold_validation(self):
        dataset = CriteoSynthetic(CriteoConfig(table_size=100)).build_dataset(
            num_train=200, num_test=80
        )
        model = build_model(RM_SMALL, dataset.table_sizes, num_dense=13)
        with pytest.raises(ValueError):
            evaluate_error(model, dataset.test, threshold=1.5)

    def test_invalid_optimizer_rejected(self):
        dataset = CriteoSynthetic(CriteoConfig(table_size=100)).build_dataset(
            num_train=100, num_test=50
        )
        model = build_model(RM_SMALL, dataset.table_sizes, num_dense=13)
        with pytest.raises(ValueError):
            Trainer(model, optimizer="rmsprop")
