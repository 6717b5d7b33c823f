"""Unit tests for embeddings, losses and optimizers (repro.nn)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    BCEWithLogitsLoss,
    EmbeddingBagCollection,
    EmbeddingTable,
    MSELoss,
    SGD,
)


class TestEmbeddingTable:
    def test_lookup_returns_rows(self):
        table = EmbeddingTable(10, 4, rng=np.random.default_rng(0))
        idx = np.array([0, 3, 9])
        np.testing.assert_allclose(table.forward(idx), table.weight[idx])

    def test_bag_lookup_sums(self):
        table = EmbeddingTable(10, 4, rng=np.random.default_rng(0))
        idx = np.array([[0, 1], [2, 2]])
        expected = table.weight[idx].sum(axis=1)
        np.testing.assert_allclose(table.forward(idx), expected)

    def test_out_of_range_raises(self):
        table = EmbeddingTable(5, 2)
        with pytest.raises(IndexError):
            table.forward(np.array([5]))

    def test_float_indices_rejected(self):
        table = EmbeddingTable(5, 2)
        with pytest.raises(TypeError):
            table.forward(np.array([0.5]))

    def test_backward_accumulates_per_row(self):
        table = EmbeddingTable(6, 3, rng=np.random.default_rng(1))
        idx = np.array([2, 2, 4])
        table.forward(idx)
        grad = np.ones((3, 3))
        table.backward(grad)
        np.testing.assert_allclose(table.grad_weight[2], 2.0 * np.ones(3))
        np.testing.assert_allclose(table.grad_weight[4], np.ones(3))
        np.testing.assert_allclose(table.grad_weight[0], np.zeros(3))

    def test_storage_bytes(self):
        table = EmbeddingTable(100, 8)
        assert table.storage_bytes() == 100 * 8 * 4


class TestEmbeddingBagCollection:
    def test_concatenates_tables(self):
        coll = EmbeddingBagCollection([5, 7], 3, rng=np.random.default_rng(0))
        idx = np.array([[1, 2], [0, 6]])
        out = coll.forward(idx)
        assert out.shape == (2, 6)
        np.testing.assert_allclose(out[:, :3], coll.tables[0].weight[idx[:, 0]])
        np.testing.assert_allclose(out[:, 3:], coll.tables[1].weight[idx[:, 1]])

    def test_wrong_table_count_raises(self):
        coll = EmbeddingBagCollection([5, 7], 3)
        with pytest.raises(ValueError):
            coll.forward(np.array([[1, 2, 3]]))

    def test_out_of_range_names_the_table(self):
        coll = EmbeddingBagCollection([5, 7, 4], 2)
        with pytest.raises(IndexError, match="table 2"):
            coll.forward(np.array([[0, 6, 4]]))
        with pytest.raises(IndexError, match="table 0"):
            coll.forward(np.array([[-1, 0, 0]]))

    def test_float_indices_rejected(self):
        coll = EmbeddingBagCollection([5, 7], 2)
        with pytest.raises(TypeError):
            coll.forward(np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_any_integer_dtype_indexes(self, dtype):
        coll = EmbeddingBagCollection([5, 7], 2, rng=np.random.default_rng(0))
        idx = np.array([[4, 6], [0, 1]])
        np.testing.assert_array_equal(coll.forward(idx.astype(dtype)), coll.forward(idx))

    def test_nonpositive_table_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingBagCollection([5, 0], 2)

    def test_empty_batch(self):
        coll = EmbeddingBagCollection([5, 7], 3)
        assert coll.forward(np.zeros((0, 2), dtype=int)).shape == (0, 6)

    def test_flat_buffer_matches_separate_tables(self):
        coll = EmbeddingBagCollection([5, 7, 3], 4, rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for rows, table in zip([5, 7, 3], coll.tables):
            np.testing.assert_array_equal(table.weight, EmbeddingTable(rows, 4, rng=rng).weight)

    def test_adam_step_on_table_views_reaches_forward(self):
        coll = EmbeddingBagCollection([5, 7], 3, rng=np.random.default_rng(0))
        for table in coll.tables:
            assert np.shares_memory(table.weight, coll.weight)
            assert np.shares_memory(table.grad_weight, coll.grad_weight)
        idx = np.array([[1, 2], [1, 6]])
        before = coll.forward(idx)
        coll.backward(np.ones_like(before))
        Adam(coll.parameters(), coll.gradients(), lr=0.1).step()
        after = coll.forward(idx)
        assert np.all(after < before)
        np.testing.assert_array_equal(after[:, :3], coll.tables[0].weight[idx[:, 0]])
        np.testing.assert_array_equal(after[:, 3:], coll.tables[1].weight[idx[:, 1]])

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        ops=st.lists(st.tuples(st.booleans(), st.integers(1, 5), st.integers(0, 2**32 - 1))),
    )
    @example(sizes=[6, 6], ops=[(False, 3, 1), (False, 3, 2)])
    @settings(max_examples=60, deadline=None)
    def test_zero_grad_clears_every_touched_row(self, sizes, ops):
        coll = EmbeddingBagCollection(sizes, 2)
        for zero, batch, seed in ops:
            if zero:
                coll.zero_grad()
                continue
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, sizes, size=(batch, len(sizes)))
            coll.forward(idx)
            coll.backward(rng.standard_normal((batch, 2 * len(sizes))))
        coll.zero_grad()
        assert not coll.grad_weight.any()
        assert not any(g.any() for g in coll.gradients())

    def test_backward_accumulates_until_zero(self):
        coll = EmbeddingBagCollection([4, 4], 1)
        idx = np.array([[1, 3], [1, 0]])
        coll.forward(idx)
        coll.backward(np.ones((2, 2)))
        coll.backward(np.ones((2, 2)))
        np.testing.assert_array_equal(coll.tables[0].grad_weight[:, 0], [0, 4, 0, 0])
        np.testing.assert_array_equal(coll.tables[1].grad_weight[:, 0], [2, 0, 0, 2])

    def test_lookups_per_sample(self):
        coll = EmbeddingBagCollection([5] * 26, 4)
        assert coll.lookups_per_sample() == 26

    @given(num_tables=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_parameter_count_scales_with_tables(self, num_tables):
        coll = EmbeddingBagCollection([10] * num_tables, 4)
        assert coll.num_parameters() == num_tables * 10 * 4


class TestLosses:
    def test_bce_matches_reference(self):
        loss = BCEWithLogitsLoss()
        logits = np.array([0.0, 2.0, -2.0])
        targets = np.array([0.0, 1.0, 0.0])
        expected = np.mean(
            np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0) - logits * targets
        )
        assert loss.forward(logits, targets) == pytest.approx(expected)

    def test_bce_gradient_is_sigmoid_minus_target(self):
        loss = BCEWithLogitsLoss()
        logits = np.array([0.5, -1.0])
        targets = np.array([1.0, 0.0])
        loss.forward(logits, targets)
        grad = loss.backward().reshape(-1)
        probs = 1 / (1 + np.exp(-logits))
        np.testing.assert_allclose(grad, (probs - targets) / 2)

    def test_bce_extreme_logits_stable(self):
        loss = BCEWithLogitsLoss()
        value = loss.forward(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value) and value < 1e-6

    def test_bce_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss().forward(np.array([0.0]), np.array([2.0]))

    def test_mse_and_gradient(self):
        loss = MSELoss()
        value = loss.forward(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert value == pytest.approx(2.5)
        np.testing.assert_allclose(loss.backward().reshape(-1), np.array([1.0, 2.0]))


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, 0.5])
        SGD([p], [g], lr=0.1).step()
        np.testing.assert_allclose(p, [0.95, 1.95])

    def test_sgd_momentum_accumulates(self):
        p = np.array([1.0])
        g = np.array([1.0])
        opt = SGD([p], [g], lr=0.1, momentum=0.9)
        opt.step()
        opt.step()
        assert p[0] == pytest.approx(1.0 - 0.1 - 0.1 * 1.9)

    def test_adam_converges_on_quadratic(self):
        p = np.array([5.0])
        g = np.zeros(1)
        opt = Adam([p], [g], lr=0.2)
        for _ in range(200):
            g[...] = 2.0 * p
            opt.step()
        assert abs(p[0]) < 0.1

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            SGD([np.zeros(2)], [np.zeros(3)])

    def test_zero_grad(self):
        g = np.ones(3)
        opt = SGD([np.zeros(3)], [g], lr=0.1)
        opt.zero_grad()
        np.testing.assert_allclose(g, 0.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([np.zeros(1)], [np.zeros(1)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], [np.zeros(1)], lr=-1.0)
