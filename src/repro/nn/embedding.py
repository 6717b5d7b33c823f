"""Embedding tables and embedding-bag collections.

Recommendation models map sparse categorical inputs to dense latent vectors
through embedding tables.  DLRM uses one table per categorical feature and a
sum-pooled "embedding bag" lookup.  The tables dominate the model's memory
footprint and their access pattern (power-law over rows) drives the caching
behaviour that the hardware models in :mod:`repro.accel` exploit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.init import normal_init
from repro.nn.layers import Layer


class EmbeddingTable(Layer):
    """A single embedding table of shape ``(num_rows, dim)``.

    ``forward`` takes integer indices of shape ``(batch,)`` or
    ``(batch, bag)`` and returns dense vectors.  Multi-index bags are
    sum-pooled, matching DLRM's EmbeddingBag-with-sum semantics.
    """

    def __init__(
        self,
        num_rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        std: float = 0.01,
    ) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError(f"table dimensions must be positive, got {num_rows}x{dim}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = normal_init(rng, (num_rows, dim), std=std)
        self.grad_weight = np.zeros_like(self.weight)
        self._indices: np.ndarray | None = None

    @classmethod
    def view(cls, weight: np.ndarray, grad_weight: np.ndarray) -> EmbeddingTable:
        """A table over existing ``weight`` / ``grad_weight`` arrays, without copying them."""
        table = cls.__new__(cls)
        table.weight, table.grad_weight, table._indices = weight, grad_weight, None
        return table

    @property
    def num_rows(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_rows):
            raise IndexError(
                f"embedding index out of range [0, {self.num_rows}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        self._indices = indices
        if indices.ndim == 1:
            return self.weight[indices]
        if indices.ndim == 2:
            return self.weight[indices].sum(axis=1)
        raise ValueError(f"indices must be 1-D or 2-D, got shape {indices.shape}")

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._indices is None:
            raise RuntimeError("backward called before forward")
        indices = self._indices
        if indices.ndim == 1:
            np.add.at(self.grad_weight, indices, grad_out)
        else:
            bag = indices.shape[1]
            flat_idx = indices.reshape(-1)
            flat_grad = np.repeat(grad_out, bag, axis=0)
            np.add.at(self.grad_weight, flat_idx, flat_grad)
        # Embedding inputs are indices, not differentiable values.
        return np.zeros_like(grad_out)

    def parameters(self) -> list[np.ndarray]:
        return [self.weight]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight]

    def num_parameters(self) -> int:
        return self.weight.size

    def storage_bytes(self, bytes_per_element: int = 4) -> int:
        """Storage footprint of the table at serving precision (fp32 default)."""
        return self.weight.size * bytes_per_element


class EmbeddingBagCollection(Layer):
    """A collection of embedding tables, one per categorical feature.

    ``forward`` takes an integer array of shape ``(batch, num_tables)`` holding
    one index per table and returns the concatenation of the per-table
    lookups, shape ``(batch, num_tables * dim)``.

    The tables share one flat ``(sum(rows), dim)`` weight array and one
    gradient array; each table's ``weight`` and ``grad_weight`` are row views
    into them.  A lookup is one gather at ``indices + offsets`` and a backward
    pass one scatter-add, so the work scales with the lookups made, not with
    the number of tables.  ``zero_grad`` clears only the rows scattered into
    since the last zero -- gradients written through a table view directly
    are the caller's to clear.  ``parameters()`` lists the per-table views,
    not the flat array: dense Adam over 26 cache-sized arrays is faster than
    over one that spills the cache.
    """

    def __init__(
        self,
        table_sizes: Sequence[int],
        dim: int,
        rng: np.random.Generator | None = None,
        std: float = 0.01,
    ) -> None:
        if not table_sizes:
            raise ValueError("at least one embedding table is required")
        if dim <= 0 or min(table_sizes) <= 0:
            raise ValueError(f"table dimensions must be positive, got {min(table_sizes)}x{dim}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.table_sizes = np.asarray(table_sizes, dtype=np.int64)
        self.offsets = np.cumsum(self.table_sizes) - self.table_sizes
        self.weight = np.empty((int(self.table_sizes.sum()), dim))
        self.grad_weight = np.zeros(self.weight.shape)
        self.tables: list[EmbeddingTable] = []
        # One draw per table, in table order: the same values as separate tables.
        for lo, rows in zip(self.offsets, self.table_sizes):
            block = slice(lo, lo + rows)
            self.weight[block] = normal_init(rng, (rows, dim), std=std)
            self.tables.append(EmbeddingTable.view(self.weight[block], self.grad_weight[block]))
        self._rows: np.ndarray | None = None
        self._touched: list[np.ndarray] = []

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[1] != self.num_tables:
            raise ValueError(
                f"expected indices of shape (batch, {self.num_tables}), got {indices.shape}"
            )
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        if indices.size:
            low, high = indices.min(axis=0), indices.max(axis=0)
            bad = (low < 0) | (high >= self.table_sizes)
            if bad.any():
                t = int(bad.argmax())
                raise IndexError(
                    f"embedding index out of range [0, {self.table_sizes[t]}) in table {t}: "
                    f"min={low[t]}, max={high[t]}"
                )
        # int64 first: uint64 + int64 offsets would promote to float64.
        self._rows = indices.astype(np.int64, copy=False) + self.offsets
        lookups = np.take(self.weight, self._rows, axis=0)
        return lookups.reshape(len(indices), self.num_tables * self.dim)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if grad_out.shape[1] != self.num_tables * self.dim:
            raise ValueError(
                f"expected gradient width {self.num_tables * self.dim}, got {grad_out.shape[1]}"
            )
        if self._rows is None:
            raise RuntimeError("backward called before forward")
        rows = self._rows.reshape(-1)
        # Scatter element by element into the raveled gradient: numpy's 1-D
        # add.at is ~3x faster than the row-wise form and adds in the same order.
        elements = (rows[:, None] * self.dim + np.arange(self.dim)).reshape(-1)
        np.add.at(self.grad_weight.reshape(-1), elements, grad_out.reshape(-1))
        self._touched.append(rows)
        return np.zeros_like(grad_out)

    def zero_grad(self) -> None:
        if self._touched:
            self.grad_weight[np.concatenate(self._touched)] = 0.0
            self._touched.clear()

    def parameters(self) -> list[np.ndarray]:
        return [table.weight for table in self.tables]

    def gradients(self) -> list[np.ndarray]:
        return [table.grad_weight for table in self.tables]

    def num_parameters(self) -> int:
        return self.weight.size

    def storage_bytes(self, bytes_per_element: int = 4) -> int:
        return self.weight.size * bytes_per_element

    def lookups_per_sample(self) -> int:
        """Number of embedding-vector fetches one inference sample performs."""
        return self.num_tables
