"""Neural matrix factorization (NeuMF, He et al. 2017).

Used by the paper for the MovieLens datasets.  NeuMF combines two towers over
user and item embeddings:

* **GMF** (generalized matrix factorization): element-wise product of the
  user and item embeddings,
* **MLP tower**: the concatenated user/item embeddings pushed through an MLP,

whose outputs are concatenated and mapped by a final linear layer to one
preference logit.  Compared with DLRM the model is MLP-dominated with only two
(user, item) embedding tables -- which is exactly why the optimal multi-stage
configuration differs between Criteo and MovieLens in the paper's Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import RecommendationModel
from repro.models.cost import ModelCost
from repro.nn import MLP, EmbeddingTable, Layer, Linear


@dataclass(frozen=True)
class NeuMFConfig:
    """Hyperparameters of a NeuMF instance.

    ``mlp_hidden`` lists the hidden widths of the MLP tower; its input width
    is ``2 * embedding_dim`` (user and item embeddings concatenated) and it is
    appended automatically.
    """

    name: str
    num_users: int
    num_items: int
    embedding_dim: int
    mlp_hidden: tuple[int, ...]
    reference_storage_bytes: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if not self.mlp_hidden:
            raise ValueError("mlp_hidden must contain at least one width")


class NeuMF(RecommendationModel):
    """NeuMF with explicit forward/backward over the numpy substrate."""

    def __init__(self, config: NeuMFConfig) -> None:
        self.config = config
        self.name = config.name
        rng = np.random.default_rng(config.seed)
        d = config.embedding_dim
        self.user_gmf = EmbeddingTable(config.num_users, d, rng=rng)
        self.item_gmf = EmbeddingTable(config.num_items, d, rng=rng)
        self.user_mlp = EmbeddingTable(config.num_users, d, rng=rng)
        self.item_mlp = EmbeddingTable(config.num_items, d, rng=rng)
        self.mlp = MLP([2 * d, *config.mlp_hidden], rng=rng, final_activation="relu")
        self.head = Linear(d + config.mlp_hidden[-1], 1, rng=rng)
        self._cache: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        sparse = np.asarray(sparse)
        if sparse.ndim != 2 or sparse.shape[1] != 2:
            raise ValueError(
                f"NeuMF expects sparse features of shape (batch, 2) holding "
                f"[user_id, item_id], got {sparse.shape}"
            )
        users = sparse[:, 0]
        items = sparse[:, 1]
        u_gmf = self.user_gmf.forward(users)
        i_gmf = self.item_gmf.forward(items)
        gmf_out = u_gmf * i_gmf
        u_mlp = self.user_mlp.forward(users)
        i_mlp = self.item_mlp.forward(items)
        mlp_in = np.concatenate([u_mlp, i_mlp], axis=1)
        mlp_out = self.mlp.forward(mlp_in)
        head_in = np.concatenate([gmf_out, mlp_out], axis=1)
        logits = self.head.forward(head_in)
        self._cache = {"u_gmf": u_gmf, "i_gmf": i_gmf}
        return logits

    def backward(self, grad_logits: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        d = self.config.embedding_dim
        grad_head_in = self.head.backward(grad_logits)
        grad_gmf = grad_head_in[:, :d]
        grad_mlp_out = grad_head_in[:, d:]

        # GMF: out = u * i  =>  du = grad * i, di = grad * u.
        self.user_gmf.backward(grad_gmf * self._cache["i_gmf"])
        self.item_gmf.backward(grad_gmf * self._cache["u_gmf"])

        grad_mlp_in = self.mlp.backward(grad_mlp_out)
        self.user_mlp.backward(grad_mlp_in[:, :d])
        self.item_mlp.backward(grad_mlp_in[:, d:])

    # ------------------------------------------------------------------ #
    # Parameters & cost
    # ------------------------------------------------------------------ #
    def modules(self) -> list[Layer]:
        return [self.user_gmf, self.item_gmf, self.user_mlp, self.item_mlp, self.mlp, self.head]

    def cost(self) -> ModelCost:
        cfg = self.config
        macs = (self.mlp.flops_per_sample() + self.head.flops_per_sample()) // 2
        macs += cfg.embedding_dim  # GMF element-wise product
        mlp_sizes = (2 * cfg.embedding_dim, *cfg.mlp_hidden)
        layer_dims = tuple((mlp_sizes[i], mlp_sizes[i + 1]) for i in range(len(mlp_sizes) - 1))
        layer_dims = layer_dims + ((cfg.embedding_dim + cfg.mlp_hidden[-1], 1),)
        return ModelCost(
            name=cfg.name,
            macs_per_item=macs,
            # Four lookups per item: GMF and MLP towers each fetch user + item.
            embedding_lookups_per_item=4,
            embedding_dim=cfg.embedding_dim,
            mlp_parameters=self.mlp.num_parameters() + self.head.num_parameters(),
            embedding_rows=2 * (cfg.num_users + cfg.num_items),
            reference_storage_bytes=cfg.reference_storage_bytes,
            mlp_layer_dims=layer_dims,
        )
