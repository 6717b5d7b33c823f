"""Minimal neural-network substrate used by the recommendation models.

The paper implements its models in PyTorch.  This package provides the small
subset of functionality those models need -- dense layers, activations,
embedding tables, losses and optimizers -- with explicit ``forward`` /
``backward`` methods and no external dependencies beyond numpy.

The substrate is intentionally simple: every layer owns its parameters and
gradients as numpy arrays, and a model is a composition of layers.  This keeps
the training loop transparent and lets the hardware models introspect layer
shapes to derive FLOP and byte counts.
"""

from repro.nn.init import he_uniform, normal_init, xavier_uniform
from repro.nn.layers import MLP, Identity, Layer, Linear, ReLU, Sigmoid, sigmoid
from repro.nn.embedding import EmbeddingBagCollection, EmbeddingTable
from repro.nn.loss import BCEWithLogitsLoss, MSELoss
from repro.nn.optim import SGD, Adam, Optimizer

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Sigmoid",
    "sigmoid",
    "Identity",
    "MLP",
    "EmbeddingTable",
    "EmbeddingBagCollection",
    "BCEWithLogitsLoss",
    "MSELoss",
    "SGD",
    "Adam",
    "Optimizer",
    "xavier_uniform",
    "he_uniform",
    "normal_init",
]
