"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ksat.embeddings import EmbeddingConfig
from ksat.knowledge import default_tree
from ksat.model import KsatModel

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tree():
    return default_tree()


@pytest.fixture
def make_model(tree):
    """Factory for small models with non-zero value projections.

    ``value_scale`` defaults to 0.25 here (unlike the zero-valued production
    default) so forward activations exercise the graph-context penalty path.
    """

    def build(
        dimension: int = 8,
        seed: int = 0,
        value_scale: float = 0.25,
        epsilon: float = 1e-6,
        kg_bias_enabled: bool = True,
        embed_seed: int = 0,
        embeddings_table=None,
    ) -> KsatModel:
        model = KsatModel.initialize(
            tree,
            EmbeddingConfig(dimension=dimension, seed=embed_seed),
            seed=seed,
            epsilon=epsilon,
            value_scale=value_scale,
            embeddings_table=embeddings_table,
        )
        model.kg_bias_enabled = kg_bias_enabled
        return model

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
