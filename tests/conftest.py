"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest

from monogamy.rand import rng_for


@pytest.fixture
def rng() -> np.random.Generator:
    return rng_for(20240817)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def reorder_systems(m: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Oracle: permute tensor factors so factor order[i] becomes the i-th factor."""
    n = len(dims)
    assert sorted(order) == list(range(n)), f"{order} is not a permutation"
    d = math.prod(dims)
    axes = list(order) + [i + n for i in order]
    return np.asarray(m).reshape(tuple(dims) * 2).transpose(axes).reshape(d, d)
