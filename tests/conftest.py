"""Shared fixtures: the full realization sweep used by the acceptance suite."""

import pytest

from kronjord.kronecker import is_in_ijt
from kronjord.pipeline import realize

SWEEP_RS = (2, 3, 4)
SWEEP_MAX_TOTAL = 14
MASTER_SEED = 20240


def sweep_pairs(r, max_total=SWEEP_MAX_TOTAL):
    """All (c, d) with d >= 1 and d + c <= max_total that lie in IJT."""
    out = []
    for d in range(1, max_total):
        for c in range(0, max_total - d + 1):
            if is_in_ijt(r, c, d)[0]:
                out.append((c, d))
    return out


def derived_seed(r, c, d):
    """Independent per-witness seed derived from the master seed."""
    return MASTER_SEED * 1000003 + r * 10007 + c * 101 + d


@pytest.fixture(scope="session")
def witness_sweep():
    """Every realizable (c, d) for r in {2, 3, 4} up to total dimension 14."""
    witnesses = []
    for r in SWEEP_RS:
        for (c, d) in sweep_pairs(r):
            witnesses.append((r, c, d, realize(r, c, d)))
    return witnesses
