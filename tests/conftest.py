import numpy as np
import pytest

from factorcavity.graphmodel import WeightFamily


def _permuted_alphabet(family: WeightFamily, perm) -> WeightFamily:
    """The family with spins relabelled by ``perm``: old spin s becomes spin perm[s]."""
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(family.q)
    tables = {}
    for k, tabs in family.tables.items():
        moved = []
        for t in tabs:
            for axis in range(k):
                t = np.take(t, inv, axis=axis)
            moved.append(t)
        tables[k] = tuple(moved)
    return WeightFamily(q=family.q, tables=tables,
                        masses={k: v.copy() for k, v in family.masses.items()})


@pytest.fixture
def permuted_alphabet():
    """Relabel a weight family's alphabet, for the symmetry tests."""
    return _permuted_alphabet
