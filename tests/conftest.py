from __future__ import annotations

import random

import pytest

from pqncheck.models import canonical_nijenhuis, canonical_poisson
from pqncheck.scalar import Chart, ScalarField


def fd_partial(field: ScalarField, point, index: int, h: float = 1e-5) -> float:
    """Central finite difference, the derivative oracle independent of the symbolic path."""
    up = list(point)
    dn = list(point)
    up[index] += h
    dn[index] -= h
    return (field.evaluate(up) - field.evaluate(dn)) / (2 * h)


def lagrange_identity(chart: Chart) -> ScalarField:
    """sum_i prod_{j != i} 1/(q_i - q_j): zero for n >= 2, but not in canonical form."""
    q = [chart.q(i) for i in range(1, chart.n + 1)]
    total = chart.zero()
    for i, qi in enumerate(q):
        term = chart.one()
        for j, qj in enumerate(q):
            if j != i:
                term = term / (qi - qj)
        total = total + term
    return total


def seeded(seed: int = 20240) -> random.Random:
    return random.Random(seed)


@pytest.fixture(scope="session")
def chart2() -> Chart:
    return Chart(2)


@pytest.fixture(scope="session")
def chart3() -> Chart:
    return Chart(3)


@pytest.fixture(scope="session")
def canonical2(chart2):
    return canonical_poisson(chart2), canonical_nijenhuis(chart2)


@pytest.fixture(scope="session")
def canonical3(chart3):
    return canonical_poisson(chart3), canonical_nijenhuis(chart3)
