"""Seeded random scalar fields.

Used by :func:`pqncheck.structures.check_pqn` for its probe functions.
Everything is driven by a caller-supplied ``random.Random`` so identical
seeds give identical fields.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalar import Chart, ScalarField


def random_scalar_field(
    chart: Chart,
    rng: random.Random,
    *,
    max_terms: int = 3,
    allow_exp: bool = True,
    allow_negative_powers: bool = False,
) -> ScalarField:
    """A small random field: a few monomials, optionally times exp of an affine form."""
    field = chart.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = chart.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) or 1)
        for _ in range(rng.randint(0, 2)):
            idx = rng.randrange(chart.dim)
            term *= chart.coordinate(idx) ** rng.randint(1, 2)
        if allow_exp and rng.random() < 0.4:
            argument = chart.zero()
            for _ in range(rng.randint(1, 2)):
                argument += rng.choice([-1, 1]) * chart.coordinate(rng.randrange(chart.dim))
            term *= argument.exp()
        if allow_negative_powers and chart.n >= 2 and rng.random() < 0.3:
            i = rng.randrange(chart.n)
            j = rng.randrange(chart.n)
            if i != j:
                term *= (chart.coordinate(i) - chart.coordinate(j)) ** -rng.randint(1, 2)
        field += term
    return field
