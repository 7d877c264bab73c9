"""Seeded random scalar fields.

Used by :func:`pqncheck.structures.check_pqn` for its probe functions.
Everything is driven by a caller-supplied ``random.Random`` so identical
seeds give identical fields.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalar import Chart, Coord, Exp, Node, Product, ScalarField, Sum, Const


def random_scalar_field(
    chart: Chart,
    rng: random.Random,
    *,
    max_terms: int = 3,
    allow_exp: bool = True,
    allow_negative_powers: bool = False,
) -> ScalarField:
    """A small random field: a few monomials, optionally times exp of an affine form."""
    terms: list[Node] = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if coeff == 0:
            coeff = Fraction(1)
        factors: list[Node] = [Const(coeff)]
        for _ in range(rng.randint(0, 2)):
            idx = rng.randrange(chart.dim)
            factors.extend([Coord(idx)] * rng.randint(1, 2))
        if allow_exp and rng.random() < 0.4:
            arg_terms: list[Node] = []
            for _ in range(rng.randint(1, 2)):
                arg_terms.append(Product((Const(Fraction(rng.choice([-1, 1]))), Coord(rng.randrange(chart.dim)))))
            factors.append(Exp(Sum(tuple(arg_terms))))
        if allow_negative_powers and chart.n >= 2 and rng.random() < 0.3:
            i = rng.randrange(chart.n)
            j = rng.randrange(chart.n)
            if i != j:
                from .scalar import Power

                diff = Sum((Coord(i), Product((Const(Fraction(-1)), Coord(j)))))
                factors.append(Power(diff, -rng.randint(1, 2)))
        terms.append(Product(tuple(factors)))
    return ScalarField(chart, Sum(tuple(terms)))
