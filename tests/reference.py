"""Reference code and fixtures that only the tests use.

The CLI and the checkers never call these: the coordinate 1-forms dx_i, dq_i
and dp_i, a field's exact value from its printed tree, the Lie bracket of vector
fields, the Lie derivative of forms by the Cartan formula, the deformed bracket,
the torsion evaluated on any pair of vector fields, the paper's explicit n = 2
matrices, and random forms, vector fields and tensors.
They are oracles and inputs for property checks of the package's operators.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from pqncheck.calculus import cartan_d
from pqncheck.exterior import Form, Tensor11, VectorField, interior
from pqncheck.randgen import random_scalar_field
from pqncheck.scalar import Chart, Const, Coord, Point, Power, Product, ScalarField, Sum, exp


def dx(chart: Chart, index: int) -> Form:
    """The coordinate 1-form with 0-based index."""
    return Form(chart, 1, {(index,): 1})


def dq(chart: Chart, i: int) -> Form:
    """The coordinate 1-form dq_i (1-based)."""
    return Form(chart, 1, {(chart.q_index(i),): 1})


def dp(chart: Chart, i: int) -> Form:
    """The coordinate 1-form dp_i (1-based)."""
    return Form(chart, 1, {(chart.p_index(i),): 1})


def exact_value(field: ScalarField, point: Point) -> Fraction:
    """A field's exact value at a point of whole numbers, from a ``Fraction`` walk of its canonical tree.

    The oracle reads only the printed tree, not the ring.  A field with an exp has no exact value
    there, and raises ``TypeError``.
    """
    values = [Fraction(value) for value in point.values]

    def walk(node) -> Fraction:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Coord):
            return values[node.index]
        if isinstance(node, Sum):
            return sum([walk(term) for term in node.terms], Fraction(0))
        if isinstance(node, Product):
            return math.prod([walk(factor) for factor in node.factors], start=Fraction(1))
        if isinstance(node, Power):
            return walk(node.base) ** node.exponent
        raise TypeError(f"no exact value for {node!r}")

    return walk(field.root)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket of vector fields: [X,Y]^i = X(Y^i) - Y(X^i)."""
    return VectorField(x.chart, {i: x(c) for i, c in y.terms()}) - VectorField(x.chart, {i: y(c) for i, c in x.terms()})


def cartan_lie_derivative(x: VectorField, form: Form) -> Form:
    """L_X a by the Cartan formula i_X d a + d i_X a; on a 0-form f it is X(f)."""
    if form.degree == 0:
        return Form.from_scalar(x(form.as_scalar()))
    return interior(x, cartan_d(form)) + cartan_d(interior(x, form))


def deformed_lie_bracket(tensor: Tensor11, x: VectorField, y: VectorField) -> VectorField:
    """The bracket [X,Y]_N = [NX,Y] + [X,NY] - N[X,Y]."""
    return lie_bracket(tensor.apply(x), y) + lie_bracket(x, tensor.apply(y)) - tensor.apply(lie_bracket(x, y))


def torsion_at(torsion: list[Form], x: VectorField, y: VectorField) -> VectorField:
    """T(X, Y), whose component i is T^i(X, Y), from ``nijenhuis_torsion``'s component 2-forms T^i."""
    return VectorField(x.chart, [component.apply([x, y]) for component in torsion])


class TwoParticleFixture(NamedTuple):
    """Literal expected values for the explicit n = 2 formulas."""

    chart: Chart
    v: ScalarField
    pi_sharp_matrix: tuple[tuple[ScalarField, ...], ...]
    n_matrix: tuple[tuple[ScalarField, ...], ...]
    n_hat_matrix: tuple[tuple[ScalarField, ...], ...]
    omega: Form
    d_n_omega: Form
    omega_self_bracket: Form


def two_particle_fixture() -> TwoParticleFixture:
    """The displayed n = 2 matrices and both induced 3-form pieces.

    The potential q1*q2 + exp(q1 - q2) exercises both the polynomial and the
    exponential paths.
    """
    chart = Chart(2)
    q1, q2, p1, p2 = chart.q_index(1), chart.q_index(2), chart.p_index(1), chart.p_index(2)
    v = chart.q(1) * chart.q(2) + exp(chart.q(1) - chart.q(2))
    one, zero = chart.one(), chart.zero()
    pp1, pp2 = chart.p(1), chart.p(2)
    return TwoParticleFixture(
        chart,
        v,
        pi_sharp_matrix=(
            (zero, zero, one, zero),
            (zero, zero, zero, one),
            (-one, zero, zero, zero),
            (zero, -one, zero, zero),
        ),
        n_matrix=(
            (pp1, zero, zero, zero),
            (zero, pp2, zero, zero),
            (zero, zero, pp1, zero),
            (zero, zero, zero, pp2),
        ),
        n_hat_matrix=(
            (pp1, zero, zero, one),
            (zero, pp2, -one, zero),
            (zero, -v, pp1, zero),
            (v, zero, zero, pp2),
        ),
        omega=Form(chart, 2, {(q2, q1): v, (p2, p1): 1}),
        d_n_omega=Form(chart, 3, {(q1, q2, p1): v, (q1, q2, p2): v}),
        omega_self_bracket=Form(chart, 3, {(q1, q2, p1): 2 * v.partial(q2), (q1, q2, p2): -2 * v.partial(q1)}),
    )


def random_form(
    chart: Chart,
    degree: int,
    rng: random.Random,
    *,
    max_terms: int = 3,
    allow_exp: bool = True,
) -> Form:
    """A random form of the given degree with a few nonzero components."""
    keys = list(combinations(range(chart.dim), degree))
    if not keys:
        return Form.zero(chart, degree)
    rng.shuffle(keys)
    picked = keys[: max(1, min(max_terms, len(keys)))]
    return Form(
        chart,
        degree,
        {key: random_scalar_field(chart, rng, allow_exp=allow_exp) for key in picked},
    )


def random_vector_field(chart: Chart, rng: random.Random, *, allow_exp: bool = True) -> VectorField:
    return VectorField(
        chart,
        [
            random_scalar_field(chart, rng, max_terms=2, allow_exp=allow_exp)
            if rng.random() < 0.7
            else chart.zero()
            for _ in range(chart.dim)
        ],
    )


def random_tensor(chart: Chart, rng: random.Random, *, allow_exp: bool = False) -> Tensor11:
    entries = [
        [
            random_scalar_field(chart, rng, max_terms=1, allow_exp=allow_exp)
            if rng.random() < 0.4
            else 0
            for _ in range(chart.dim)
        ]
        for _ in range(chart.dim)
    ]
    return Tensor11(chart, entries)
