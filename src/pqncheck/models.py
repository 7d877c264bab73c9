"""Factory constructors for the structures handled by this engine.

Each factory returns a :class:`ModelBundle`: the Poisson bivector, the (1,1)
tensor, the deforming 2-form where one exists, and the expected outcome
metadata that the test suite compares against the checker verdicts.

Pair potentials are univariate expression trees in the placeholder
coordinate ``Coord(0)``; the factory substitutes the difference q_i - q_j
before assembling anything.  Strings in the prefix grammar with the symbol
``x`` are accepted too, e.g. ``"(exp x)"`` or ``"(^ x -2)"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import UnsupportedExpressionError
from .exterior import Bivector, Form, Tensor11
from .scalar import (
    Chart,
    Coord,
    Exp,
    Node,
    Power,
    Product,
    ScalarField,
    Sum,
    Const,
    ZeroTestConfig,
    is_zero,
    parse_prefix_tree,
    substitute,
)
from .structures import GeometricStructure

MODEL_NAMES = ("canonical", "open-toda", "closed-toda", "calogero", "pair-potential", "two-particle")

#: Zero-test parameters recommended for inverse-power potentials: a wider
#: separation guard keeps samples off the collision locus, and the tolerance
#: is widened because cubed inverse separations amplify roundoff.
CALOGERO_ZERO_TEST = ZeroTestConfig(separation=5e-2, tolerance=1e-7)


@dataclass(frozen=True)
class ExpectedOutcome:
    """What the checkers should conclude for a model.

    ``involutive_up_to = k`` claims that H_1..H_k pairwise Poisson-commute;
    ``non_involutive`` claims that some pair within the default scan depth
    does not.  ``None``/``False`` make no claim either way.
    """

    structure_class: str  # "PN" | "PqN"
    involutive_up_to: int | None = None
    phi_closed_form: Form | None = None
    non_involutive: bool = False


@dataclass(frozen=True)
class ModelBundle:
    name: str
    chart: Chart
    poisson: Bivector
    tensor: Tensor11
    omega: Form | None
    expected: ExpectedOutcome
    theta: Form | None = None

    def phi(self) -> Form:
        if self.expected.phi_closed_form is not None:
            return self.expected.phi_closed_form
        return Form.zero(self.chart, 3)

    def structure(self) -> GeometricStructure:
        return GeometricStructure(self.chart, self.poisson, self.tensor, self.phi())


# ---------------------------------------------------------------------------
# canonical ingredients
# ---------------------------------------------------------------------------


def canonical_poisson(chart: Chart) -> Bivector:
    """The canonical Poisson bivector: {p_i, q_i} = 1."""
    return Bivector.from_upper(
        chart, {(chart.q_index(i), chart.p_index(i)): -1 for i in range(1, chart.n + 1)}
    )


def canonical_nijenhuis(chart: Chart) -> Tensor11:
    """The diagonal momentum tensor: q_i and p_i directions scaled by p_i."""
    entries = {}
    for i in range(1, chart.n + 1):
        entries[chart.q_index(i), chart.q_index(i)] = entries[chart.p_index(i), chart.p_index(i)] = chart.p(i)
    return Tensor11(chart, entries)


def canonical_symplectic(chart: Chart) -> Form:
    """omega_c = sum dp_i ^ dq_i."""
    return Form(chart, 2, {(chart.p_index(i), chart.q_index(i)): 1 for i in range(1, chart.n + 1)})


def momentum_symplectic(chart: Chart) -> Form:
    """omega_1 = sum p_i dp_i ^ dq_i (the lowering map of omega_c composed with the momentum tensor)."""
    return Form(
        chart, 2, {(chart.p_index(i), chart.q_index(i)): chart.p(i) for i in range(1, chart.n + 1)}
    )


def canonical_deformation_form(chart: Chart) -> Form:
    """The closed 2-form deforming the identity into the momentum tensor: omega_c - omega_1."""
    return canonical_symplectic(chart) - momentum_symplectic(chart)


def canonical_pn(n: int) -> ModelBundle:
    """The free-particle structure: canonical bivector and momentum tensor.

    Its 2-form deforms the identity tensor into the momentum tensor, and the
    trace invariants are in involution at every order.
    """
    chart = Chart(n)
    omega = canonical_deformation_form(chart)
    # theta with d(theta) = omega: sum (p_i - p_i^2/2) dq_i
    theta = Form(
        chart,
        1,
        {(chart.q_index(i),): chart.p(i) - chart.p(i) ** 2 / 2 for i in range(1, chart.n + 1)},
    )
    expected = ExpectedOutcome(
        structure_class="PN",
        involutive_up_to=n,
        phi_closed_form=Form.zero(chart, 3),
    )
    return ModelBundle("canonical", chart, canonical_poisson(chart), canonical_nijenhuis(chart), omega, expected, theta)


# ---------------------------------------------------------------------------
# pair potentials
# ---------------------------------------------------------------------------

_POTENTIAL_SYMBOL = "x"


def potential(spec) -> Node:
    """Coerce a potential spec (node, prefix string with ``x``, or rational) to a node."""
    if isinstance(spec, Node):
        return spec
    if isinstance(spec, str):

        def resolve(token: str) -> Node:
            if token == _POTENTIAL_SYMBOL:
                return Coord(0)
            raise UnsupportedExpressionError(f"unknown symbol {token!r} in a potential")

        return parse_prefix_tree(spec, resolve)
    if isinstance(spec, (int, Fraction)):
        return Const(Fraction(spec))
    raise UnsupportedExpressionError(f"cannot interpret potential spec {spec!r}")


def _potential_uses_only_x(node: Node) -> bool:
    if isinstance(node, Coord):
        return node.index == 0
    if isinstance(node, Const):
        return True
    if isinstance(node, Sum):
        return all(_potential_uses_only_x(t) for t in node.terms)
    if isinstance(node, Product):
        return all(_potential_uses_only_x(f) for f in node.factors)
    if isinstance(node, Power):
        return _potential_uses_only_x(node.base)
    if isinstance(node, Exp):
        return _potential_uses_only_x(node.argument)
    return False


def _univariate_antiderivative(spec: Node) -> Node | None:
    """An antiderivative of a univariate tree in Coord(0), when one exists in the ring.

    Handles rational powers of x, exponentials of affine arguments, and
    negative powers of affine bases; returns None for shapes whose primitive
    leaves the node set (such as 1/x).  Integration constants are zero.
    """
    x = Coord(0)
    line = Chart(1)
    pieces = []
    for mono, coeff in ScalarField(line, spec).poly.items():
        if len(mono) > 1:
            return None
        base, e = mono[0] if mono else (x, 0)
        if base == x and e != -1:
            pieces.append(Product((Const(coeff / (e + 1)), Power(x, e + 1))))
        elif isinstance(base, Exp) and _slope(base.affine):
            pieces.append(Product((Const(coeff / _slope(base.affine)), base)))
        elif isinstance(base, Sum) and e != -1 and _slope(base.poly):
            pieces.append(Product((Const(coeff / ((e + 1) * _slope(base.poly))), Power(base, e + 1))))
        else:
            return None
    # Built as a tree and normalized once: field arithmetic here would add ring
    # operations to every model build.
    return ScalarField(line, Sum(tuple(pieces))).root


def _slope(poly) -> Fraction:
    """The x-coefficient of a polynomial affine in x alone; 0 for any other polynomial."""
    linear = ((Coord(0), 1),)
    if any(mono not in ((), linear) for mono in poly):
        return Fraction(0)
    return poly.get(linear, Fraction(0))


def _normalize_pairs(n: int, potentials: Mapping[tuple[int, int], object]) -> dict[tuple[int, int], Node]:
    out: dict[tuple[int, int], Node] = {}
    for (i, j), spec in potentials.items():
        if not 1 <= i < j <= n:
            raise ValueError(f"potential pair ({i}, {j}) must satisfy 1 <= i < j <= {n}")
        node = potential(spec)
        if not _potential_uses_only_x(node):
            raise UnsupportedExpressionError(
                f"potential for pair ({i}, {j}) must be univariate in the symbol x"
            )
        out[(i, j)] = node
    return out


def pair_differential_display(chart: Chart, fields: Mapping[tuple[int, int], ScalarField]) -> Form:
    """Closed form of the tensor differential of the pair 2-form:
    sum over pairs of V_ij dq_i ^ dq_j ^ (dp_i + dp_j)."""
    return Form(
        chart,
        3,
        (((chart.q_index(i), chart.q_index(j), chart.p_index(m)), v) for (i, j), v in fields.items() for m in (i, j)),
    )


def pair_self_bracket_display(chart: Chart, fields: Mapping[tuple[int, int], ScalarField]) -> Form:
    """Closed form of the pair 2-form's self-bracket:
    2 sum V'_ij dq_i ^ dq_j ^ sum_{k<l} ((delta_il - delta_jl) dp_k +
    (delta_jk - delta_ik) dp_l)."""
    n = chart.n

    def terms():
        for (i, j), v in fields.items():
            qi, qj = chart.q_index(i), chart.q_index(j)
            v_prime = v.partial(qi)
            if v_prime.is_zero_tree:
                continue
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    coeff_k = (1 if l == i else 0) - (1 if l == j else 0)
                    coeff_l = (1 if k == j else 0) - (1 if k == i else 0)
                    for m, coeff in ((k, coeff_k), (l, coeff_l)):
                        if coeff != 0:
                            yield (qi, qj, chart.p_index(m)), v_prime * (2 * coeff)

    return Form(chart, 3, terms())


def _phi_closed_form(chart: Chart, fields: Mapping[tuple[int, int], ScalarField]) -> Form:
    """The induced 3-form of a pair-potential deformation: the differential
    display plus half the self-bracket display."""
    return pair_differential_display(chart, fields) + pair_self_bracket_display(chart, fields) * Fraction(1, 2)


def pair_potential_model(
    n: int,
    potentials: Mapping[tuple[int, int], object],
    *,
    name: str = "pair-potential",
    involutive_up_to: int | None = None,
    non_involutive: bool = False,
) -> ModelBundle:
    """Deformation of the free-particle structure by pairwise single-variable potentials.

    ``potentials`` maps 1-based pairs (i, j) with i < j to univariate specs
    V_ij; unlisted pairs interact only through the momentum part of the
    2-form.  The assembled 2-form is sum over i < j of V_ij(q_i - q_j)
    dq_j ^ dq_i + dp_j ^ dp_i, the tensor is its deformation of the momentum
    tensor, and the expected 3-form is the closed-form expression above.
    """
    chart = Chart(n)
    pairs = _normalize_pairs(n, potentials)
    fields: dict[tuple[int, int], ScalarField] = {}
    primitives: dict[tuple[int, int], Node | None] = {}
    for (i, j), node in pairs.items():
        diff = Sum((Coord(chart.q_index(i)), Product((Const(Fraction(-1)), Coord(chart.q_index(j))))))
        fields[(i, j)] = ScalarField(chart, substitute(node, {0: diff}))
        primitives[(i, j)] = _univariate_antiderivative(node)

    omega_terms: dict[tuple[int, ...], object] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            omega_terms[(chart.p_index(j), chart.p_index(i))] = 1
            if (i, j) in fields:
                omega_terms[(chart.q_index(j), chart.q_index(i))] = fields[(i, j)]
    omega = Form(chart, 2, omega_terms)

    extra = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            extra[chart.q_index(i), chart.p_index(j)] = 1
            extra[chart.q_index(j), chart.p_index(i)] = -1
            if (i, j) in fields:
                v = fields[(i, j)]
                extra[chart.p_index(j), chart.q_index(i)] = v
                extra[chart.p_index(i), chart.q_index(j)] = -v
    tensor = canonical_nijenhuis(chart) + Tensor11(chart, extra)

    theta: Form | None = None
    if all(p is not None for p in primitives.values()):

        def theta_terms():
            # theta = sum_{i<j} p_j dp_i - W_ij(q_i - q_j) dq_i, with W_ij a primitive of V_ij
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    yield (chart.p_index(i),), chart.p(j)
                    if (i, j) in primitives:
                        diff = Sum(
                            (Coord(chart.q_index(i)), Product((Const(Fraction(-1)), Coord(chart.q_index(j)))))
                        )
                        yield (chart.q_index(i),), -ScalarField(chart, substitute(primitives[(i, j)], {0: diff}))

        theta = Form(chart, 1, theta_terms())

    phi = _phi_closed_form(chart, fields)
    expected = ExpectedOutcome(
        structure_class="PN" if phi.is_zero else "PqN",
        involutive_up_to=involutive_up_to,
        phi_closed_form=phi,
        non_involutive=non_involutive,
    )
    return ModelBundle(name, chart, canonical_poisson(chart), tensor, omega, expected, theta)


# ---------------------------------------------------------------------------
# the lattice and Calogero instances
# ---------------------------------------------------------------------------


def _toda_potentials(n: int, couplings: Sequence[Fraction]) -> dict[tuple[int, int], Node]:
    x = Coord(0)
    pots: dict[tuple[int, int], Node] = {}
    for i in range(1, n):
        if couplings[i - 1] != 0:
            pots[(i, i + 1)] = Product((Const(couplings[i - 1]), Exp(x)))
    if len(couplings) == n and couplings[n - 1] != 0:
        wrap = Product((Const(couplings[n - 1]), Exp(Product((Const(Fraction(-1)), x)))))
        if (1, n) in pots:  # n = 2: both couplings act on the single pair
            pots[(1, n)] = Sum((pots[(1, n)], wrap))
        else:
            pots[(1, n)] = wrap
    return pots


def closed_toda(n: int, couplings: Sequence[object] | None = None) -> ModelBundle:
    """Periodic exponential nearest-neighbour chain with a wrap-around edge.

    ``couplings`` holds n constants; the last one weights the edge between the
    final and first particles.  With the final coupling zero this is exactly
    the open chain.  Involutivity of the trace invariants is claimed when all
    couplings are 1.
    """
    if n < 2:
        raise ValueError("the lattice needs at least two particles")
    f = [Fraction(c) for c in (couplings if couplings is not None else [1] * n)]
    if len(f) != n:
        raise ValueError(f"expected {n} couplings, got {len(f)}")
    bundle = pair_potential_model(n, _toda_potentials(n, f), name="closed-toda")
    chart = bundle.chart
    wrap = f[n - 1]
    phi_display = Form(
        chart,
        3,
        {
            (chart.q_index(1), chart.q_index(n), chart.p_index(i)): 2
            * wrap
            * (chart.q(n) - chart.q(1)).exp()
            for i in range(1, n + 1)
        },
    )
    involutive = n if all(c == 1 for c in f) else None
    expected = ExpectedOutcome(
        structure_class="PN" if wrap == 0 else "PqN",
        involutive_up_to=involutive,
        phi_closed_form=phi_display,
    )
    return ModelBundle("closed-toda", chart, bundle.poisson, bundle.tensor, bundle.omega, expected, bundle.theta)


def open_toda(n: int, couplings: Sequence[object] | None = None) -> ModelBundle:
    """Non-periodic exponential chain: torsionless for any coupling constants."""
    if n < 2:
        raise ValueError("the lattice needs at least two particles")
    f = [Fraction(c) for c in (couplings if couplings is not None else [1] * (n - 1))]
    if len(f) != n - 1:
        raise ValueError(f"expected {n - 1} couplings, got {len(f)}")
    bundle = pair_potential_model(n, _toda_potentials(n, f), name="open-toda")
    expected = ExpectedOutcome(
        structure_class="PN",
        involutive_up_to=n,
        phi_closed_form=Form.zero(bundle.chart, 3),
    )
    return ModelBundle("open-toda", bundle.chart, bundle.poisson, bundle.tensor, bundle.omega, expected, bundle.theta)


def das_okubo_omega_hat(n: int, couplings: Sequence[object] | None = None) -> Form:
    """The closed 2-form deforming the identity directly into the open-chain tensor."""
    bundle = open_toda(n, couplings)
    return canonical_deformation_form(bundle.chart) + bundle.omega


def calogero(n: int) -> ModelBundle:
    """Inverse-square pair potentials on every pair.

    The trace invariants are claimed involutive up to n for n <= 3 and known
    to fail for n = 4.
    """
    if n < 2:
        raise ValueError("the system needs at least two particles")
    pots = {(i, j): Power(Coord(0), -2) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return pair_potential_model(
        n,
        pots,
        name="calogero",
        involutive_up_to=n if n <= 3 else None,
        non_involutive=(n == 4),
    )


# ---------------------------------------------------------------------------
# explicit two-particle structure (general bivariate potential)
# ---------------------------------------------------------------------------


def two_particle_model(v_spec, *, name: str = "two-particle") -> ModelBundle:
    """The explicit n = 2 structure for a general potential V(q1, q2).

    ``v_spec`` is a node tree over the chart coordinates (Coord(0) = q1,
    Coord(1) = q2), a prefix string in q1/q2, or a rational constant.  The
    model is involutive exactly when V depends only on q1 - q2; the factory
    records that as metadata by testing the sum of the two q-partials.
    """
    chart = Chart(2)
    if isinstance(v_spec, str):
        from .scalar import parse_prefix

        v = parse_prefix(v_spec, chart)
    elif isinstance(v_spec, Node):
        v = ScalarField(chart, v_spec)
    elif isinstance(v_spec, ScalarField):
        v = ScalarField(chart, v_spec.root)
    else:
        v = chart.constant(v_spec)
    q1, q2 = chart.q_index(1), chart.q_index(2)
    p1, p2 = chart.p_index(1), chart.p_index(2)
    omega = Form(chart, 2, {(q2, q1): v, (p2, p1): 1})
    pp1, pp2 = chart.p(1), chart.p(2)
    tensor = Tensor11(
        chart,
        [
            [pp1, 0, 0, 1],
            [0, pp2, -1, 0],
            [0, -v, pp1, 0],
            [v, 0, 0, pp2],
        ],
    )
    phi = Form(
        chart,
        3,
        {
            (q1, q2, p1): v + v.partial(q2),
            (q1, q2, p2): v - v.partial(q1),
        },
    )
    drift = v.partial(q1) + v.partial(q2)
    translation_invariant = drift.is_zero_tree or is_zero(drift).is_zero
    expected = ExpectedOutcome(
        structure_class="PN" if phi.is_zero else "PqN",
        involutive_up_to=2 if translation_invariant else None,
        phi_closed_form=phi,
        non_involutive=not translation_invariant,
    )
    return ModelBundle(name, chart, canonical_poisson(chart), tensor, omega, expected)


@dataclass(frozen=True)
class TwoParticleFixture:
    """Literal expected values for the explicit n = 2 formulas."""

    chart: Chart
    v: ScalarField
    pi_sharp_matrix: tuple[tuple[ScalarField, ...], ...]
    n_matrix: tuple[tuple[ScalarField, ...], ...]
    n_hat_matrix: tuple[tuple[ScalarField, ...], ...]
    omega: Form
    d_n_omega: Form
    omega_self_bracket: Form


def two_particle_fixture(v_spec=None) -> TwoParticleFixture:
    """The displayed n = 2 matrices and both induced 3-form pieces.

    The default potential q1*q2 + exp(q1 - q2) exercises both the polynomial
    and the exponential paths; any bivariate spec may be passed instead.
    """
    chart = Chart(2)
    if v_spec is None:
        v_spec = Sum(
            (
                Product((Coord(0), Coord(1))),
                Exp(Sum((Coord(0), Product((Const(Fraction(-1)), Coord(1)))))),
            )
        )
    bundle = two_particle_model(v_spec)
    v = bundle.tensor.entry(3, 0)
    q1, q2 = chart.q_index(1), chart.q_index(2)
    one = chart.one()
    zero = chart.zero()
    pp1, pp2 = chart.p(1), chart.p(2)
    pi_sharp_matrix = (
        (zero, zero, one, zero),
        (zero, zero, zero, one),
        (-one, zero, zero, zero),
        (zero, -one, zero, zero),
    )
    n_matrix = (
        (pp1, zero, zero, zero),
        (zero, pp2, zero, zero),
        (zero, zero, pp1, zero),
        (zero, zero, zero, pp2),
    )
    n_hat_matrix = (
        (pp1, zero, zero, one),
        (zero, pp2, -one, zero),
        (zero, -v, pp1, zero),
        (v, zero, zero, pp2),
    )
    d_n_omega = Form(
        chart,
        3,
        {(q1, q2, chart.p_index(1)): v, (q1, q2, chart.p_index(2)): v},
    )
    omega_self_bracket = Form(
        chart,
        3,
        {
            (q1, q2, chart.p_index(1)): 2 * v.partial(q2),
            (q1, q2, chart.p_index(2)): -2 * v.partial(q1),
        },
    )
    return TwoParticleFixture(
        chart,
        v,
        pi_sharp_matrix,
        n_matrix,
        n_hat_matrix,
        bundle.omega,
        d_n_omega,
        omega_self_bracket,
    )
