"""Factory constructors for the structures handled by this engine.

Each factory returns a :class:`ModelBundle`: the Poisson bivector, the (1,1)
tensor, the deforming 2-form where one exists, and the expected outcome
metadata that the test suite compares against the checker verdicts.

A pair potential is a prefix string in the one symbol ``x``, e.g.
``"(exp x)"`` or ``"(^ x -2)"``, or a rational.  Each string is parsed once
per pair into ring operations, with ``x`` read as the field q_i - q_j, so the
potential is univariate by construction.  The Toda chains and the Calogero
system build their fields V_ij(q_i - q_j) with ring operations directly.

Every pair-potential model, the Toda chains and the Calogero system
included, is built by one assembly, and so is the two-particle model, its
n = 2 case with a general potential V(q1, q2).  Each takes its expected
3-form from one closed form (the tensor differential of the 2-form plus
half its self-bracket), and its expected structure class from that 3-form.
For the closed chain it is the paper's 2 f_n exp(q_n - q_1) dq_1 ^ dq_n ^
sum_i dp_i; for the open chain it is zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import UnsupportedExpressionError
from .exterior import Bivector, Form, Tensor11, pi_sharp_omega_flat
from .scalar import Chart, Record, ScalarField, ZeroTestConfig, _all_zero, _parse, _quoted, parse_prefix
from .structures import GeometricStructure, _structure_class


class ExpectedOutcome(Record):
    """What the checkers should conclude for a model.

    ``phi_closed_form`` is the induced 3-form in closed form, and the
    structure class follows from it by the rule :func:`structures.deform`
    classifies by: ``"PN"`` exactly when it is missing or decided zero by the
    exact zero test at the default seed, ``"PqN"`` otherwise.
    ``involutive_up_to = k`` claims that H_1..H_k pairwise Poisson-commute;
    ``non_involutive`` claims that some pair within the default scan depth
    does not.  ``None``/``False`` make no claim either way.
    """

    __slots__ = _fields = ("involutive_up_to", "phi_closed_form", "non_involutive")

    def __init__(
        self, involutive_up_to: int | None = None, phi_closed_form: Form | None = None, non_involutive: bool = False
    ):
        self._init(involutive_up_to, phi_closed_form, non_involutive)

    @property
    def structure_class(self) -> str:
        return _structure_class(self.phi_closed_form, ZeroTestConfig().seed)


class ModelBundle(Record):
    __slots__ = _fields = ("name", "chart", "poisson", "tensor", "omega", "expected")

    def __init__(
        self,
        name: str,
        chart: Chart,
        poisson: Bivector,
        tensor: Tensor11,
        omega: Form | None,
        expected: ExpectedOutcome,
    ):
        self._init(name, chart, poisson, tensor, omega, expected)

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
    expected = ExpectedOutcome(involutive_up_to=n, phi_closed_form=Form.zero(chart, 3))
    return ModelBundle("canonical", chart, canonical_poisson(chart), canonical_nijenhuis(chart), omega, expected)


# ---------------------------------------------------------------------------
# pair potentials
# ---------------------------------------------------------------------------

_POTENTIAL_SYMBOL = "x"


def potential(spec, x: ScalarField) -> ScalarField:
    """A potential spec as a field: a prefix string in the symbol ``x``, read as the field ``x``, or a rational."""
    if isinstance(spec, str):

        def resolve(token: str) -> ScalarField:
            if token != _POTENTIAL_SYMBOL:
                raise UnsupportedExpressionError(f"unknown symbol {_quoted(token)} in a potential")
            return x

        return _parse(spec, x.chart, resolve)
    if isinstance(spec, (int, Fraction)):
        return x.chart.constant(spec)
    raise UnsupportedExpressionError(f"cannot interpret potential spec {_quoted(spec)}")


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
    sum over pairs of dq_i ^ dq_j ^ sum_m c_m dp_m, with the dp_m coefficient
    c_m = 2 sum_{a in {i, j}} sign(a - m) dV_ij/dq_a.  For a difference
    potential dV_ij/dq_j = -dV_ij/dq_i, so c_m = 2 (sign(i - m) - sign(j - m)) V'_ij."""

    def terms():
        for (i, j), v in fields.items():
            qi, qj = chart.q_index(i), chart.q_index(j)
            partials = [(a, v.partial(chart.q_index(a))) for a in (i, j)]
            for m in range(1, chart.n + 1):
                for a, dv in partials:
                    if a != m and not dv.is_zero_tree:
                        yield (qi, qj, chart.p_index(m)), dv * (2 if a > m else -2)

    return Form(chart, 3, terms())


def _pair_bundle(
    name: str,
    chart: Chart,
    fields: Mapping[tuple[int, int], ScalarField],
    involutive_up_to: int | None = None,
    non_involutive: bool = False,
) -> ModelBundle:
    """The pair deformation of the momentum tensor by the potential fields V_ij (i < j).

    The 2-form omega is sum over i < j of V_ij dq_j ^ dq_i + dp_j ^ dp_i, the
    tensor is its deformation N + pi_sharp o omega_flat of the momentum tensor
    N, and the expected 3-form is the differential display plus half the
    self-bracket display.
    """
    omega_terms: dict[tuple[int, ...], object] = {}
    for i in range(1, chart.n + 1):
        for j in range(i + 1, chart.n + 1):
            omega_terms[chart.p_index(j), chart.p_index(i)] = 1
            if (i, j) in fields:
                omega_terms[chart.q_index(j), chart.q_index(i)] = fields[i, j]
    omega = Form(chart, 2, omega_terms)
    pi = canonical_poisson(chart)
    tensor = canonical_nijenhuis(chart) + pi_sharp_omega_flat(pi, omega)
    phi = pair_differential_display(chart, fields) + pair_self_bracket_display(chart, fields) * Fraction(1, 2)
    expected = ExpectedOutcome(involutive_up_to=involutive_up_to, phi_closed_form=phi, non_involutive=non_involutive)
    return ModelBundle(name, chart, pi, tensor, omega, expected)


def pair_potential_model(n: int, potentials: Mapping[tuple[int, int], object]) -> ModelBundle:
    """Deformation of the free-particle structure by pairwise single-variable potentials.

    ``potentials`` maps 1-based pairs (i, j) with i < j to univariate specs
    V_ij; unlisted pairs interact only through the momentum part of the
    2-form.  The assembled 2-form is sum over i < j of V_ij(q_i - q_j)
    dq_j ^ dq_i + dp_j ^ dp_i, the tensor is its deformation of the momentum
    tensor, and the expected 3-form is the closed-form expression above.  No
    involutivity is claimed either way.
    """
    chart = Chart(n)
    fields: dict[tuple[int, int], ScalarField] = {}
    for (i, j), spec in potentials.items():
        if not 1 <= i < j <= chart.n:
            raise ValueError(f"potential pair ({i}, {j}) must satisfy 1 <= i < j <= {chart.n}")
        fields[i, j] = potential(spec, chart.q(i) - chart.q(j))
    return _pair_bundle("pair-potential", chart, fields)


# ---------------------------------------------------------------------------
# the lattice and Calogero instances
# ---------------------------------------------------------------------------


def _toda_fields(
    n: int, couplings: Sequence[object] | None, count: int
) -> tuple[Chart, list[Fraction], dict[tuple[int, int], ScalarField]]:
    """The chart, the ``count`` couplings f_i as fractions (all 1 by default) and the chain's pair fields.

    Edge i joins particles i and i + 1 by f_i exp(q_i - q_{i+1}); with n couplings, edge n is the
    wrap f_n exp(q_n - q_1) on the pair (1, n), added to edge 1 when n = 2.  A zero coupling adds
    no field.
    """
    if n < 2:
        raise ValueError("the lattice needs at least two particles")
    chart = Chart(n)  # refuses an n too large to index before the couplings are sized by it
    f = [Fraction(c) for c in (couplings if couplings is not None else [1] * count)]
    if len(f) != count:
        raise ValueError(f"expected {count} couplings, got {len(f)}")
    fields: dict[tuple[int, int], ScalarField] = {}
    for i, c in enumerate(f, 1):
        if c:
            j = i % n + 1
            edge = c * (chart.q(i) - chart.q(j)).exp()
            pair = (min(i, j), max(i, j))
            fields[pair] = fields[pair] + edge if pair in fields else edge
    return chart, f, fields


def closed_toda(n: int, couplings: Sequence[object] | None = None) -> ModelBundle:
    """Periodic exponential nearest-neighbour chain with a wrap-around edge.

    ``couplings`` holds n constants; the last one weights the edge between the
    final and first particles.  With the final coupling zero this is exactly
    the open chain.  Involutivity of the trace invariants is claimed when all
    couplings are 1.
    """
    chart, f, fields = _toda_fields(n, couplings, n)
    return _pair_bundle("closed-toda", chart, fields, involutive_up_to=n if all(c == 1 for c in f) else None)


def open_toda(n: int, couplings: Sequence[object] | None = None) -> ModelBundle:
    """Non-periodic exponential chain: torsionless for any coupling constants."""
    chart, _, fields = _toda_fields(n, couplings, n - 1)
    return _pair_bundle("open-toda", chart, fields, involutive_up_to=n)


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
    chart = Chart(n)  # refuses an n too large to index before the pair table is sized by it
    fields = {(i, j): (chart.q(i) - chart.q(j)) ** -2 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return _pair_bundle("calogero", chart, fields, involutive_up_to=n if n <= 3 else None, non_involutive=n == 4)


# ---------------------------------------------------------------------------
# explicit two-particle structure (general bivariate potential)
# ---------------------------------------------------------------------------


def two_particle_model(v_spec) -> ModelBundle:
    """The n = 2 pair structure for a general potential V(q1, q2).

    ``v_spec`` is a prefix string in q1/q2, a field on the n = 2 chart, or a
    rational constant.  The model is involutive exactly when V depends
    only on q1 - q2; the factory records that as metadata by deciding
    whether the sum of the two q-partials is zero, as report entries are,
    with no witness search.
    """
    chart = Chart(2)
    # a field from another chart raises ChartMismatchError
    v = parse_prefix(v_spec, chart) if isinstance(v_spec, str) else ScalarField(chart, v_spec)
    drift = v.partial(chart.q_index(1)) + v.partial(chart.q_index(2))
    translation_invariant = _all_zero("translation-invariance", [drift], ZeroTestConfig().seed)
    claim = 2 if translation_invariant else None
    return _pair_bundle("two-particle", chart, {(1, 2): v}, claim, non_involutive=not translation_invariant)
