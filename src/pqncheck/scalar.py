"""Scalar fields on a 2n-dimensional chart.

A scalar field is an expression tree over the node set

    {coordinate, rational constant, sum, product, integer power, exp}

with exp restricted to affine combinations of coordinates.  The set is closed
under partial differentiation, so every derivative of a supported field is
again a supported field.  Constants are exact ``Fraction`` values; floats only
appear when a field is evaluated at a point.

Every ``ScalarField`` stores its tree in a canonical layout (sums flattened
and sorted, products expanded and merged, exp factors combined), which makes
structural equality meaningful: two fields that are equal as functions and
stay inside the polynomial-times-exponential part of the ring normalize to
the same tree.  Identities that leave that part (e.g. rational-function
cancellations against expanded polynomials) are handled by the probabilistic
zero test instead.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .errors import (
    ChartMismatchError,
    DegenerateDomainError,
    EvaluationOverflowError,
    UnsupportedExpressionError,
)

RationalLike = Union[int, Fraction]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


# ---------------------------------------------------------------------------
# chart and points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A 2n-dimensional chart with coordinates ordered (q_1..q_n, p_1..p_n).

    Indices are 0-based internally; every report and serialized artifact uses
    the 1-based names ``q1..qn, p1..pn``.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"particle count must be a positive integer, got {self.n!r}")

    @property
    def dim(self) -> int:
        return 2 * self.n

    def q_index(self, i: int) -> int:
        """0-based index of q_i (i is 1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"q_{i} does not exist on a chart with n={self.n}")
        return i - 1

    def p_index(self, i: int) -> int:
        """0-based index of p_i (i is 1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"p_{i} does not exist on a chart with n={self.n}")
        return self.n + i - 1

    def coordinate_name(self, index: int) -> str:
        if not 0 <= index < self.dim:
            raise IndexError(f"coordinate index {index} out of range for dim {self.dim}")
        return f"q{index + 1}" if index < self.n else f"p{index - self.n + 1}"

    def coordinate_names(self) -> list[str]:
        return [self.coordinate_name(i) for i in range(self.dim)]

    # ScalarField constructors -------------------------------------------------

    def coordinate(self, index: int) -> "ScalarField":
        if not 0 <= index < self.dim:
            raise IndexError(f"coordinate index {index} out of range for dim {self.dim}")
        return ScalarField(self, Coord(index))

    def q(self, i: int) -> "ScalarField":
        return self.coordinate(self.q_index(i))

    def p(self, i: int) -> "ScalarField":
        return self.coordinate(self.p_index(i))

    def constant(self, value: RationalLike) -> "ScalarField":
        return ScalarField(self, Const(_as_fraction(value)))

    def zero(self) -> "ScalarField":
        return self.constant(0)

    def one(self) -> "ScalarField":
        return self.constant(1)


@dataclass(frozen=True)
class Point:
    """Coordinate values of a chart point; entries must be finite reals."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        for v in vals:
            if not math.isfinite(v):
                raise ValueError(f"point coordinates must be finite, got {v!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]

    def labelled(self, chart: Chart) -> dict[str, float]:
        """Coordinate values keyed by 1-based coordinate names (report format)."""
        if len(self.values) != chart.dim:
            raise ChartMismatchError(
                f"point of dimension {len(self.values)} does not fit a chart of dimension {chart.dim}"
            )
        return {chart.coordinate_name(i): v for i, v in enumerate(self.values)}


# ---------------------------------------------------------------------------
# expression-tree nodes
# ---------------------------------------------------------------------------


class Node:
    """Base class of expression-tree nodes.  Nodes are immutable and hashable."""

    __slots__ = ()

    def __repr__(self):
        return to_prefix(self)


@dataclass(frozen=True, repr=False)
class Const(Node):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _as_fraction(self.value))


@dataclass(frozen=True, repr=False)
class Coord(Node):
    index: int


@dataclass(frozen=True, repr=False)
class Sum(Node):
    terms: tuple[Node, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True, repr=False)
class Product(Node):
    factors: tuple[Node, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True, repr=False)
class Power(Node):
    base: Node
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise UnsupportedExpressionError(
                f"powers must have integer exponents, got {self.exponent!r}"
            )


@dataclass(frozen=True, repr=False)
class Exp(Node):
    """exp of an affine combination of coordinates (checked during normalization)."""

    argument: Node


_ZERO = Fraction(0)
_ONE = Fraction(1)
_CONST_ZERO = Const(_ZERO)


# ---------------------------------------------------------------------------
# canonical ordering of nodes
# ---------------------------------------------------------------------------


def _node_key(node: Node):
    # Total order used for sorting terms and factors.  Every key is a tuple
    # starting with an integer type rank, so keys of different node classes
    # never compare int-against-tuple.
    if isinstance(node, Const):
        return (0, node.value.numerator, node.value.denominator)
    if isinstance(node, Coord):
        return (1, node.index)
    if isinstance(node, Exp):
        return (2, _node_key(node.argument))
    if isinstance(node, Power):
        return (3, _node_key(node.base), node.exponent)
    if isinstance(node, Product):
        return (4, len(node.factors), tuple(_node_key(f) for f in node.factors))
    if isinstance(node, Sum):
        return (5, len(node.terms), tuple(_node_key(t) for t in node.terms))
    raise TypeError(f"not an expression node: {node!r}")


def _monomial_key(mono):
    return tuple((_node_key(base), exponent) for base, exponent in mono)


# ---------------------------------------------------------------------------
# normalization
#
# Internally a normalized expression is a "polynomial": a dict mapping
# monomials to nonzero Fraction coefficients.  A monomial is a sorted tuple of
# (base, exponent) pairs where the base is a coordinate, an exp of an affine
# form, or a content-normalized multi-term sum raised to a negative power.
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple[(Node, int), ...]
Polynomial = dict  # dict[Monomial, Fraction]


def _poly_add_into(acc: Polynomial, other: Polynomial, scale: Fraction = _ONE) -> None:
    for mono, coeff in other.items():
        new = acc.get(mono, _ZERO) + coeff * scale
        if new == 0:
            acc.pop(mono, None)
        else:
            acc[mono] = new


def _poly_scale(poly: Polynomial, scale: Fraction) -> Polynomial:
    if scale == 0:
        return {}
    return {mono: coeff * scale for mono, coeff in poly.items()}


def _affine_parts(node: Node) -> tuple[Fraction, dict[int, Fraction]]:
    """Split a canonical affine tree into (constant, {coordinate index: coefficient})."""
    const = _ZERO
    coeffs: dict[int, Fraction] = {}
    for mono, coeff in _poly(node).items():
        if mono == ():
            const += coeff
        elif len(mono) == 1 and isinstance(mono[0][0], Coord) and mono[0][1] == 1:
            idx = mono[0][0].index
            coeffs[idx] = coeffs.get(idx, _ZERO) + coeff
        else:
            raise UnsupportedExpressionError(
                f"exp argument must be affine in the coordinates, got {to_prefix(node)}"
            )
    return const, {i: c for i, c in coeffs.items() if c != 0}


def _affine_node(const: Fraction, coeffs: Mapping[int, Fraction]) -> Node:
    poly: Polynomial = {}
    if const != 0:
        poly[()] = const
    for idx, c in coeffs.items():
        if c != 0:
            poly[((Coord(idx), 1),)] = c
    return _poly_to_node(poly)


def _canonical_monomial(powers: Mapping[Node, int]) -> Polynomial:
    """Rebuild a well-formed monomial from a base -> exponent mapping.

    Merges exp factors into a single exp of the combined affine argument and
    expands positive integer powers of multi-term sums, so the result may be a
    full polynomial rather than a single monomial.
    """
    plain: dict[Node, int] = {}
    exp_const = _ZERO
    exp_coeffs: dict[int, Fraction] = {}
    expansions: list[Polynomial] = []
    for base, exponent in powers.items():
        if exponent == 0:
            continue
        if isinstance(base, Exp):
            const, coeffs = _affine_parts(base.argument)
            exp_const += const * exponent
            for idx, c in coeffs.items():
                exp_coeffs[idx] = exp_coeffs.get(idx, _ZERO) + c * exponent
        elif isinstance(base, Sum) and exponent > 0:
            expansions.append(_poly_int_pow(_poly(base), exponent))
        else:
            plain[base] = plain.get(base, 0) + exponent
    exp_coeffs = {i: c for i, c in exp_coeffs.items() if c != 0}
    if exp_const != 0 or exp_coeffs:
        plain[Exp(_affine_node(exp_const, exp_coeffs))] = 1
    mono = tuple(sorted(((b, e) for b, e in plain.items() if e != 0), key=lambda be: _node_key(be[0])))
    result: Polynomial = {mono: _ONE}
    for expansion in expansions:
        result = _poly_mul(result, expansion)
    return result


def _mono_mul(m1: Monomial, m2: Monomial) -> Polynomial:
    powers: dict[Node, int] = {}
    for base, exponent in m1:
        powers[base] = powers.get(base, 0) + exponent
    for base, exponent in m2:
        powers[base] = powers.get(base, 0) + exponent
    return _canonical_monomial(powers)


def _poly_mul(p1: Polynomial, p2: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _poly_add_into(out, _mono_mul(m1, m2), c1 * c2)
    return out


def _poly_int_pow(poly: Polynomial, exponent: int) -> Polynomial:
    if exponent == 0:
        return {(): _ONE}
    if not poly:
        if exponent > 0:
            return {}
        raise UnsupportedExpressionError("negative integer power of the zero expression")
    if len(poly) == 1:
        (mono, coeff), = poly.items()
        scaled = _canonical_monomial({base: e * exponent for base, e in mono})
        return _poly_scale(scaled, coeff**exponent)
    if exponent > 0:
        out = {(): _ONE}
        for _ in range(exponent):
            out = _poly_mul(out, poly)
        return out
    # Negative power of a genuine sum: keep it as an opaque factor, after
    # dividing out the leading coefficient so rational multiples of the same
    # sum share one base.
    lead = min(poly, key=_monomial_key)
    content = poly[lead]
    base = _poly_to_node(_poly_scale(poly, 1 / content))
    return {((base, exponent),): content**exponent}


def _poly(node: Node) -> Polynomial:
    if isinstance(node, Const):
        return {} if node.value == 0 else {(): node.value}
    if isinstance(node, Coord):
        return {((node, 1),): _ONE}
    if isinstance(node, Sum):
        out: Polynomial = {}
        for term in node.terms:
            _poly_add_into(out, _poly(term))
        return out
    if isinstance(node, Product):
        out = {(): _ONE}
        for factor in node.factors:
            out = _poly_mul(out, _poly(factor))
        return out
    if isinstance(node, Power):
        return _poly_int_pow(_poly(node.base), node.exponent)
    if isinstance(node, Exp):
        const, coeffs = _affine_parts(node.argument)
        if const == 0 and not coeffs:
            return {(): _ONE}
        return {((Exp(_affine_node(const, coeffs)), 1),): _ONE}
    raise TypeError(f"not an expression node: {node!r}")


def _mono_to_node(mono: Monomial, coeff: Fraction) -> Node:
    factors = [base if e == 1 else Power(base, e) for base, e in mono]
    if not factors:
        return Const(coeff)
    if coeff == 1:
        return factors[0] if len(factors) == 1 else Product(tuple(factors))
    return Product((Const(coeff), *factors))


def _poly_to_node(poly: Polynomial) -> Node:
    if not poly:
        return _CONST_ZERO
    terms = [_mono_to_node(mono, poly[mono]) for mono in sorted(poly, key=_monomial_key)]
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def normalize(node: Node) -> Node:
    """Canonical form of an expression tree.  Idempotent."""
    return _poly_to_node(_poly(node))


def substitute(node: Node, mapping: Mapping[int, Node]) -> Node:
    """Replace coordinates by subtrees (simultaneously).  Returns a raw tree."""
    if isinstance(node, Coord):
        return mapping.get(node.index, node)
    if isinstance(node, Const):
        return node
    if isinstance(node, Sum):
        return Sum(tuple(substitute(t, mapping) for t in node.terms))
    if isinstance(node, Product):
        return Product(tuple(substitute(f, mapping) for f in node.factors))
    if isinstance(node, Power):
        return Power(substitute(node.base, mapping), node.exponent)
    if isinstance(node, Exp):
        return Exp(substitute(node.argument, mapping))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# differentiation (at the polynomial level, so results stay canonical)
# ---------------------------------------------------------------------------


def _replace_exponent(mono: Monomial, position: int, exponent: int) -> Monomial:
    pairs = list(mono)
    if exponent == 0:
        del pairs[position]
    else:
        pairs[position] = (pairs[position][0], exponent)
    return tuple(pairs)


def _poly_diff(poly: Polynomial, index: int) -> Polynomial:
    out: Polynomial = {}
    for mono, coeff in poly.items():
        for pos, (base, exponent) in enumerate(mono):
            if isinstance(base, Coord):
                if base.index != index:
                    continue
                rest = _replace_exponent(mono, pos, exponent - 1)
                _poly_add_into(out, {rest: _ONE}, coeff * exponent)
            elif isinstance(base, Exp):
                _, coeffs = _affine_parts(base.argument)
                rate = coeffs.get(index, _ZERO)
                if rate != 0:
                    _poly_add_into(out, {mono: _ONE}, coeff * rate)
            else:  # negative power of a sum
                inner = _poly_diff(_poly(base), index)
                if not inner:
                    continue
                lowered = {_replace_exponent(mono, pos, exponent - 1): coeff * exponent}
                _poly_add_into(out, _poly_mul(lowered, inner))
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _eval_node(node: Node, values: Sequence[float]) -> float:
    if isinstance(node, Const):
        return float(node.value)
    if isinstance(node, Coord):
        return values[node.index]
    if isinstance(node, Sum):
        return math.fsum(_eval_node(t, values) for t in node.terms)
    if isinstance(node, Product):
        out = 1.0
        for f in node.factors:
            out *= _eval_node(f, values)
        return out
    if isinstance(node, Power):
        base = _eval_node(node.base, values)
        try:
            return base**node.exponent
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvaluationOverflowError(
                f"power evaluation failed at node {to_prefix(node)}: {exc}", node=node
            ) from exc
    if isinstance(node, Exp):
        arg = _eval_node(node.argument, values)
        try:
            return math.exp(arg)
        except OverflowError as exc:
            raise EvaluationOverflowError(
                f"exp overflow at node {to_prefix(node)}", node=node
            ) from exc
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# ScalarField
# ---------------------------------------------------------------------------


class ScalarField:
    """An expression-tree scalar field bound to a chart, stored canonically.

    Immutable; all arithmetic returns new fields.  Safe to share across
    threads.
    """

    __slots__ = ("chart", "root")

    def __init__(self, chart: Chart, tree):
        if isinstance(tree, ScalarField):
            if tree.chart != chart:
                raise ChartMismatchError("scalar field belongs to a different chart")
            root = tree.root
        elif isinstance(tree, Node):
            root = normalize(tree)
        else:
            root = Const(_as_fraction(tree))
        self._check_indices(chart, root)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "root", root)

    @staticmethod
    def _check_indices(chart: Chart, node: Node) -> None:
        if isinstance(node, Coord):
            if not 0 <= node.index < chart.dim:
                raise ChartMismatchError(
                    f"coordinate index {node.index} out of range for chart of dimension {chart.dim}"
                )
        elif isinstance(node, Sum):
            for t in node.terms:
                ScalarField._check_indices(chart, t)
        elif isinstance(node, Product):
            for f in node.factors:
                ScalarField._check_indices(chart, f)
        elif isinstance(node, Power):
            ScalarField._check_indices(chart, node.base)
        elif isinstance(node, Exp):
            ScalarField._check_indices(chart, node.argument)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @classmethod
    def _wrap(cls, chart: Chart, canonical_root: Node) -> "ScalarField":
        obj = object.__new__(cls)
        object.__setattr__(obj, "chart", chart)
        object.__setattr__(obj, "root", canonical_root)
        return obj

    # -- structure ----------------------------------------------------------

    @property
    def is_zero_tree(self) -> bool:
        """True when the canonical form is literally the zero constant."""
        return isinstance(self.root, Const) and self.root.value == 0

    @property
    def constant_value(self) -> Fraction | None:
        """The exact value when the field is a constant, else None."""
        return self.root.value if isinstance(self.root, Const) else None

    def __eq__(self, other):
        if isinstance(other, ScalarField):
            return self.chart == other.chart and self.root == other.root
        if isinstance(other, (int, Fraction)):
            return self.root == Const(_as_fraction(other))
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self):
        return f"ScalarField({self.to_prefix()})"

    def to_prefix(self) -> str:
        return to_prefix(self.root, self.chart)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "ScalarField | None":
        """Coerce an operand, or None when another type should handle the operation."""
        if isinstance(other, ScalarField):
            if other.chart != self.chart:
                raise ChartMismatchError("cannot combine scalar fields from different charts")
            return other
        if isinstance(other, (int, Fraction, Node)):
            return ScalarField(self.chart, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        poly = dict(_poly(self.root))
        _poly_add_into(poly, _poly(other.root))
        return ScalarField._wrap(self.chart, _poly_to_node(poly))

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._wrap(self.chart, _poly_to_node(_poly_scale(_poly(self.root), Fraction(-1))))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ScalarField._wrap(self.chart, _poly_to_node(_poly_mul(_poly(self.root), _poly(other.root))))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise UnsupportedExpressionError("only integer powers are supported")
        return ScalarField._wrap(self.chart, _poly_to_node(_poly_int_pow(_poly(self.root), exponent)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other**-1

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self**-1

    # -- spec operations ------------------------------------------------------

    def partial(self, index: int) -> "ScalarField":
        """Exact partial derivative with respect to the 0-based coordinate ``index``."""
        if not 0 <= index < self.chart.dim:
            raise IndexError(f"coordinate index {index} out of range for dim {self.chart.dim}")
        return ScalarField._wrap(self.chart, _poly_to_node(_poly_diff(_poly(self.root), index)))

    def evaluate(self, point: Point | Sequence[float]) -> float:
        values = point.values if isinstance(point, Point) else tuple(float(v) for v in point)
        if len(values) != self.chart.dim:
            raise ChartMismatchError(
                f"point of dimension {len(values)} does not match chart of dimension {self.chart.dim}"
            )
        result = _eval_node(self.root, values)
        if not math.isfinite(result):
            raise EvaluationOverflowError(
                f"evaluation produced a non-finite value at node {self.to_prefix()}", node=self.root
            )
        return result

    def term_scale(self, point: Point | Sequence[float]) -> float:
        """Sum of the absolute values of the top-level additive terms at ``point``.

        Used as the local coefficient scale of the absolute-plus-relative zero
        test: a residual of a cancellation-heavy sum is judged against the
        size of what was cancelled.
        """
        values = point.values if isinstance(point, Point) else tuple(float(v) for v in point)
        if isinstance(self.root, Sum):
            return math.fsum(abs(_eval_node(t, values)) for t in self.root.terms)
        return abs(_eval_node(self.root, values))

    def is_zero(self, config: "ZeroTestConfig | None" = None) -> "ZeroVerdict":
        return is_zero(self, config or ZeroTestConfig())

    def exp(self) -> "ScalarField":
        """exp of this field; the field must be affine in the coordinates."""
        return ScalarField(self.chart, Exp(self.root))


def exp(field: ScalarField) -> ScalarField:
    """exp of an affine scalar field."""
    return field.exp()


def evaluate(field: ScalarField, point: Point | Sequence[float]) -> float:
    """Exact arithmetic evaluation of the tree at a point (deterministic)."""
    return field.evaluate(point)


def partial(field: ScalarField, index: int) -> ScalarField:
    """Exact symbolic partial derivative, normalized."""
    return field.partial(index)


# ---------------------------------------------------------------------------
# probabilistic zero testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroTestConfig:
    """Sampling parameters for the probabilistic zero test.

    The identities this engine checks hold exactly in exact arithmetic, so
    residuals at sample points are pure roundoff; ``tolerance`` is applied in
    absolute-plus-relative form against the local term scale.  ``separation``
    is the minimum |q_i - q_j| enforced while sampling (0 disables the guard);
    it keeps samples away from collision singularities of inverse-power
    potentials.
    """

    sample_count: int = 50
    box_halfwidth: float = 2.0
    separation: float = 1e-2
    tolerance: float = 1e-9
    seed: int = 7

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")

    def replace(self, **kwargs) -> "ZeroTestConfig":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of a sampled zero test.

    ``residual`` is the largest |f(x)| seen relative to its acceptance
    threshold; ``witness`` is the point where it occurred.  ``is_zero`` is
    False as soon as one sample exceeds tolerance * (1 + local term scale).
    """

    is_zero: bool
    residual: float
    witness: Point | None
    samples: int

    def __bool__(self) -> bool:
        return self.is_zero


def sample_points(chart: Chart, config: ZeroTestConfig) -> list[Point]:
    """Deterministic uniform samples in the box, respecting the separation guard.

    Identical config (including seed) yields the identical sequence.  Points
    whose q-coordinates come closer than ``separation`` are redrawn; if the
    total number of draws exceeds 100x the requested count, the box is deemed
    incompatible with the guard.
    """
    rng = random.Random(config.seed)
    h = config.box_halfwidth
    budget = 100 * config.sample_count
    draws = 0
    points = []
    while len(points) < config.sample_count:
        if draws >= budget:
            raise DegenerateDomainError(
                f"separation guard {config.separation} rejected too many samples "
                f"in a box of half-width {h}"
            )
        draws += 1
        values = [rng.uniform(-h, h) for _ in range(chart.dim)]
        if config.separation > 0:
            qs = values[: chart.n]
            if any(
                abs(qs[i] - qs[j]) < config.separation
                for i in range(chart.n)
                for j in range(i + 1, chart.n)
            ):
                continue
        points.append(Point(tuple(values)))
    return points


def is_zero(field: ScalarField, config: ZeroTestConfig | None = None) -> ZeroVerdict:
    """Probabilistic zero test by evaluation at seeded random points."""
    cfg = config or ZeroTestConfig()
    points = sample_points(field.chart, cfg)
    worst_ratio = -1.0
    worst_residual = 0.0
    worst_point = None
    failed = False
    for point in points:
        value = abs(field.evaluate(point))
        threshold = cfg.tolerance * (1.0 + field.term_scale(point))
        ratio = value / threshold
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_residual = value
            worst_point = point
        if ratio > 1.0:
            failed = True
    return ZeroVerdict(
        is_zero=not failed,
        residual=worst_residual,
        witness=worst_point,
        samples=len(points),
    )


# ---------------------------------------------------------------------------
# prefix-expression grammar: (+ ...), (* ...), (^ base k), (exp a),
# rational literals, and coordinate tokens q<i> / p<i>.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_COORD_RE = re.compile(r"^([qp])(\d+)$")


def to_prefix(node: Node, chart: Chart | None = None) -> str:
    """Render a node in the prefix grammar; without a chart, coordinates print as x<i>."""

    def name(index: int) -> str:
        return chart.coordinate_name(index) if chart is not None else f"x{index + 1}"

    def render(n: Node) -> str:
        if isinstance(n, Const):
            return str(n.value)
        if isinstance(n, Coord):
            return name(n.index)
        if isinstance(n, Sum):
            return "(+ " + " ".join(render(t) for t in n.terms) + ")"
        if isinstance(n, Product):
            return "(* " + " ".join(render(f) for f in n.factors) + ")"
        if isinstance(n, Power):
            return f"(^ {render(n.base)} {n.exponent})"
        if isinstance(n, Exp):
            return f"(exp {render(n.argument)})"
        raise TypeError(f"not an expression node: {n!r}")

    return render(node)


def parse_prefix_tree(text: str, resolve: Callable[[str], Node]) -> Node:
    """Parse the prefix grammar into a raw node tree.

    ``resolve`` maps non-numeric atoms (coordinate names or extra symbols) to
    nodes; it should raise on unknown names.
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise UnsupportedExpressionError("empty expression")
    pos = 0

    def parse() -> Node:
        nonlocal pos
        if pos >= len(tokens):
            raise UnsupportedExpressionError(f"unexpected end of expression: {text!r}")
        token = tokens[pos]
        pos += 1
        if token == ")":
            raise UnsupportedExpressionError(f"unexpected ')' in {text!r}")
        if token != "(":
            if _RATIONAL_RE.match(token):
                return Const(Fraction(token))
            return resolve(token)
        if pos >= len(tokens):
            raise UnsupportedExpressionError(f"unterminated '(' in {text!r}")
        op = tokens[pos]
        pos += 1
        args: list[Node] = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(parse())
        if pos >= len(tokens):
            raise UnsupportedExpressionError(f"unterminated '(' in {text!r}")
        pos += 1  # consume ')'
        if op == "+":
            return Sum(tuple(args))
        if op == "*":
            return Product(tuple(args))
        if op == "^":
            if len(args) != 2 or not isinstance(args[1], Const) or args[1].value.denominator != 1:
                raise UnsupportedExpressionError("(^ base k) requires an integer exponent")
            return Power(args[0], int(args[1].value))
        if op == "exp":
            if len(args) != 1:
                raise UnsupportedExpressionError("(exp a) takes exactly one argument")
            return Exp(args[0])
        raise UnsupportedExpressionError(f"unknown operator {op!r}")

    tree = parse()
    if pos != len(tokens):
        raise UnsupportedExpressionError(f"trailing tokens in {text!r}")
    return tree


def parse_prefix(text: str, chart: Chart) -> ScalarField:
    """Parse a prefix expression over a chart's coordinates into a ScalarField."""

    def resolve(token: str) -> Node:
        m = _COORD_RE.match(token)
        if m:
            i = int(m.group(2))
            try:
                index = chart.q_index(i) if m.group(1) == "q" else chart.p_index(i)
            except IndexError as exc:
                raise UnsupportedExpressionError(f"coordinate {token!r} does not exist: {exc}") from exc
            return Coord(index)
        raise UnsupportedExpressionError(f"unknown symbol {token!r}")

    return ScalarField(chart, parse_prefix_tree(text, resolve))
