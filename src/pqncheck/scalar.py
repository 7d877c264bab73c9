"""Scalar fields on a 2n-dimensional chart.

A scalar field is an element of the ring generated by the node set

    {coordinate, rational constant, sum, product, integer power, exp}

with exp restricted to affine combinations of coordinates.  The ring is closed
under partial differentiation.  Coefficients are exact, an ``int`` when
integral and a ``Fraction`` otherwise; floats only appear when a field is
evaluated at a point.

Every ``ScalarField`` stores one canonical polynomial whose monomials are
plain data: coordinate exponents, one merged exp factor given by its affine
argument, and negative powers of interned content-normalized sums (see
"normalization" below).  Arithmetic and differentiation work on it directly
and never build or sort a tree, so two fields that are equal as functions and
stay inside the polynomial-times-exponential part of the ring have equal
polynomials.  Operators that sum partial derivatives take them only along the
coordinates a polynomial mentions (``ScalarField.variables``), because every
other partial is the zero field.  Identities that leave that part (e.g.
rational-function cancellations against expanded polynomials) are decided by
exact integer evaluation at seeded random points (``exact_zero``), which
reaches every field of the ring up to a degree bound and certifies a witness
point of a field it proved nonzero; the residual there is the exact value
rounded once, and only a field with an exp takes it from a float evaluation.
``is_zero`` gives that decision, the one every report entry states: no zero
test compares a float with a threshold, and a field the exact test leaves
undecided raises ``ConfigError``.  Expression trees are output only: input
is parsed straight into ring operations, and the canonical tree is built from
the polynomial for printing and for float evaluation, which walks it.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

from .errors import (
    ChartMismatchError,
    ConfigError,
    DegenerateDomainError,
    EvaluationOverflowError,
    UnsupportedExpressionError,
)

RationalLike = Union[int, Fraction]


def _cut(text: str, limit: int = 80) -> str:
    """``text`` for a message, cut after ``limit`` characters and marked ``...``: an input may be any size."""
    return text if len(text) <= limit else text[:limit] + "..."


def _quoted(value) -> str:
    """``repr(value)`` for a message, cut as :func:`_cut` cuts it."""
    return _cut(repr(value))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


# ---------------------------------------------------------------------------
# records, chart and points
# ---------------------------------------------------------------------------


class Record:
    """Base of the immutable value classes; ``_fields`` names the ``__init__`` parameters in order.

    A record compares and hashes by class and fields, prints as ``Name(field=value, ...)`` and
    refuses assignment.  ``replace``, copy and pickle rebuild it through ``__init__``, so
    validation runs again.  ``Chart`` is compared on every ring operation and defines
    ``__eq__``/``__hash__`` over its field directly, without the generic loop.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the named fields changed, passed by position like ``__reduce__`` and validated again."""
        if not changes.keys() <= set(self._fields):
            raise TypeError(f"{type(self).__name__} has only the fields {', '.join(self._fields)}")
        return type(self)(*[changes.get(name, value) for name, value in zip(self._fields, self._values())])


class Chart(Record):
    """A 2n-dimensional chart with coordinates ordered (q_1..q_n, p_1..p_n).

    Indices are 0-based internally; every report and serialized artifact uses
    the 1-based names ``q1..qn, p1..pn``.
    """

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"particle count must be a positive integer, got {_quoted(n)}")
        if 2 * n > sys.maxsize:
            raise ValueError(f"particle count {_quoted(n)} is too large: its 2n coordinates cannot be indexed")
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        return (self.n,) == (other.n,) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.n,))

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
        return ScalarField._wrap(self, {(((index, 1),), (), ()): 1})

    def q(self, i: int) -> "ScalarField":
        return self.coordinate(self.q_index(i))

    def p(self, i: int) -> "ScalarField":
        return self.coordinate(self.p_index(i))

    def constant(self, value: RationalLike) -> "ScalarField":
        return ScalarField(self, value)

    def zero(self) -> "ScalarField":
        return ScalarField._wrap(self, {})

    def one(self) -> "ScalarField":
        return self.constant(1)


class Point(Record):
    """Coordinate values of a chart point; entries must be finite reals."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: Sequence[float]):
        vals = tuple(map(float, values))
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValueError(f"point coordinates must be finite, got {bad!r}")
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


class Node(Record):
    """Base class of expression-tree nodes.  Nodes are immutable and hashable."""

    __slots__ = ()

    def __repr__(self):
        return to_prefix(self)


class Const(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: RationalLike):
        object.__setattr__(self, "value", _as_fraction(value))


class Coord(Node):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Sum(Node):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Sequence[Node]):
        object.__setattr__(self, "terms", tuple(terms))


class Product(Node):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: Sequence[Node]):
        object.__setattr__(self, "factors", tuple(factors))


class Power(Node):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Node, exponent: int):
        if not isinstance(exponent, int):
            raise UnsupportedExpressionError(f"powers must have integer exponents, got {exponent!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Exp(Node):
    """exp of an affine combination of coordinates, as the canonical tree prints it."""

    __slots__ = _fields = ("argument",)

    def __init__(self, argument: Node):
        object.__setattr__(self, "argument", argument)


_ZERO = Fraction(0)
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


# ---------------------------------------------------------------------------
# normalization
#
# Internally a normalized expression is a "polynomial": a dict mapping
# monomials to nonzero exact coefficients, each an ``int`` when it is integral
# and a ``Fraction`` otherwise.  A monomial is plain data in three parts,
# ``(coords, affine, sums)``:
#   coords  sorted (coordinate index, nonzero exponent) pairs;
#   affine  the affine argument of the monomial's one exp factor as sorted
#           (coordinate index, nonzero coefficient) pairs, where the index
#           ``_CONSTANT`` holds the constant term; () when there is no exp;
#   sums    sorted (sum id, negative exponent) pairs, where the id names an
#           interned content-normalized multi-term polynomial (``_SumBase``).
# A product of monomials merges each part's pairs (``_merge``): it builds no
# tree and sorts nothing by ``_node_key``.  Trees and their keys appear only
# in output: ``_term_nodes`` builds the canonical tree, in tree-key order, for
# printing and evaluation.
# ---------------------------------------------------------------------------

Monomial = tuple  # (coords, affine, sums), see above
Polynomial = dict  # dict[Monomial, int | Fraction]

_UNIT: Monomial = ((), (), ())
_CONSTANT = -1  # the index of an affine form's constant term, sorted before every coordinate


def _exact(value):
    """An integral ``Fraction`` as its ``int``; any other coefficient unchanged."""
    return value.numerator if value.__class__ is Fraction and value.denominator == 1 else value


class _SumBase:
    """An interned content-normalized sum: polynomial, canonical tree, tree key, variables, exp rate."""

    __slots__ = ("poly", "node", "key", "variables", "rate")

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.node = _poly_to_node(poly)
        self.key = _node_key(self.node)
        self.variables = _variables(poly)
        self.rate = _rate(poly)


_SUM_IDS: dict[frozenset, int] = {}  # a content-normalized polynomial's items -> its sum id
_SUMS: dict[int, _SumBase] = {}
_NEXT_SUM_ID = itertools.count()


def _sum_id(monic: Polynomial) -> int:
    """The process-local id of a content-normalized sum, minted on first sight."""
    key = frozenset(monic.items())
    sid = _SUM_IDS.get(key)
    if sid is None:
        candidate = next(_NEXT_SUM_ID)
        _SUMS[candidate] = _SumBase(monic)  # stored before the id can be found, so lookups never miss
        sid = _SUM_IDS.setdefault(key, candidate)  # one id per sum, even when two threads race here
    return sid


def _rate(poly: Polynomial) -> int:
    """The lcm of the denominators of the exp coefficients in a polynomial, its sum bases' included."""
    rates = {a.denominator for _, affine, _ in poly for _, a in affine}
    return math.lcm(*rates, *{_SUMS[sid].rate for _, _, sums in poly for sid, _ in sums})


def _merge(a: tuple, b: tuple) -> tuple:
    """The sorted (key, exponent) pairs of a product: exponents of one key add, and zeros drop."""
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for key, exponent in b:
        exponent += merged.get(key, 0)
        if exponent:
            merged[key] = exponent
        else:
            del merged[key]
    return tuple(sorted(merged.items()))


def _poly_add_into(acc: Polynomial, other: Polynomial, scale: RationalLike = 1) -> None:
    for mono, coeff in other.items():
        new = acc.get(mono, 0) + coeff * scale
        if new:
            acc[mono] = _exact(new)
        else:
            acc.pop(mono, None)


def _poly_scale(poly: Polynomial, scale: RationalLike) -> Polynomial:
    return {mono: _exact(coeff * scale) for mono, coeff in poly.items()}


def _affine(poly: Polynomial, written: Callable[[], str]) -> tuple:
    """The affine form of a polynomial of degree at most one in the coordinates; ``written()`` quotes it in errors."""
    pairs = []
    for (coords, affine, sums), coeff in poly.items():
        if affine or sums or len(coords) > 1 or coords and coords[0][1] != 1:
            raise UnsupportedExpressionError(f"exp argument must be affine in the coordinates, got {_cut(written())}")
        pairs.append((coords[0][0] if coords else _CONSTANT, coeff))
    return tuple(sorted(pairs))


def _affine_poly(affine: tuple) -> Polynomial:
    return {(((index, 1),) if index != _CONSTANT else (), (), ()): coeff for index, coeff in affine}


def _exp_poly(affine: tuple) -> Polynomial:
    return {((), affine, ()): 1} if affine else {_UNIT: 1}


def _poly_mul(p1: Polynomial, p2: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for (coords1, affine1, sums1), c1 in p1.items():
        for (coords2, affine2, sums2), c2 in p2.items():
            mono = (_merge(coords1, coords2), _merge(affine1, affine2), _merge(sums1, sums2))
            new = out.get(mono, 0) + c1 * c2
            if new:
                out[mono] = _exact(new)
            else:
                del out[mono]
    return out


def _mono_pow(mono: Monomial, coeff: RationalLike, exponent: int) -> Polynomial:
    coords, affine, sums = (tuple([(key, e * exponent) for key, e in part]) for part in mono)
    out = {(coords, affine, sums if exponent > 0 else ()): _exact(Fraction(coeff) ** exponent)}
    if exponent < 0:  # the sums' negative exponents turned positive: expand those powers
        for sid, e in sums:
            out = _poly_mul(out, _poly_int_pow(_SUMS[sid].poly, e))
    return out


def _poly_int_pow(poly: Polynomial, exponent: int) -> Polynomial:
    if exponent == 0:
        return {_UNIT: 1}
    if not poly:
        if exponent > 0:
            return {}
        raise UnsupportedExpressionError("negative integer power of the zero expression")
    if len(poly) == 1:
        return _mono_pow(*next(iter(poly.items())), exponent)
    if exponent > 0:
        out = {_UNIT: 1}
        for _ in range(exponent):
            out = _poly_mul(out, poly)
        return out
    # Negative power of a genuine sum: keep it as an opaque factor, after
    # dividing out the coefficient of its first term in tree order so rational
    # multiples of the same sum share one base.
    lead = min(poly, key=_mono_key)
    content = Fraction(poly[lead])
    monic = _poly_scale(poly, 1 / content)
    return {((), (), ((_sum_id(monic), exponent),)): _exact(content**exponent)}


@lru_cache(maxsize=4096)
def _exp_factor(affine: tuple) -> tuple:
    """The tree key and canonical ``Exp`` node of an affine form, built once per form."""
    node = Exp(_poly_to_node(_affine_poly(affine)))
    return _node_key(node), node


def _factors(mono: Monomial) -> list:
    """``(tree key, base node, exponent)`` of each factor of a monomial, in canonical tree order."""
    coords, affine, sums = mono
    factors = [((1, index), Coord(index), e) for index, e in coords]
    if affine:
        factors.append((*_exp_factor(affine), 1))
    if sums:
        factors += sorted((_SUMS[sid].key, _SUMS[sid].node, e) for sid, e in sums)
    return factors


def _mono_key(mono: Monomial) -> list:
    """The sort key of a term: the tree key and exponent of each factor, in canonical tree order."""
    coords, affine, sums = mono
    key = [((1, index), e) for index, e in coords]
    if affine:
        key.append((_exp_factor(affine)[0], 1))
    if sums:
        key += sorted([(_SUMS[sid].key, e) for sid, e in sums])
    return key


def _item_key(item: tuple) -> list:
    """The sort key of a polynomial's ``(monomial, coefficient)`` item: its term's key."""
    return _mono_key(item[0])


def _term_node(factors: list, coeff: RationalLike) -> Node:
    nodes = [base if e == 1 else Power(base, e) for _, base, e in factors]
    if not nodes:
        return Const(coeff)
    if coeff == 1:
        return nodes[0] if len(nodes) == 1 else Product(tuple(nodes))
    return Product((Const(coeff), *nodes))


def _term_nodes(poly: Polynomial) -> list[Node]:
    """The top-level terms of the canonical tree, in its order."""
    if not poly:
        return [_CONST_ZERO]
    terms = sorted(poly.items(), key=_item_key)
    return [_term_node(_factors(mono), coeff) for mono, coeff in terms]


def _poly_to_node(poly: Polynomial) -> Node:
    terms = _term_nodes(poly)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def _variables(poly: Polynomial) -> tuple[int, ...]:
    """The ascending coordinate indices a polynomial mentions, inside its exp and sum bases too."""
    found: set[int] = set()
    for coords, affine, sums in poly:
        found.update([index for index, _ in coords + affine])
        for sid, _ in sums:
            found.update(_SUMS[sid].variables)
    found.discard(_CONSTANT)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# differentiation (at the polynomial level, so results stay canonical)
# ---------------------------------------------------------------------------


def _replace_exponent(pairs: tuple, position: int, exponent: int) -> tuple:
    kept = ((pairs[position][0], exponent),) if exponent else ()
    return pairs[:position] + kept + pairs[position + 1 :]


def _poly_diff(poly: Polynomial, index: int) -> Polynomial:
    out: Polynomial = {}
    for mono, coeff in poly.items():
        coords, affine, sums = mono
        for pos, (i, e) in enumerate(coords):
            if i == index:
                _poly_add_into(out, {(_replace_exponent(coords, pos, e - 1), affine, sums): coeff * e})
        for i, rate in affine:
            if i == index:
                _poly_add_into(out, {mono: coeff * rate})
        for pos, (sid, e) in enumerate(sums):
            inner = _poly_diff(_SUMS[sid].poly, index)
            if inner:
                lowered = {(coords, affine, _replace_exponent(sums, pos, e - 1)): coeff * e}
                _poly_add_into(out, _poly_mul(lowered, inner))
    return out


# ---------------------------------------------------------------------------
# evaluation
#
# A field is evaluated by walking its canonical tree ``root``, built once and
# cached: a product multiplies its factors left to right from 1.0, and a
# ``Sum`` is the ``fsum`` of its terms in tree order, computed once per point
# per node, so a sum base shared by many terms is summed once.  ``fsum`` is
# correctly rounded, but whether it raises on an overflow or returns an
# infinite term depends on which it meets first.  A float failure raises
# ``EvaluationOverflowError`` naming the node that failed.
# ---------------------------------------------------------------------------


def _evaluation_failed(node: Node, exc: BaseException, name: Callable[[int], str]) -> EvaluationOverflowError:
    return EvaluationOverflowError(f"evaluation failed at node {_render(node, name)}: {exc}", node=node)


def _walk(node: Node, x: tuple, sums: dict, name: Callable[[int], str]) -> float:
    """The float value of a canonical tree at the coordinates ``x``; ``sums`` keeps each ``Sum`` node's value there."""
    cls = node.__class__
    if cls is Coord:
        return x[node.index]
    if cls is Product:
        value = 1.0
        for factor in node.factors:
            value *= _walk(factor, x, sums, name)
        return value
    if cls is Sum and id(node) in sums:
        return sums[id(node)]
    try:
        if cls is Const:
            return float(node.value)
        if cls is Power:
            return _walk(node.base, x, sums, name) ** node.exponent
        if cls is Exp:
            return math.exp(_walk(node.argument, x, sums, name))
        value = sums[id(node)] = math.fsum([_walk(term, x, sums, name) for term in node.terms])
        return value
    except (ArithmeticError, ValueError) as exc:
        raise _evaluation_failed(node, exc, name) from exc


# ---------------------------------------------------------------------------
# ScalarField
# ---------------------------------------------------------------------------


class ScalarField:
    """A scalar field bound to a chart, stored as its canonical polynomial.

    ``poly`` maps monomials (plain tuples, see "normalization") to nonzero
    ``int`` or ``Fraction`` coefficients, and every operator reads and writes
    it directly, without building a tree.  The canonical tree ``root`` is built
    from it once, on first use, for printing and float evaluation only, and so
    is ``variables``, the coordinates the polynomial mentions.  ``value`` is
    a field on ``chart`` or an exact rational; every other field is built by
    ring operations.  Immutable; all arithmetic returns new fields.  Safe to
    share across threads; a pickle holds the chart and the canonical prefix
    text, not process-local sum ids.
    """

    __slots__ = ("chart", "poly", "_root", "_variables")

    def __init__(self, chart: Chart, value):
        variables = None
        if isinstance(value, ScalarField):
            if value.chart != chart:
                raise ChartMismatchError("scalar field belongs to a different chart")
            poly, variables = value.poly, value._variables
        else:
            value = _as_fraction(value)
            poly = {_UNIT: _exact(value)} if value else {}
        for name, value in zip(self.__slots__, (chart, poly, None, variables)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @classmethod
    def _wrap(cls, chart: Chart, poly: Polynomial) -> "ScalarField":
        obj = object.__new__(cls)
        object.__setattr__(obj, "chart", chart)
        object.__setattr__(obj, "poly", poly)
        object.__setattr__(obj, "_root", None)
        object.__setattr__(obj, "_variables", None)
        return obj

    def __reduce__(self):
        # Parsed again from the canonical text, because sum ids are local to a process; the caches refill on use.
        return parse_prefix, (self.to_prefix(), self.chart)

    def __copy__(self):
        """The field itself: it is immutable, so only a pickle goes through the text."""
        return self

    def __deepcopy__(self, memo):
        return self

    # -- structure ----------------------------------------------------------

    @property
    def root(self) -> Node:
        """The canonical expression tree of the polynomial, built on first use; evaluation walks it."""
        if self._root is None:
            object.__setattr__(self, "_root", _poly_to_node(self.poly))
        return self._root

    @property
    def variables(self) -> tuple[int, ...]:
        """The ascending coordinate indices the polynomial mentions, computed on first use.

        Exp arguments and negative-power sum bases count, so ``partial(i)``
        is the zero field for every ``i`` not listed.
        """
        if self._variables is None:
            object.__setattr__(self, "_variables", _variables(self.poly))
        return self._variables

    @property
    def is_zero_tree(self) -> bool:
        """True when the canonical polynomial is literally zero."""
        return not self.poly

    @property
    def constant_value(self) -> Fraction | None:
        """The exact value when the field is a constant, else None."""
        if not self.poly:
            return _ZERO
        value = self.poly.get(_UNIT) if len(self.poly) == 1 else None
        return None if value is None else Fraction(value)

    def __eq__(self, other):
        if isinstance(other, ScalarField):
            return self.chart == other.chart and self.poly == other.poly
        if isinstance(other, (int, Fraction)):
            return self.poly == ScalarField(self.chart, other).poly
        return NotImplemented

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
        if isinstance(other, (int, Fraction)):
            return ScalarField(self.chart, other)
        return None

    def _plus(self, other, scale: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        poly = dict(self.poly)
        _poly_add_into(poly, other.poly, scale)
        return ScalarField._wrap(self.chart, poly)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._wrap(self.chart, _poly_scale(self.poly, -1))

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ScalarField._wrap(self.chart, _poly_mul(self.poly, other.poly))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise UnsupportedExpressionError("only integer powers are supported")
        return ScalarField._wrap(self.chart, _poly_int_pow(self.poly, exponent))

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
        return ScalarField._wrap(self.chart, _poly_diff(self.poly, index))

    def _coordinates(self, point: Point | Sequence[float]) -> tuple:
        """The coordinates of ``point`` as floats, checked against the chart's dimension."""
        values = point.values if isinstance(point, Point) else tuple(float(v) for v in point)
        if len(values) != self.chart.dim:
            raise ChartMismatchError(
                f"point of dimension {len(values)} does not match chart of dimension {self.chart.dim}"
            )
        return values

    def evaluate(self, point: Point | Sequence[float]) -> float:
        result = _walk(self.root, self._coordinates(point), {}, self.chart.coordinate_name)
        if not math.isfinite(result):
            raise EvaluationOverflowError(
                f"evaluation produced a non-finite value at node {self.to_prefix()}", node=self.root
            )
        return result

    def term_scale(self, point: Point | Sequence[float]) -> float:
        """Sum of the absolute values of the top-level additive terms at ``point``.

        The size of what the field's sum cancels there, next to which a float
        value of the field can be judged; no zero test reads it.
        """
        x, root, sums, name = self._coordinates(point), self.root, {}, self.chart.coordinate_name
        terms = [abs(_walk(term, x, sums, name)) for term in (root.terms if root.__class__ is Sum else (root,))]
        try:
            return math.fsum(terms)
        except (OverflowError, ValueError) as exc:
            raise _evaluation_failed(root, exc, name) from exc

    def is_zero(self, config: "ZeroTestConfig | None" = None) -> "AxiomCheck":
        return is_zero(self, config)

    def exp(self) -> "ScalarField":
        """exp of this field; the field must be affine in the coordinates."""
        return ScalarField._wrap(self.chart, _exp_poly(_affine(self.poly, self.to_prefix)))


def exp(field: ScalarField) -> ScalarField:
    """exp of an affine scalar field."""
    return field.exp()


def partial(field: ScalarField, index: int) -> ScalarField:
    """Exact symbolic partial derivative, normalized."""
    return field.partial(index)


# ---------------------------------------------------------------------------
# zero-test settings and verdicts, and the float sampler
# ---------------------------------------------------------------------------


class ZeroTestConfig(Record):
    """Settings of the zero test.

    ``seed`` seeds :func:`exact_zero` and the witness points of a field it
    proves nonzero, at most ``sample_count`` of them.  These are the CLI's
    ``--seed`` and ``--samples``, and what a report echoes (:meth:`as_dict`).
    ``sample_count`` must be an ``int`` >= 1 and ``seed`` an ``int``, neither a
    ``bool``, so that no run seeds itself from the OS; ``ValueError`` otherwise.
    """

    __slots__ = _fields = ("sample_count", "seed")

    def __init__(self, sample_count: int = 50, seed: int = 7):
        for name, value in (("sample_count", sample_count), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        self._init(sample_count, seed)

    def as_dict(self) -> dict:
        """The settings keyed by field name, in field order: what a report echoes."""
        return dict(zip(self._fields, self._values()))


class AxiomCheck(Record):
    """Verdict for one axiom: how it was decided and, if it fails, a whole-number witness point.

    A failing verdict's residual is |value| at the witness, and ``samples`` counts the points
    tried; with no witness within ``sample_count`` points, the residual is 0.0.  A passing
    verdict has residual 0.0, no witness and 0 samples.  Its truth value is ``passed``.
    """

    __slots__ = _fields = ("axiom", "passed", "mode", "residual", "witness", "samples", "detail")

    def __init__(
        self,
        axiom: str,
        passed: bool,
        mode: str,  # "symbolic" | "exact"
        residual: float,
        witness: Point | None,
        samples: int,
        detail: str | None = None,
    ):
        self._init(axiom, passed, mode, residual, witness, samples, detail)

    def __bool__(self) -> bool:
        return self.passed

    def as_dict(self, chart: Chart) -> dict:
        data = {
            "axiom": self.axiom,
            "verdict": "pass" if self.passed else "fail",
            "mode": self.mode,
            "residual": self.residual,
            "witness": self.witness.labelled(chart) if self.witness is not None else None,
            "samples": self.samples,
        }
        if self.detail is not None:
            data["detail"] = self.detail
        return data


def sample_points(
    chart: Chart, config: ZeroTestConfig, *, box_halfwidth: float = 2.0, separation: float = 1e-2
) -> list[Point]:
    """``config.sample_count`` points drawn uniformly from [-box_halfwidth, box_halfwidth] with ``config.seed``.

    Identical arguments yield the identical sequence.  Points whose
    q-coordinates come closer than ``separation`` are redrawn (0 disables the
    guard); if the total number of draws exceeds 100x the requested count,
    the box is deemed incompatible with the guard (``DegenerateDomainError``).
    ``separation`` must be finite and >= 0, and ``box_halfwidth`` > 0 with
    ``2 * box_halfwidth`` finite; ``ValueError`` otherwise.  No zero test
    reads these points.
    """
    if not (math.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be finite and nonnegative, got {separation!r}")
    if not (box_halfwidth > 0 and math.isfinite(2 * box_halfwidth)):
        raise ValueError(f"box_halfwidth must be positive with a finite box width, got {box_halfwidth!r}")
    rng = random.Random(config.seed)
    pairs = [(i, j) for i in range(chart.n) for j in range(i + 1, chart.n)]
    points: list[Point] = []
    for _ in range(100 * config.sample_count):
        values = [rng.uniform(-box_halfwidth, box_halfwidth) for _ in range(chart.dim)]
        if all(abs(values[i] - values[j]) >= separation for i, j in pairs):
            points.append(Point(values))
            if len(points) == config.sample_count:
                return points
    raise DegenerateDomainError(
        f"separation guard {separation} rejected too many samples in a box of half-width {box_halfwidth}"
    )


# ---------------------------------------------------------------------------
# exact zero testing
# ---------------------------------------------------------------------------

_EXACT_BITS = 32  # exact points draw each variable from M = 2**32 consecutive integers
_EXACT_ERROR_BITS = 64  # a zero verdict is wrong with probability at most 2**-64
_EXACT_MAX_DEGREE = 1 << 16  # past this degree bound the integers grow past two megabits
_EXACT_REDRAWS = 4  # a nonzero sum base vanishes at a point with odds <= 2**-16, so 4 in a row is <= 2**-64
_WITNESS_GRID = 16  # witness points draw each coordinate, and t, from 1..16


def _integer_form(poly: Polynomial, rate: int, dim: int, forms: dict) -> tuple:
    """A polynomial as N / D, integer polynomials in (x, y, t): (groups, shift, floors, scale, deg N, deg D).

    x_i is variable i; exp(a.x + c) is t^(c rate) prod y_i^(a_i rate), t and
    y_i being variables dim and dim + 1 + i.  With low and m the most negative
    exponents of the variables and sum bases S = N_S / D_S, D = scale prod
    v^-low_v prod N_S^-m_S, and c v^alpha prod S^e_S adds c scale v^(alpha -
    low) prod N_S^(e_S - m_S) D_S^-e_S to N.  A base enters ``forms`` first.
    """
    low: dict[int, int] = {}  # variable -> its most negative exponent
    deep: dict[int, int] = {}  # sum id -> its most negative exponent
    exps: dict[tuple, tuple] = {(): ()}  # exp argument -> its (variable, exponent) pairs over t and y
    for coords, affine, sums in poly:
        if affine not in exps:
            exps[affine] = tuple([(dim + 1 + i, int(a * rate)) for i, a in affine])
        for v, e in coords + exps[affine]:
            if e < low.get(v, 0):
                low[v] = e
        for sid, e in sums:
            if e < deep.get(sid, 0):
                deep[sid] = e
            if sid not in forms:
                forms[sid] = _integer_form(_SUMS[sid].poly, rate, dim, forms)
    shift = [(v, -e) for v, e in low.items()]
    common = sum([-m * forms[sid][4] for sid, m in deep.items()])  # deg prod N_S^-m_S
    cofactor = sum([-m * max(forms[sid][4:]) for sid, m in deep.items()])  # bounds deg prod N_S^(e_S - m_S) D_S^-e_S
    groups: dict[tuple, list] = {}
    scale = math.lcm(*[coeff.denominator for coeff in poly.values()])
    degree = 0
    for (coords, affine, sums), coeff in poly.items():
        factors = coords + exps[affine]
        if shift:
            exponents = dict(factors)
            exponents.update([(v, exponents.get(v, 0) + e) for v, e in shift])
            factors = tuple([(v, e) for v, e in exponents.items() if e])
        groups.setdefault(sums, []).append((int(coeff * scale), factors))
        degree = max(degree, sum([e for _, e in factors]))
    return groups, shift, [(~sid, -m) for sid, m in deep.items()], scale, degree + cofactor, common - sum(low.values())


def _integer_value(top: tuple, forms: dict, point: list[int]) -> tuple[int, int] | None:
    """(N, D) at integer values of (x, t, y), or None where the numerator N_S of some sum base vanishes."""
    values: dict[int, int] = dict(enumerate(point))  # variable or ~sum id -> its value (N_S for a sum)
    denominators: dict[int, int] = {}  # sum id -> D_S
    cache: dict[tuple, int] = {}  # factor -> its value

    def product(value: int, factors: list) -> int:
        for factor in factors:
            power = cache.get(factor)
            if power is None:
                power = cache[factor] = values[factor[0]] ** factor[1]
            value *= power
        return value

    def fraction(form: tuple) -> tuple[int, int]:
        groups, shift, floors, scale = form[:4]
        common = product(1, floors)  # prod N_S^-m_S, which each group's prod N_S^-e_S divides
        total = 0
        for sums, terms in groups.items():
            divisor = product(1, [(~sid, -e) for sid, e in sums])
            multiplier = math.prod([denominators[sid] ** -e for sid, e in sums])
            total += common // divisor * multiplier * sum([product(c, factors) for c, factors in terms])
        return total, scale * product(common, shift)

    for sid, form in forms.items():
        values[~sid], denominators[sid] = fraction(form)
        if not values[~sid]:
            return None
    return fraction(top)


def exact_zero(field: ScalarField, seed: int) -> bool | None:
    """Decide whether a field is zero by exact evaluation at random integer points.

    With L the lcm of the denominators of every exp coefficient, sum bases
    included, put y_i = exp(x_i / L) and t = e^(1/L): exp(a.x + c) becomes
    t^(cL) prod y_i^(a_i L), and the field becomes N / D, integer polynomials
    in (x, y, t) cleared through sum bases nested to any depth
    (``_integer_form``).  The y_i are exponentials of Q-linearly independent
    linear forms, so they are algebraically independent over C(x), and t is
    transcendental (Hermite-Lindemann): once no sum base is zero, the field
    is zero exactly when N is.  With no sum base, the distinct monomials
    x^a exp(b.x + c) of the canonical polynomial become distinct monomials
    x^a y^(bL) t^(cL) of N, so such a field is zero exactly when its
    polynomial is empty: no point is drawn and no degree bound applies.

    Points are drawn with ``random.Random(seed)``, each variable from M =
    2**32 consecutive integers, and drawn again where the numerator N_S of a
    sum base vanishes, so a point certifies that no base is zero.  A nonzero
    value of N proves the field nonzero.  Given G = prod N_S != 0, a nonzero
    N vanishes at a point with probability at most (deg N + deg G) / M
    (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM 1979), both degrees bounded
    from the exponents, so k points, the least k with ((deg N + deg G) /
    M)^k <= 2^-64, make a zero verdict wrong with probability at most 2^-64.
    Returns None, undecided, for a field with a sum base whose deg N +
    deg G exceeds 2**16, or when ``_EXACT_REDRAWS`` draws in a row hit a
    zero of some N_S, as all do when a sum base is zero as a function.
    """
    return _exact_decision(field, seed)[0]


def _degree_bound(form: tuple) -> int:
    """deg N + deg G of an integer form (top, forms), the bound :func:`exact_zero` draws its points by."""
    top, forms = form
    return top[4] + sum([base[4] for base in forms.values()])


def _exact_decision(field: ScalarField, seed: int) -> tuple[bool | None, tuple]:
    """:func:`exact_zero`'s verdict, and the integer form (top, forms) it evaluated, for :func:`_exact_witness`."""
    forms: dict[int, tuple] = {}  # sum id -> its integer form, each base after the bases inside it
    top = _integer_form(field.poly, _rate(field.poly), field.chart.dim, forms)
    form = top, forms
    if not forms:
        return not field.poly, form
    degree = _degree_bound(form)
    if degree > _EXACT_MAX_DEGREE:
        return None, form
    rounds = 1
    while degree**rounds << _EXACT_ERROR_BITS > 1 << _EXACT_BITS * rounds:
        rounds += 1
    rng = random.Random(seed)
    half, variables = 1 << _EXACT_BITS - 1, 2 * field.chart.dim + 1
    for _ in range(rounds):
        for _ in range(_EXACT_REDRAWS):
            value = _integer_value(top, forms, [rng.getrandbits(_EXACT_BITS) - half for _ in range(variables)])
            if value is not None:
                break
        else:
            return None, form
        if value[0]:
            return False, form
    return True, form


def _exact_witness(field: ScalarField, form: tuple, config: ZeroTestConfig) -> tuple[float, Point | None, int]:
    """(|f(p)|, p, points tried) at the first whole-number point p that proves f(p) != 0 with a positive float residual.

    Each p_i and one integer T are drawn from 1..16 with ``random.Random(config.seed)``,
    and ``form``, the integer form :func:`_exact_decision` proved nonzero, is evaluated at
    x = p, t = T, y_i = T^p_i.  As y_i = t^p_i at x = p, a nonzero N there (every N_S too)
    makes N(p, t^p, t) a nonzero integer polynomial, so nonzero at the transcendental
    t = e^(1/L): f(p) != 0.  With no exp in the field or any of its sum bases, N / D is f(p)
    itself, and the residual is |N| / |D| rounded once; a field with an exp takes it from
    ``ScalarField.evaluate``, before N is evaluated, as N may have millions of bits there.
    A point with a zero value (a pole, or T a root), or whose residual overflows a float or
    rounds to 0.0, is passed over; after ``config.sample_count`` points the result is
    (0.0, None, sample_count).
    """
    top, forms = form
    exp_free = not any(affine for poly in (field.poly, *[_SUMS[sid].poly for sid in forms]) for _, affine, _ in poly)
    rng = random.Random(config.seed)
    for tried in range(1, config.sample_count + 1):
        *p, t = [rng.randint(1, _WITNESS_GRID) for _ in range(field.chart.dim + 1)]
        point = Point(p)
        try:
            residual = None if exp_free else abs(field.evaluate(point))
            if residual == 0.0:
                continue
            value = _integer_value(top, forms, [*p, t, *[t**x for x in p]])
            if value and value[0]:
                residual = residual or abs(value[0]) / abs(value[1])
                if residual:
                    return residual, point, tried
        except (OverflowError, EvaluationOverflowError):
            continue
    return 0.0, None, config.sample_count


def _nonzero_fields(name: str, fields: Iterable[ScalarField], seed: int) -> tuple[str, list[tuple]]:
    """The decision of a zero test, with no float evaluation: its mode, and each field proved nonzero.

    Fields are ``symbolic`` zeros, else go to :func:`exact_zero`; one it leaves undecided raises
    ConfigError, whose message starts with ``name`` and names the cause.  A field proved nonzero
    comes with the integer form that proved it.
    """
    pending: list[ScalarField] = [f for f in fields if not f.is_zero_tree]
    if not pending:
        return "symbolic", []
    exact = [(f, *_exact_decision(f, seed)) for f in pending]  # (field, True/False/None, its integer form)
    for _, zero, form in exact:
        if zero is None:
            degree = _degree_bound(form)
            cause = (
                f"degree bound {degree} is past 2**16"
                if degree > _EXACT_MAX_DEGREE
                else f"a sum base was zero at {_EXACT_REDRAWS} draws in a row"
            )
            raise ConfigError(f"{name}: undecided by the exact zero test: {cause}")
    return "exact", [(f, form) for f, zero, form in exact if not zero]


def _all_zero(name: str, fields: Iterable[ScalarField], seed: int) -> bool:
    """Whether every field is zero, decided as :func:`_zero_verdict` decides it, with no witness search."""
    return not _nonzero_fields(name, fields, seed)[1]


def _zero_verdict(
    name: str, fields: Iterable[ScalarField], config: ZeroTestConfig, detail: str | None = None
) -> AxiomCheck:
    """The zero test of every report entry: the :class:`AxiomCheck` of axiom ``name``, mode ``symbolic`` or ``exact``.

    Every field is decided by :func:`_nonzero_fields`.  A failing verdict is witnessed on each field
    proved nonzero by the exact test's own integer form (:func:`_exact_witness`), and takes residual,
    witness and points tried from the field with the largest residual: on a tie, the first in ``fields``.
    """
    mode, nonzero = _nonzero_fields(name, fields, config.seed)
    if not nonzero:
        return AxiomCheck(name, True, mode, 0.0, None, 0, detail)
    residual, witness, samples = max((_exact_witness(*found, config) for found in nonzero), key=lambda w: w[0])
    return AxiomCheck(name, False, mode, residual, witness, samples, detail)


def is_zero(field: ScalarField, config: ZeroTestConfig | None = None) -> AxiomCheck:
    """Whether a field is zero: the entry a report would carry for it, under the axiom name ``is_zero``.

    Its truth value is the verdict; a field the exact test leaves undecided raises
    :class:`pqncheck.errors.ConfigError`.
    """
    return _zero_verdict("is_zero", [field], config or ZeroTestConfig())


# ---------------------------------------------------------------------------
# prefix-expression grammar: (+ ...), (* ...), (^ base k), (exp a),
# rational literals, and coordinate tokens q<i> / p<i>.
# ---------------------------------------------------------------------------

_TOKEN_RE = r"\(|\)|[^\s()]+"  # regex patterns; the re module caches them
_RATIONAL_RE = r"^-?\d+(/\d+)?$"
_COORD_RE = r"^([qp])(\d+)$"


def to_prefix(node: Node, chart: Chart | None = None) -> str:
    """Render a node in the prefix grammar; without a chart, coordinates print as x<i>."""
    return _render(node, chart.coordinate_name if chart is not None else None)


def _render(node: Node, name: Callable[[int], str] | None) -> str:
    """Render a node in the prefix grammar, naming coordinate i ``name(i)``, or x<i + 1> without ``name``."""
    name = name or (lambda index: f"x{index + 1}")

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


def _parse(text: str, chart: Chart, resolve: Callable[[str], ScalarField]) -> ScalarField:
    """A field from the prefix grammar, built by ring operations as it is read.

    ``resolve`` maps each non-numeric atom (a coordinate name or another symbol) to a field
    on ``chart``; it should raise on unknown names.
    """
    tokens = re.findall(_TOKEN_RE, text)
    if not tokens:
        raise UnsupportedExpressionError("empty expression")
    pos = 0

    def parse() -> ScalarField:
        nonlocal pos
        if pos >= len(tokens):
            raise UnsupportedExpressionError(f"unexpected end of expression: {_quoted(text)}")
        token = tokens[pos]
        pos += 1
        if token == ")":
            raise UnsupportedExpressionError(f"unexpected ')' in {_quoted(text)}")
        if token != "(":
            if re.match(_RATIONAL_RE, token):
                try:
                    return chart.constant(Fraction(token))
                except ZeroDivisionError:
                    raise UnsupportedExpressionError(f"zero denominator in {_quoted(token)}") from None
            return resolve(token)
        if pos >= len(tokens):
            raise UnsupportedExpressionError(f"unterminated '(' in {_quoted(text)}")
        op = tokens[pos]
        pos += 1
        first = pos  # the first token of the arguments
        args: list[ScalarField] = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(parse())
        if pos >= len(tokens):
            raise UnsupportedExpressionError(f"unterminated '(' in {_quoted(text)}")
        pos += 1  # consume ')'
        # A sum or product is formed on the polynomials and wrapped once, not once per argument.
        if op == "+":
            poly: Polynomial = {}
            for arg in args:
                _poly_add_into(poly, arg.poly)
            return ScalarField._wrap(chart, poly)
        if op == "*":
            poly = {_UNIT: 1}
            for arg in args:
                poly = _poly_mul(poly, arg.poly)
            return ScalarField._wrap(chart, poly)
        if op == "^":
            # The exponent is the last argument, written as one integer literal token.
            k = args[1].constant_value if len(args) == 2 and re.match(_RATIONAL_RE, tokens[pos - 2]) else None
            if k is None or k.denominator != 1:
                raise UnsupportedExpressionError("(^ base k) requires an integer exponent")
            return args[0] ** int(k)
        if op == "exp":
            if len(args) != 1:
                raise UnsupportedExpressionError("(exp a) takes exactly one argument")
            end = pos - 1  # the argument as written is tokens[first:end]
            affine = _affine(args[0].poly, lambda: " ".join(tokens[first:end]).replace("( ", "(").replace(" )", ")"))
            return ScalarField._wrap(chart, _exp_poly(affine))
        raise UnsupportedExpressionError(f"unknown operator {_quoted(op)}")

    try:
        field = parse()
    except RecursionError:  # parsing recurses once per level of nesting
        raise UnsupportedExpressionError(f"expression nested too deeply: {_quoted(text)}") from None
    if pos != len(tokens):
        raise UnsupportedExpressionError(f"trailing tokens in {_quoted(text)}")
    return field


def parse_prefix(text: str, chart: Chart) -> ScalarField:
    """Parse a prefix expression over a chart's coordinates into a ScalarField."""

    def resolve(token: str) -> ScalarField:
        m = re.match(_COORD_RE, token)
        if m is None:
            raise UnsupportedExpressionError(f"unknown symbol {_quoted(token)}")
        try:
            return chart.q(int(m.group(2))) if m.group(1) == "q" else chart.p(int(m.group(2)))
        except IndexError as exc:
            raise UnsupportedExpressionError(f"no coordinate {_quoted(token)} on a chart with n={chart.n}") from exc

    return _parse(text, chart, resolve)
