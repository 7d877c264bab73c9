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
reaches every field of the ring up to a degree bound; floats only measure the
residual of a field it proved nonzero.  Expression trees are only the boundary:
parsed input is normalized into a polynomial, and the canonical tree is built
from it for printing and for compiling the field into one float function.
``univariate_antiderivative`` integrates on the same polynomial, so no other
module reads its layout.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from functools import lru_cache
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
        """A copy with the named fields changed, validated again by ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class Chart(Record):
    """A 2n-dimensional chart with coordinates ordered (q_1..q_n, p_1..p_n).

    Indices are 0-based internally; every report and serialized artifact uses
    the 1-based names ``q1..qn, p1..pn``.
    """

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"particle count must be a positive integer, got {n!r}")
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
        return ScalarField(self, Coord(index))

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

    @classmethod
    def _wrap(cls, values: tuple) -> "Point":
        """A point of floats already known to be finite, taken without the checks of ``__init__``."""
        point = object.__new__(cls)
        object.__setattr__(point, "values", values)
        return point

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
    """Base class of expression-tree nodes.  Nodes are immutable and hashable; the hash is cached."""

    __slots__ = ("_hash",)  # float compilation looks up each distinct subtree by value

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values()))
            return self._hash

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
    """exp of an affine combination of coordinates (checked during normalization)."""

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
# at the edges: ``_poly`` reads an input tree, and ``_term_nodes`` builds the
# canonical tree, in tree-key order, for printing and float compilation.
# ---------------------------------------------------------------------------

Monomial = tuple  # (coords, affine, sums), see above
Polynomial = dict  # dict[Monomial, int | Fraction]

_UNIT: Monomial = ((), (), ())
_X: Monomial = (((0, 1),), (), ())
_CONSTANT = -1  # the index of an affine form's constant term, sorted before every coordinate


def _exact(value):
    """An integral ``Fraction`` as its ``int``; any other coefficient unchanged."""
    return value.numerator if value.__class__ is Fraction and value.denominator == 1 else value


class _SumBase:
    """An interned content-normalized sum: its polynomial, canonical tree, tree key, variables and exp rate."""

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


def _affine(poly: Polynomial, name: Callable[[int], str] | None = None) -> tuple:
    """The affine form of a polynomial of degree at most one in the coordinates; ``name`` names them in errors."""
    pairs = []
    for (coords, affine, sums), coeff in poly.items():
        if affine or sums or len(coords) > 1 or coords and coords[0][1] != 1:
            raise UnsupportedExpressionError(
                f"exp argument must be affine in the coordinates, got {_render(_poly_to_node(poly), name)}"
            )
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
    lead = min(poly, key=lambda mono: _term_key(_factors(mono)))
    content = Fraction(poly[lead])
    monic = _poly_scale(poly, 1 / content)
    return {((), (), ((_sum_id(monic), exponent),)): _exact(content**exponent)}


def _poly(node: Node) -> Polynomial:
    if isinstance(node, Const):
        return {} if node.value == 0 else {_UNIT: _exact(node.value)}
    if isinstance(node, Coord):
        return {(((node.index, 1),), (), ()): 1}
    if isinstance(node, Sum):
        out: Polynomial = {}
        for term in node.terms:
            _poly_add_into(out, _poly(term))
        return out
    if isinstance(node, Product):
        out = {_UNIT: 1}
        for factor in node.factors:
            out = _poly_mul(out, _poly(factor))
        return out
    if isinstance(node, Power):
        return _poly_int_pow(_poly(node.base), node.exponent)
    if isinstance(node, Exp):
        return _exp_poly(_affine(_poly(node.argument)))
    raise TypeError(f"not an expression node: {node!r}")


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


def _term_key(factors: list) -> list:
    """The sort key of a term: the tree key and exponent of each factor, in order."""
    return [(key, e) for key, _, e in factors]


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
    terms = [(_factors(mono), coeff) for mono, coeff in poly.items()]
    terms.sort(key=lambda term: _term_key(term[0]))
    return [_term_node(factors, coeff) for factors, coeff in terms]


def _poly_to_node(poly: Polynomial) -> Node:
    terms = _term_nodes(poly)
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


def _slope(poly: Polynomial) -> RationalLike:
    """The x-coefficient of a polynomial affine in x = Coord(0) alone; 0 for any other polynomial."""
    if any(mono not in (_UNIT, _X) for mono in poly):
        return 0
    return poly.get(_X, 0)


def univariate_antiderivative(spec: Node) -> Node | None:
    """A primitive in x = Coord(0) of a univariate tree, when one exists in the ring.

    Integrates term by term: c b^e becomes c b^(e+1) / ((e+1) b') for a
    power of x or of an affine sum in x (e != -1), and c exp(a) becomes
    c exp(a) / a' for an affine a.  Returns None for any other term, such as
    1/x or x exp(x), whose primitive leaves the ring.  The integration
    constant is zero.
    """
    primitive: Polynomial = {}
    for (coords, affine, sums), coeff in _poly(spec).items():
        if len(coords) + bool(affine) + len(sums) > 1:
            return None
        if affine:
            rate, mono = _slope(_affine_poly(affine)), ((), affine, ())
        elif sums:  # b' is the slope of the sum's own polynomial
            (sid, e), = sums
            rate, mono = (e + 1) * _slope(_SUMS[sid].poly), ((), (), ((sid, e + 1),))
        else:  # a power of a coordinate; a constant is x^0
            index, e = coords[0] if coords else (0, 0)
            rate, mono = (e + 1 if index == 0 else 0), (((index, e + 1),), (), ())
        if not rate:
            return None
        primitive[mono] = _exact(Fraction(coeff) / rate)
    return _poly_to_node(primitive)


# ---------------------------------------------------------------------------
# evaluation
#
# A field compiles, on first evaluation, to one straight-line Python function
# of the coordinate tuple that returns the float value of each top-level term
# of its canonical tree.  The source is built only from ``repr`` of floats,
# coordinate indices and integer exponents, never from input text.  Values
# are bit-identical to evaluating the canonical tree node by node, because
# the function does the same float operations in the same order: products
# multiply left to right, ``Power`` is ``base ** exponent``, ``Exp`` is
# ``math.exp`` of its argument and a sum is ``fsum`` of its terms.  Each
# distinct sum, power and exp is computed once per point, on a line of its
# own, so a float failure can be traced back to its node.
# ---------------------------------------------------------------------------


class _FloatSource:
    """Lines of a compiled field: one assignment per distinct sum, power or exp."""

    def __init__(self):
        self.lines: list[str] = []
        self.nodes: list[Node] = []  # the node computed on each line
        self.names: dict[Node, str] = {}

    def expr(self, node: Node) -> str:
        if isinstance(node, Const):
            try:
                return f"({float(node.value)!r})"
            except OverflowError as exc:
                raise EvaluationOverflowError(f"constant {node.value} does not fit a float", node=node) from exc
        if isinstance(node, Coord):
            return f"x{node.index}"
        if isinstance(node, Product):
            # no leading 1.0: multiplying by it changes no bit
            return "(" + " * ".join(self.expr(f) for f in node.factors) + ")"
        name = self.names.get(node)
        if name is not None:
            return name
        if isinstance(node, Sum):
            value = "fsum((" + "".join(f"{self.expr(t)}, " for t in node.terms) + "))"
        elif isinstance(node, Power):
            value = f"{self.expr(node.base)} ** {node.exponent}"
        elif isinstance(node, Exp):
            value = f"exp({self.expr(node.argument)})"
        else:
            raise TypeError(f"not an expression node: {node!r}")
        name = self.names[node] = f"b{len(self.lines)}"
        self.lines.append(f"    {name} = {value}")
        self.nodes.append(node)
        return name


_FIRST_NODE_LINE = 3  # after the ``def`` line and the coordinate unpacking


def _compile_terms(terms: Sequence[Node], dim: int) -> Callable[[tuple], tuple]:
    """One function of the coordinate tuple returning the float value of each term."""
    source = _FloatSource()
    values = "".join(f"{source.expr(t)}, " for t in terms)
    text = "\n".join(
        [
            "def terms(v):",
            "    " + "".join(f"x{i}, " for i in range(dim)) + "= v",
            *source.lines,
            f"    return ({values})",
        ]
    )
    namespace = {"fsum": math.fsum, "exp": math.exp}
    exec(compile(text, "<scalar field>", "exec"), namespace)
    function = namespace["terms"]
    function.nodes = source.nodes
    return function


def _failed_node(function, exc: BaseException) -> Node:
    """The node whose line of the compiled ``function`` raised ``exc``."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return function.nodes[tb.tb_lineno - _FIRST_NODE_LINE]


# ---------------------------------------------------------------------------
# ScalarField
# ---------------------------------------------------------------------------


class ScalarField:
    """A scalar field bound to a chart, stored as its canonical polynomial.

    ``poly`` maps monomials (plain tuples, see "normalization") to nonzero
    ``int`` or ``Fraction`` coefficients, and every operator reads and writes
    it directly, without building a tree.  The canonical tree ``root`` is built
    from it once, on first use, for printing only, and so is ``variables``, the
    coordinates the polynomial mentions.  Evaluation compiles the canonical
    tree's terms once, on first use, into one float function of the point (see
    ``_compile_terms``).  Immutable; all arithmetic returns new fields.  Safe to
    share across threads; a pickle holds the tree, not process-local sum ids.
    """

    __slots__ = ("chart", "poly", "_root", "_terms", "_variables")

    def __init__(self, chart: Chart, tree):
        variables = None
        if isinstance(tree, ScalarField):
            if tree.chart != chart:
                raise ChartMismatchError("scalar field belongs to a different chart")
            poly, variables = tree.poly, tree._variables
        elif isinstance(tree, Node):
            poly = _poly(tree)
            variables = _variables(poly)
            if variables and not (0 <= variables[0] and variables[-1] < chart.dim):
                bad = variables[0] if variables[0] < 0 else variables[-1]
                raise ChartMismatchError(f"coordinate index {bad} out of range for chart of dimension {chart.dim}")
        else:
            value = _as_fraction(tree)
            poly = {_UNIT: _exact(value)} if value else {}
        for name, value in zip(self.__slots__, (chart, poly, None, None, variables)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @classmethod
    def _wrap(cls, chart: Chart, poly: Polynomial) -> "ScalarField":
        obj = object.__new__(cls)
        object.__setattr__(obj, "chart", chart)
        object.__setattr__(obj, "poly", poly)
        object.__setattr__(obj, "_root", None)
        object.__setattr__(obj, "_terms", None)
        object.__setattr__(obj, "_variables", None)
        return obj

    def __reduce__(self):
        # Rebuilt from the canonical tree, because sum ids are local to a process; the caches refill on use.
        return ScalarField, (self.chart, self.root)

    # -- structure ----------------------------------------------------------

    @property
    def root(self) -> Node:
        """The canonical expression tree of the polynomial, built on first use."""
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
        if isinstance(other, (int, Fraction, Node)):
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

    def _term_values(self, point: Point | Sequence[float]) -> tuple[float, ...]:
        """The float value of each top-level term of the canonical tree at ``point``."""
        values = point.values if isinstance(point, Point) else tuple(float(v) for v in point)
        if len(values) != self.chart.dim:
            raise ChartMismatchError(
                f"point of dimension {len(values)} does not match chart of dimension {self.chart.dim}"
            )
        function = self._terms
        if function is None:
            function = _compile_terms(_term_nodes(self.poly), self.chart.dim)
            object.__setattr__(self, "_terms", function)
        try:
            return function(values)
        except (ArithmeticError, ValueError) as exc:
            node = _failed_node(function, exc)
            raise EvaluationOverflowError(
                f"evaluation failed at node {to_prefix(node, self.chart)}: {exc}", node=node
            ) from exc

    def _sum(self, terms) -> float:
        try:
            return math.fsum(terms)
        except (OverflowError, ValueError) as exc:
            raise EvaluationOverflowError(
                f"evaluation failed at node {self.to_prefix()}: {exc}", node=self.root
            ) from exc

    def evaluate(self, point: Point | Sequence[float]) -> float:
        terms = self._term_values(point)
        # A lone term is returned as it is: fsum would turn -0.0 into 0.0.
        result = self._sum(terms) if len(terms) > 1 else terms[0]
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
        return self._sum(map(abs, self._term_values(point)))

    def is_zero(self, config: "ZeroTestConfig | None" = None) -> "ZeroVerdict":
        return is_zero(self, config or ZeroTestConfig())

    def exp(self) -> "ScalarField":
        """exp of this field; the field must be affine in the coordinates."""
        return ScalarField._wrap(self.chart, _exp_poly(_affine(self.poly, self.chart.coordinate_name)))


def exp(field: ScalarField) -> ScalarField:
    """exp of an affine scalar field."""
    return field.exp()


def evaluate(field: ScalarField, point: Point | Sequence[float]) -> float:
    """Float value of the field at a point (deterministic)."""
    return field.evaluate(point)


def partial(field: ScalarField, index: int) -> ScalarField:
    """Exact symbolic partial derivative, normalized."""
    return field.partial(index)


# ---------------------------------------------------------------------------
# probabilistic zero testing
# ---------------------------------------------------------------------------


class ZeroTestConfig(Record):
    """Sampling parameters for the probabilistic zero test.

    The identities this engine checks hold exactly in exact arithmetic, so
    residuals at sample points are pure roundoff; ``tolerance`` is applied in
    absolute-plus-relative form against the local term scale.  ``separation``
    is the minimum |q_i - q_j| enforced while sampling (0 disables the guard);
    it keeps samples away from collision singularities of inverse-power
    potentials.  Points are drawn uniformly from [-box_halfwidth,
    box_halfwidth] in every coordinate.  ``seed`` also seeds the integer
    points of :func:`exact_zero`, which reads no other setting.

    Valid ranges, checked on construction (``ValueError`` otherwise):
    ``sample_count`` an ``int`` (not a ``bool``) >= 1; ``tolerance`` finite
    and > 0; ``separation`` finite and >= 0; ``box_halfwidth`` > 0 with
    ``2 * box_halfwidth`` finite.
    """

    __slots__ = _fields = ("sample_count", "box_halfwidth", "separation", "tolerance", "seed")

    def __init__(
        self,
        sample_count: int = 50,
        box_halfwidth: float = 2.0,
        separation: float = 1e-2,
        tolerance: float = 1e-9,
        seed: int = 7,
    ):
        if isinstance(sample_count, bool) or not isinstance(sample_count, int):
            raise ValueError(f"sample_count must be an integer, got {sample_count!r}")
        if sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
        if not (math.isfinite(separation) and separation >= 0):
            raise ValueError(f"separation must be finite and nonnegative, got {separation!r}")
        if not (box_halfwidth > 0 and math.isfinite(2 * box_halfwidth)):
            raise ValueError(f"box_halfwidth must be positive with a finite box width, got {box_halfwidth!r}")
        self._init(sample_count, box_halfwidth, separation, tolerance, seed)

    def as_dict(self) -> dict:
        """The settings keyed by field name, in field order."""
        return dict(zip(self._fields, self._values()))


class ZeroVerdict(Record):
    """Outcome of a sampled zero test.

    ``residual`` is the largest |f(x)| seen relative to its acceptance
    threshold; ``witness`` is the point where it occurred.  ``is_zero`` is
    False as soon as one sample exceeds tolerance * (1 + local term scale).
    """

    __slots__ = _fields = ("is_zero", "residual", "witness", "samples")

    def __init__(self, is_zero: bool, residual: float, witness: Point | None, samples: int):
        self._init(is_zero, residual, witness, samples)

    def __bool__(self) -> bool:
        return self.is_zero


def sample_points(chart: Chart, config: ZeroTestConfig) -> list[Point]:
    """Deterministic uniform samples in the box, respecting the separation guard.

    Identical config (including seed) yields the identical sequence.  Points
    whose q-coordinates come closer than ``separation`` are redrawn; if the
    total number of draws exceeds 100x the requested count, the box is deemed
    incompatible with the guard.
    """
    draw = random.Random(config.seed).random
    h = config.box_halfwidth
    low, width = -h, h - -h  # so low + width * draw() is rng.uniform(-h, h)
    separation = config.separation
    pairs = [(i, j) for i in range(chart.n) for j in range(i + 1, chart.n)] if separation > 0 else []
    budget = 100 * config.sample_count
    points: list[Point] = []
    while len(points) < config.sample_count:
        # Draw as many candidates as points are missing, each from the next
        # dim values of the stream, so the draws match one point at a time.
        count = min(config.sample_count - len(points), budget)
        if count == 0:
            raise DegenerateDomainError(
                f"separation guard {separation} rejected too many samples in a box of half-width {h}"
            )
        budget -= count
        stream = iter([low + width * draw() for _ in range(count * chart.dim)])
        for values in zip(*[stream] * chart.dim):
            for i, j in pairs:
                if abs(values[i] - values[j]) < separation:
                    break
            else:
                points.append(Point._wrap(values))
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
        # The threshold is at least the tolerance, so value / tolerance bounds this
        # sample's ratio from above; when that bound cannot beat the worst ratio,
        # the sample changes nothing and its term scale is not needed.
        if value / cfg.tolerance <= worst_ratio:
            continue
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
# exact zero testing
# ---------------------------------------------------------------------------

_EXACT_BITS = 32  # exact points draw each variable from M = 2**32 consecutive integers
_EXACT_ERROR_BITS = 64  # a zero verdict is wrong with probability at most 2**-64
_EXACT_MAX_DEGREE = 1 << 16  # past this degree bound the integers grow past two megabits
_EXACT_REDRAWS = 4  # a nonzero sum base vanishes at a point with odds <= 2**-16, so 4 in a row is <= 2**-64


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


def exact_zero(field: ScalarField, seed: int) -> bool | None:
    """Decide whether a field is zero by exact evaluation at random integer points.

    With L the lcm of the denominators of every exp coefficient, sum bases
    included, put y_i = exp(x_i / L) and t = e^(1/L): exp(a.x + c) becomes
    t^(cL) prod y_i^(a_i L), and the field becomes N / D, integer polynomials
    in (x, y, t) cleared through sum bases nested to any depth
    (``_integer_form``).  The y_i are exponentials of Q-linearly independent
    linear forms, so they are algebraically independent over C(x), and t is
    transcendental (Hermite-Lindemann): once no sum base is zero, the field
    is zero exactly when N is.

    Points are drawn with ``random.Random(seed)``, each variable from M =
    2**32 consecutive integers, and drawn again where the numerator N_S of a
    sum base vanishes, so a point certifies that no base is zero.  A nonzero
    value of N proves the field nonzero.  Given G = prod N_S != 0, a nonzero
    N vanishes at a point with probability at most (deg N + deg G) / M
    (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM 1979), both degrees bounded
    from the exponents, so k points, the least k with ((deg N + deg G) /
    M)^k <= 2^-64, make a zero verdict wrong with probability at most 2^-64.
    Returns None, undecided, when deg N + deg G exceeds 2**16, or when
    ``_EXACT_REDRAWS`` draws in a row hit a zero of some N_S, as all do
    when a sum base is zero as a function.
    """
    dim = field.chart.dim
    forms: dict[int, tuple] = {}  # sum id -> its integer form, each base after the bases inside it
    top = _integer_form(field.poly, _rate(field.poly), dim, forms)
    degree = top[4] + sum([form[4] for form in forms.values()])
    if degree > _EXACT_MAX_DEGREE:
        return None
    rounds = 1
    while degree**rounds << _EXACT_ERROR_BITS > 1 << _EXACT_BITS * rounds:
        rounds += 1
    values: dict[int, int] = {}  # variable or ~sum id -> its value (N_S for a sum) at the current point
    denominators: dict[int, int] = {}  # sum id -> D_S at the current point
    cache: dict[tuple, int] = {}  # factor -> its value at the current point

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

    rng = random.Random(seed)
    half = 1 << _EXACT_BITS - 1
    for _ in range(rounds):
        for _ in range(_EXACT_REDRAWS):
            cache.clear()
            values.update(enumerate([rng.getrandbits(_EXACT_BITS) - half for _ in range(2 * dim + 1)]))
            for sid, form in forms.items():
                values[~sid], denominators[sid] = fraction(form)
                if not values[~sid]:
                    break
            else:
                break
        else:
            return None
        if fraction(top)[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# prefix-expression grammar: (+ ...), (* ...), (^ base k), (exp a),
# rational literals, and coordinate tokens q<i> / p<i>.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_COORD_RE = re.compile(r"^([qp])(\d+)$")


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


def parse_prefix_tree(text: str, resolve: Callable[[str], Node]) -> Node:
    """Parse the prefix grammar into a raw node tree.

    ``resolve`` maps non-numeric atoms (coordinate names or extra symbols) to
    nodes; it should raise on unknown names.
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise UnsupportedExpressionError("empty expression")
    pos = 0
    names: dict[int, str] = {}  # coordinate index -> the token it was written as

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
            node = resolve(token)
            if isinstance(node, Coord):
                names[node.index] = token
            return node
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
            # Checked here, where the coordinates' names as written are known.
            _affine(_poly(args[0]), lambda index: names.get(index, f"x{index + 1}"))
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
