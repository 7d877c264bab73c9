"""Graded differential forms, vector fields, (1,1) tensors, and bivectors.

All coefficients are :class:`~pqncheck.scalar.ScalarField` values on a shared
chart.  All four types follow one sparse storage rule: ``coeffs`` maps a key
to a nonzero coefficient, and an absent key stands for zero.  The key is a
strictly increasing index tuple for a p-form, i for the vector component X^i,
(i, j) for the tensor entry N^i_j, and (i, j) with i < j for the bivector
entry pi^{ij} (the degree-2 form rule: pi^{ji} = -pi^{ij} is not stored).
One constructor loop builds all four from raw ``(key, coefficient)`` terms:
it normalizes each key (for forms and bivectors it sorts the index tuple with
its permutation sign and drops repeated indices, the one place that knows
wedge anticommutativity), drops zero coefficients, and sums equal keys.  The
operators below only generate raw terms over stored entries; ``+`` and ``-``
stream both operands' terms (the second negated for ``-``) into that loop too.
``VectorField.components`` and the ``entries`` of ``Tensor11`` and
``Bivector`` are read-only dense views.

Matrix conventions (pinned by the paper's explicit n = 2 matrices in the
test suite): a (1,1) tensor acts on column component vectors, entry (i, j)
being the i-th component of the image of the j-th coordinate field.  The bivector
raises 1-forms through (pi_sharp a)^i = sum_j pi^{ji} a_j, so the matrix of
pi_sharp has (i, j) entry pi^{ji}; a 2-form lowers vector fields through
(omega_flat X)_i = sum_j X^j omega_{ji}, so the matrix of omega_flat has
(i, j) entry omega_{ji}.  Both are the transpose of the stored antisymmetric
entries, and :func:`_musical_matrix` is the one place that builds them, once
per value.  It is also where every bracket of functions and pi_sharp read pi:
:func:`pi_sharp` applies the matrix kept for pi, and the Poisson bracket and
the Jacobi checks read {x_b, x_c} as its entry (c, b).  The only other reader
of pi's stored entries is the contraction of pi with forms, ``calculus._pi_interior``.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain

from .errors import ChartMismatchError, DegreeError
from .scalar import Chart, Record, ScalarField

CoeffLike = ScalarField | int | Fraction


def _coerce_scalar(chart: Chart, value: CoeffLike) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.chart != chart:
            raise ChartMismatchError("coefficient belongs to a different chart")
        return value
    return ScalarField(chart, value)


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort a wedge index tuple, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def _check_range(low: int, high: int, dim: int) -> None:
    if not (0 <= low and high < dim):
        raise ChartMismatchError(f"coordinate index {low if low < 0 else high} out of range for dim {dim}")


def _wedge_key(raw_key: Sequence[int], degree: int, dim: int) -> tuple[tuple[int, ...], int]:
    """The sorted index tuple of a wedge monomial and its permutation sign."""
    key, sign = _sort_with_sign(raw_key)
    if len(key) != degree:
        raise DegreeError(f"index tuple {tuple(raw_key)} does not match degree {degree}")
    if key:
        _check_range(key[0], key[-1], dim)
    return key, sign


def _matrix_terms(chart: Chart, rows: Sequence[Sequence[CoeffLike]]):
    """The ``((i, j), entry)`` terms of a dense chart.dim x chart.dim matrix."""
    if len(rows) != chart.dim or any(len(row) != chart.dim for row in rows):
        raise ChartMismatchError(f"expected a {chart.dim}x{chart.dim} matrix")
    return (((i, j), entry) for i, row in enumerate(rows) for j, entry in enumerate(row))


class _Sparse(Record):
    """Storage and linear algebra shared by the four tensor types.

    A subclass defines ``_key(raw_key, dim) -> (key, sign)``; sign 0 drops the term.
    """

    __slots__ = _fields = ("chart", "coeffs")
    __hash__ = None  # coeffs is a dict

    def _store(self, chart: Chart, terms) -> None:
        """Normalize a mapping or an iterable of raw ``(key, coefficient)`` pairs into ``coeffs``."""
        dim = chart.dim
        coeffs: dict = {}
        for raw_key, raw_value in terms.items() if isinstance(terms, Mapping) else terms:
            key, sign = self._key(raw_key, dim)
            value = _coerce_scalar(chart, raw_value)
            if sign == 0 or value.is_zero_tree:
                continue
            if sign < 0:
                value = -value
            if key in coeffs:
                value = coeffs[key] + value
            if value.is_zero_tree:
                coeffs.pop(key, None)
            else:
                coeffs[key] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coeffs", coeffs)

    def _like(self, terms):
        """A value of the same type and shape as ``self`` built from ``terms``."""
        return type(self)(self.chart, terms)

    def _require_like(self, other) -> None:
        if self.chart != other.chart:
            raise ChartMismatchError(f"{type(self).__name__} operands live on different charts")

    def _read(self, raw_key) -> ScalarField:
        """The coefficient at a raw key, normalized by the constructor's ``_key``.

        A key the constructor refuses raises the same error here; a repeated wedge index reads zero.
        """
        key, sign = self._key(raw_key, self.chart.dim)
        value = self.coeffs.get(key) if sign else None
        if value is None:
            return self.chart.zero()
        return -value if sign < 0 else value

    @property
    def is_zero(self) -> bool:
        """Structurally zero: no coefficient survived normalization."""
        return not self.coeffs

    def terms(self) -> Iterable[tuple]:
        return self.coeffs.items()

    def __add__(self, other):
        self._require_like(other)
        return self._like(chain(self.terms(), other.terms()))

    def __sub__(self, other):
        self._require_like(other)
        return self._like(chain(self.terms(), ((key, -value) for key, value in other.terms())))

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, scalar: CoeffLike):
        value = _coerce_scalar(self.chart, scalar)
        return self._like({k: v * value for k, v in self.coeffs.items()})

    __rmul__ = __mul__


class Form(_Sparse):
    """A differential form of fixed degree with sparse antisymmetric storage.

    ``terms`` is a mapping or an iterable of ``(indices, coefficient)`` pairs.
    Index tuples may be unsorted and may repeat across pairs: each is sorted
    with its permutation sign, a tuple with a repeated index or a zero
    coefficient is dropped, and terms with the same sorted tuple are summed.
    """

    __slots__ = ("degree", "_musical")
    _fields = ("chart", "degree", "coeffs")

    def __init__(
        self,
        chart: Chart,
        degree: int,
        terms: Mapping[tuple[int, ...], CoeffLike] | Iterable[tuple[Sequence[int], CoeffLike]] | None = None,
    ):
        if degree < 0:
            raise DegreeError(f"form degree must be nonnegative, got {degree}")
        object.__setattr__(self, "degree", degree)
        self._store(chart, terms or ())

    def _key(self, raw_key: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
        return _wedge_key(raw_key, self.degree, dim)

    def _like(self, terms) -> "Form":
        return Form(self.chart, self.degree, terms)

    def _require_like(self, other: "Form") -> None:
        super()._require_like(other)
        if self.degree != other.degree:
            raise DegreeError(f"cannot combine forms of degrees {self.degree} and {other.degree}")

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "Form":
        return cls(chart, degree, {})

    @classmethod
    def from_scalar(cls, field: ScalarField) -> "Form":
        return cls(field.chart, 0, {(): field})

    def as_scalar(self) -> ScalarField:
        if self.degree != 0:
            raise DegreeError(f"only a 0-form is a scalar, got degree {self.degree}")
        return self._read(())

    def coefficient(self, *indices: int) -> ScalarField:
        return self._read(indices)

    def __repr__(self):
        if not self.coeffs:
            return f"Form<deg {self.degree}>(0)"
        names = self.chart.coordinate_names()
        parts = []
        for key in sorted(self.coeffs):
            basis = "^".join(f"d{names[i]}" for i in key) or "1"
            parts.append(f"({self.coeffs[key].to_prefix()}) {basis}")
        return f"Form<deg {self.degree}>(" + " + ".join(parts) + ")"

    def apply(self, vectors: Sequence["VectorField"]) -> ScalarField:
        """Value of the form on a tuple of vector fields (full contraction)."""
        if len(vectors) != self.degree:
            raise DegreeError(f"a degree-{self.degree} form takes {self.degree} vector arguments")
        result = self
        for vector in vectors:
            result = interior(vector, result)
        return result.as_scalar()


class VectorField(_Sparse):
    """A vector field sum_i X^i d/dx_i, stored as ``{i: X^i}``.

    ``components`` is a dense sequence of all chart.dim components, or a
    mapping or iterable of raw ``(i, X^i)`` terms (summed by index).
    """

    __slots__ = ()

    def __init__(self, chart: Chart, components: Sequence[CoeffLike] | Mapping[int, CoeffLike] | Iterable):
        if isinstance(components, Sequence):
            if len(components) != chart.dim:
                raise ChartMismatchError(f"expected {chart.dim} components, got {len(components)}")
            components = enumerate(components)
        self._store(chart, components)

    @staticmethod
    def _key(index: int, dim: int) -> tuple[int, int]:
        _check_range(index, index, dim)
        return index, 1

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, {})

    @classmethod
    def basis(cls, chart: Chart, index: int) -> "VectorField":
        return cls(chart, {index: 1})

    @property
    def components(self) -> tuple[ScalarField, ...]:
        """Dense read-only view: all chart.dim components, zeros included."""
        return tuple(self._read(i) for i in range(self.chart.dim))

    def component(self, index: int) -> ScalarField:
        return self._read(index)

    def __repr__(self):
        names = self.chart.coordinate_names()
        parts = [f"({c.to_prefix()}) d/d{names[i]}" for i, c in sorted(self.terms())]
        return "VectorField(" + (" + ".join(parts) or "0") + ")"

    def __call__(self, field: ScalarField) -> ScalarField:
        """Directional derivative X(f) = sum_j X^j d_j f of a scalar field."""
        if field.chart != self.chart:
            raise ChartMismatchError("directional derivative across charts")
        variables = field.variables
        out = self.chart.zero()
        for j, comp in self.terms():
            if j in variables:
                out = out + comp * field.partial(j)
        return out


class _Matrix(_Sparse):
    """A sparse type keyed by index pairs (i, j), with a dense matrix view."""

    __slots__ = ()

    def entry(self, i: int, j: int) -> ScalarField:
        return self._read((i, j))

    @property
    def entries(self) -> tuple[tuple[ScalarField, ...], ...]:
        """Dense read-only view: the full chart.dim x chart.dim matrix, zeros included."""
        dim = self.chart.dim
        return tuple(tuple(self.entry(i, j) for j in range(dim)) for i in range(dim))

    def __repr__(self):
        rows = "; ".join(", ".join(e.to_prefix() for e in row) for row in self.entries)
        return f"{type(self).__name__}([{rows}])"


class Tensor11(_Matrix):
    """A (1,1) tensor field N acting on column vectors, stored as ``{(i, j): N^i_j}``.

    Entry (i, j) is the i-th component of the image of the j-th coordinate
    field.  ``entries`` is a dense chart.dim x chart.dim matrix (a sequence
    of rows), or a mapping or iterable of raw ``((i, j), N^i_j)`` terms.
    """

    __slots__ = ("_partials",)

    def __init__(self, chart: Chart, entries: Sequence[Sequence[CoeffLike]] | Mapping | Iterable):
        self._store(chart, _matrix_terms(chart, entries) if isinstance(entries, Sequence) else entries)

    @staticmethod
    def _key(key: tuple[int, int], dim: int) -> tuple[tuple[int, int], int]:
        i, j = key
        _check_range(min(i, j), max(i, j), dim)
        return (i, j), 1

    @classmethod
    def identity(cls, chart: Chart) -> "Tensor11":
        return cls(chart, {(i, i): 1 for i in range(chart.dim)})

    @classmethod
    def zero(cls, chart: Chart) -> "Tensor11":
        return cls(chart, {})

    def partials(self) -> tuple["Tensor11", ...]:
        """The tensors d_l N, one per coordinate l, built on first use and kept (in a slot, not a field)."""
        if getattr(self, "_partials", None) is None:  # unset until first use; a thread race only builds it twice
            object.__setattr__(self, "_partials", _partial_tensors(self))
        return self._partials

    def columns(self) -> list[VectorField]:
        """Every column, N e_j at position j, from one pass over the stored entries."""
        columns: list[dict[int, ScalarField]] = [{} for _ in range(self.chart.dim)]
        for (i, j), value in self.terms():
            columns[j][i] = value
        return [VectorField(self.chart, column) for column in columns]

    def _rows(self) -> dict[int, list[tuple[int, ScalarField]]]:
        """The stored entries by row, ``{i: [(j, N^i_j), ...]}``, in storage order."""
        rows: dict[int, list[tuple[int, ScalarField]]] = {}
        for (i, j), value in self.terms():
            rows.setdefault(i, []).append((j, value))
        return rows

    def apply(self, vector: VectorField) -> VectorField:
        if vector.chart != self.chart:
            raise ChartMismatchError("tensor and vector live on different charts")
        comps = vector.coeffs
        return VectorField(self.chart, ((i, value * comps[j]) for (i, j), value in self.terms() if j in comps))

    def __matmul__(self, other: "Tensor11") -> "Tensor11":
        self._require_like(other)
        rows = other._rows()
        return Tensor11(self.chart, (((i, k), a * b) for (i, j), a in self.terms() for k, b in rows.get(j, ())))

    def trace(self) -> ScalarField:
        return sum((value for (i, j), value in self.terms() if i == j), self.chart.zero())


class Bivector(_Matrix):
    """An antisymmetric (2,0) tensor pi, the Poisson candidate, stored as ``{(i, j): pi^{ij}}`` with i < j.

    ``entries`` is a dense antisymmetric matrix (a sequence of rows, checked
    entry by entry), or a mapping or iterable of raw ``((i, j), pi^{ij})``
    terms.  Raw keys follow the degree-2 rule of :class:`Form`: (j, i) is
    stored as (i, j) with the coefficient negated, so
    ``entry(j, i) == -entry(i, j)``.
    """

    __slots__ = ("_musical",)

    def __init__(self, chart: Chart, entries: Sequence[Sequence[CoeffLike]] | Mapping | Iterable):
        if isinstance(entries, Sequence):
            dense = {key: _coerce_scalar(chart, value) for key, value in _matrix_terms(chart, entries)}
            for (i, j), value in dense.items():
                if i <= j and not (value + dense[j, i]).is_zero_tree:
                    found = f"{value.to_prefix()} vs {dense[j, i].to_prefix()}"
                    raise ValueError(f"bivector is not antisymmetric at entry ({i}, {j}): {found}")
            entries = {key: value for key, value in dense.items() if key[0] < key[1]}
        self._store(chart, entries)

    @staticmethod
    def _key(raw_key: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
        return _wedge_key(raw_key, 2, dim)

    @classmethod
    def from_upper(cls, chart: Chart, upper: Mapping[tuple[int, int], CoeffLike]) -> "Bivector":
        """Build from entries pi^{ij} with i < j; the lower triangle is forced."""
        for i, j in upper:
            if not 0 <= i < j < chart.dim:
                raise ValueError(f"upper-triangle key ({i}, {j}) must satisfy 0 <= i < j < {chart.dim}")
        return cls(chart, upper)


def _partial_tensors(tensor: Tensor11) -> tuple[Tensor11, ...]:
    chart, terms = tensor.chart, tensor.terms()
    return tuple(Tensor11(chart, {key: v.partial(l) for key, v in terms if l in v.variables}) for l in range(chart.dim))


def _musical_matrix(antisymmetric: Bivector | Form) -> Tensor11:
    """The transpose of stored antisymmetric entries a_{ij} (i < j): entry (j, i) = a_{ij}, (i, j) = -a_{ij}.

    For a bivector pi this is the matrix of pi_sharp; for a 2-form omega it is
    the matrix of omega_flat, X -> i_X omega.  Built on first use and kept on the value, like ``Tensor11.partials``.
    """
    if getattr(antisymmetric, "_musical", None) is None:
        object.__setattr__(antisymmetric, "_musical", _transpose_entries(antisymmetric))
    return antisymmetric._musical


def _transpose_entries(value: Bivector | Form) -> Tensor11:
    return Tensor11(value.chart, (term for (i, j), a in value.terms() for term in (((j, i), a), ((i, j), -a))))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    """Wedge product; degrees above the chart dimension collapse to zero."""
    if a.chart != b.chart:
        raise ChartMismatchError("wedge across charts")
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return Form.zero(a.chart, degree)
    return Form(
        a.chart,
        degree,
        (
            (key_a + key_b, coeff_a * coeff_b)
            for key_a, coeff_a in a.terms()
            for key_b, coeff_b in b.terms()
            if set(key_a).isdisjoint(key_b)  # a shared index wedges to zero; skip the product
        ),
    )


def interior(vector: VectorField, form: Form) -> Form:
    """Interior product i_X: contraction of the first slot with a vector field."""
    if vector.chart != form.chart:
        raise ChartMismatchError("interior product across charts")
    if form.degree == 0:
        raise DegreeError("interior product of a 0-form is undefined")
    comps = vector.coeffs

    def terms():
        for key, coeff in form.terms():
            for slot, index in enumerate(key):
                if index in comps:
                    value = coeff * comps[index]
                    yield key[:slot] + key[slot + 1 :], -value if slot % 2 else value

    return Form(form.chart, form.degree - 1, terms())


def tensor_interior(tensor: Tensor11, form: Form) -> Form:
    """Degree-zero derivation i_N: sum over slots of the form with N inserted once.

    At degree 1 this is the transpose action a -> a o N; on 0-forms it is 0.
    """
    if tensor.chart != form.chart:
        raise ChartMismatchError("tensor contraction across charts")
    if form.degree == 0:
        return Form.zero(form.chart, 0)
    rows = tensor._rows()

    def terms():
        for key, coeff in form.terms():
            for slot, index in enumerate(key):
                # replace dx_{key[slot]} with sum_j N^{key[slot]}_j dx_j
                for j, entry in rows.get(index, ()):
                    if j == index or j not in key:  # else a repeated index
                        yield key[:slot] + (j,) + key[slot + 1 :], coeff * entry

    return Form(form.chart, form.degree, terms())


def pi_sharp(pi: Bivector, alpha: Form) -> VectorField:
    """Raise a 1-form: (pi_sharp a)^i = sum_j pi^{ji} a_j."""
    if pi.chart != alpha.chart:
        raise ChartMismatchError("raising across charts")
    if alpha.degree != 1:
        raise DegreeError("pi_sharp acts on 1-forms")
    return _musical_matrix(pi).apply(VectorField(pi.chart, {i: a for (i,), a in alpha.terms()}))


def pi_sharp_omega_flat(pi: Bivector, omega: Form) -> Tensor11:
    """The (1,1) tensor X -> pi_sharp(i_X Omega): the matrix of pi_sharp times that of omega_flat."""
    if pi.chart != omega.chart:
        raise ChartMismatchError("composition across charts")
    if omega.degree != 2:
        raise DegreeError(f"pi_sharp_omega_flat requires a 2-form, got degree {omega.degree}")
    return _musical_matrix(pi) @ _musical_matrix(omega)


def lie_derivative(x: VectorField, target):
    """Lie derivative along X of a scalar field, a form, or a (1,1) tensor.

    On forms it is computed by the Cartan formula L_X = i_X d + d i_X; on
    (1,1) tensors by (L_X N)(Y) = [X, NY] - N[X, Y], which in components is
    X(N) - J N + N J, with J^i_j = d_j X^i and X(N) = sum_l X^l d_l N from the
    tensor's ``partials``; on scalars it is X(f).
    """
    from .calculus import cartan_d  # deferred: calculus builds on this module

    if isinstance(target, ScalarField):
        return x(target)
    if isinstance(target, Form):
        if target.degree == 0:
            return Form.from_scalar(x(target.as_scalar()))
        return interior(x, cartan_d(target)) + cartan_d(interior(x, target))
    if isinstance(target, Tensor11):
        chart, partials = target.chart, target.partials()
        jacobian = Tensor11(chart, (((i, j), c.partial(j)) for i, c in x.terms() for j in c.variables))
        along = Tensor11(chart, ((key, c * value) for l, c in x.terms() for key, value in partials[l].terms()))
        if jacobian.is_zero:  # X has constant components, as pi_sharp dx_i has for a constant pi
            return along
        return along - jacobian @ target + target @ jacobian
    raise TypeError(f"lie_derivative does not handle {type(target).__name__}")


def dx(chart: Chart, index: int) -> Form:
    """The coordinate 1-form with 0-based index."""
    return Form(chart, 1, {(index,): 1})
