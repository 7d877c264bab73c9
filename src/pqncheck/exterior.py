"""Graded differential forms, vector fields, (1,1) tensors, and bivectors.

All coefficients are :class:`~pqncheck.scalar.ScalarField` values on a shared
chart.  Forms are sparse: a p-form maps strictly increasing index tuples to
nonzero coefficients.  The :class:`Form` constructor is the one place that
knows wedge anticommutativity: it takes raw ``(indices, coefficient)`` terms
in any index order, sign-sorts each tuple, drops repeated indices and zero
coefficients, and sums terms that land on the same key.  The operators below
(wedge, interior products, and those of the calculus module) only generate
raw terms and hand them to it.

Matrix conventions (pinned by the two-particle fixtures in the models
module): a (1,1) tensor acts on column component vectors, entry (i, j) being
the i-th component of the image of the j-th coordinate field; the bivector
raises 1-forms through (pi_sharp a)^i = sum_j pi^{ji} a_j, so its matrix has
(i, j) entry pi^{ji}.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ChartMismatchError, DegreeError
from .scalar import Chart, ScalarField

CoeffLike = ScalarField | int | Fraction


def _coerce_scalar(chart: Chart, value: CoeffLike) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.chart != chart:
            raise ChartMismatchError("coefficient belongs to a different chart")
        return value
    return ScalarField(chart, value)


def _dot(chart: Chart, left: Iterable[ScalarField], right: Iterable[ScalarField]) -> ScalarField:
    """sum_k left_k * right_k, skipping the products with a zero factor."""
    acc = chart.zero()
    for a, b in zip(left, right):
        if not a.is_zero_tree and not b.is_zero_tree:
            acc = acc + a * b
    return acc


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


class Form:
    """A differential form of fixed degree with sparse antisymmetric storage.

    ``terms`` is a mapping or an iterable of ``(indices, coefficient)`` pairs.
    Index tuples may be unsorted and may repeat across pairs: each is sorted
    with its permutation sign, a tuple with a repeated index or a zero
    coefficient is dropped, and terms with the same sorted tuple are summed.
    """

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(
        self,
        chart: Chart,
        degree: int,
        terms: Mapping[tuple[int, ...], CoeffLike] | Iterable[tuple[Sequence[int], CoeffLike]] | None = None,
    ):
        if degree < 0:
            raise DegreeError(f"form degree must be nonnegative, got {degree}")
        dim = chart.dim
        coeffs: dict[tuple[int, ...], ScalarField] = {}
        for raw_key, raw_value in terms.items() if isinstance(terms, Mapping) else terms or ():
            sorted_key, sign = _sort_with_sign(raw_key)
            if len(sorted_key) != degree:
                raise DegreeError(f"index tuple {tuple(raw_key)} does not match degree {degree}")
            if sorted_key and not (0 <= sorted_key[0] and sorted_key[-1] < dim):
                bad = sorted_key[0] if sorted_key[0] < 0 else sorted_key[-1]
                raise ChartMismatchError(f"coordinate index {bad} out of range for dim {dim}")
            value = _coerce_scalar(chart, raw_value)
            if sign == 0 or value.is_zero_tree:
                continue
            if sign < 0:
                value = -value
            if sorted_key in coeffs:
                value = coeffs[sorted_key] + value
            if value.is_zero_tree:
                coeffs.pop(sorted_key, None)
            else:
                coeffs[sorted_key] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "Form":
        return cls(chart, degree, {})

    @classmethod
    def from_scalar(cls, field: ScalarField) -> "Form":
        return cls(field.chart, 0, {(): field})

    def as_scalar(self) -> ScalarField:
        if self.degree != 0:
            raise DegreeError(f"only a 0-form is a scalar, got degree {self.degree}")
        return self.coeffs.get((), self.chart.zero())

    @property
    def is_zero(self) -> bool:
        """Structurally zero (all coefficients normalize away)."""
        return not self.coeffs

    def coefficient(self, *indices: int) -> ScalarField:
        key, sign = _sort_with_sign(indices)
        if sign == 0:
            return self.chart.zero()
        value = self.coeffs.get(key)
        if value is None:
            return self.chart.zero()
        return value if sign > 0 else -value

    def terms(self) -> Iterable[tuple[tuple[int, ...], ScalarField]]:
        return self.coeffs.items()

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.chart == other.chart and self.degree == other.degree and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return f"Form<deg {self.degree}>(0)"
        names = self.chart.coordinate_names()
        parts = []
        for key in sorted(self.coeffs):
            basis = "^".join(f"d{names[i]}" for i in key) or "1"
            parts.append(f"({self.coeffs[key].to_prefix()}) {basis}")
        return f"Form<deg {self.degree}>(" + " + ".join(parts) + ")"

    def _require_same_chart(self, other: "Form") -> None:
        if self.chart != other.chart:
            raise ChartMismatchError("forms live on different charts")

    def _combine(self, other: "Form", op, lone) -> "Form":
        """op coefficient-wise on shared keys, lone(value) on keys only ``other`` has."""
        self._require_same_chart(other)
        if self.degree != other.degree:
            raise DegreeError(f"cannot combine forms of degrees {self.degree} and {other.degree}")
        out: dict[tuple[int, ...], CoeffLike] = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = op(out[key], value) if key in out else lone(value)
        return Form(self.chart, self.degree, out)

    def __add__(self, other: "Form") -> "Form":
        return self._combine(other, operator.add, lambda value: value)

    def __neg__(self) -> "Form":
        return Form(self.chart, self.degree, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self._combine(other, operator.sub, operator.neg)

    def __mul__(self, scalar: CoeffLike) -> "Form":
        value = _coerce_scalar(self.chart, scalar)
        return Form(self.chart, self.degree, {k: v * value for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        return wedge(self, other)

    def apply(self, vectors: Sequence["VectorField"]) -> ScalarField:
        """Value of the form on a tuple of vector fields (full contraction)."""
        if len(vectors) != self.degree:
            raise DegreeError(f"a degree-{self.degree} form takes {self.degree} vector arguments")
        result = self
        for vector in vectors:
            result = interior(vector, result)
        return result.as_scalar()


class VectorField:
    """A vector field given by its 2n coordinate components."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[CoeffLike]):
        comps = tuple(_coerce_scalar(chart, c) for c in components)
        if len(comps) != chart.dim:
            raise ChartMismatchError(f"expected {chart.dim} components, got {len(comps)}")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, [0] * chart.dim)

    @classmethod
    def basis(cls, chart: Chart, index: int) -> "VectorField":
        comps = [0] * chart.dim
        comps[index] = 1
        return cls(chart, comps)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __repr__(self):
        names = self.chart.coordinate_names()
        parts = [
            f"({c.to_prefix()}) d/d{names[i]}"
            for i, c in enumerate(self.components)
            if not c.is_zero_tree
        ]
        return "VectorField(" + (" + ".join(parts) or "0") + ")"

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero_tree for c in self.components)

    def _combine(self, other: "VectorField", op) -> "VectorField":
        if self.chart != other.chart:
            raise ChartMismatchError("vector fields live on different charts")
        return VectorField(self.chart, [op(a, b) for a, b in zip(self.components, other.components)])

    def __add__(self, other: "VectorField") -> "VectorField":
        return self._combine(other, operator.add)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-c for c in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self._combine(other, operator.sub)

    def __mul__(self, scalar: CoeffLike) -> "VectorField":
        value = _coerce_scalar(self.chart, scalar)
        return VectorField(self.chart, [c * value for c in self.components])

    __rmul__ = __mul__

    def __call__(self, field: ScalarField) -> ScalarField:
        """Directional derivative of a scalar field."""
        out = self.chart.zero()
        for j, comp in enumerate(self.components):
            if not comp.is_zero_tree:
                out = out + comp * field.partial(j)
        return out


def pairing(alpha: Form, vector: VectorField) -> ScalarField:
    """Natural pairing <alpha, X> of a 1-form with a vector field."""
    if alpha.degree != 1:
        raise DegreeError("pairing requires a 1-form")
    if alpha.chart != vector.chart:
        raise ChartMismatchError("pairing across charts")
    return _dot(alpha.chart, alpha.coeffs.values(), (vector.components[i] for (i,) in alpha.coeffs))


class Tensor11:
    """A (1,1) tensor field as a 2n x 2n matrix acting on column vectors.

    Entry (i, j) is the i-th component of the image of the j-th coordinate
    field.
    """

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[CoeffLike]]):
        rows = tuple(tuple(_coerce_scalar(chart, e) for e in row) for row in entries)
        if len(rows) != chart.dim or any(len(row) != chart.dim for row in rows):
            raise ChartMismatchError(f"expected a {chart.dim}x{chart.dim} matrix")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor11 is immutable")

    @classmethod
    def identity(cls, chart: Chart) -> "Tensor11":
        return cls(chart, [[1 if i == j else 0 for j in range(chart.dim)] for i in range(chart.dim)])

    @classmethod
    def zero(cls, chart: Chart) -> "Tensor11":
        return cls(chart, [[0] * chart.dim for _ in range(chart.dim)])

    @classmethod
    def from_columns(cls, chart: Chart, columns: Sequence[VectorField]) -> "Tensor11":
        if len(columns) != chart.dim:
            raise ChartMismatchError(f"expected {chart.dim} columns")
        return cls(chart, [[columns[j].components[i] for j in range(chart.dim)] for i in range(chart.dim)])

    def entry(self, i: int, j: int) -> ScalarField:
        return self.entries[i][j]

    def column(self, j: int) -> VectorField:
        return VectorField(self.chart, [row[j] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, Tensor11):
            return NotImplemented
        return self.chart == other.chart and self.entries == other.entries

    def __repr__(self):
        return "Tensor11([" + "; ".join(", ".join(e.to_prefix() for e in row) for row in self.entries) + "])"

    def apply(self, vector: VectorField) -> VectorField:
        if vector.chart != self.chart:
            raise ChartMismatchError("tensor and vector live on different charts")
        return VectorField(self.chart, [_dot(self.chart, row, vector.components) for row in self.entries])

    def _combine(self, other: "Tensor11", op) -> "Tensor11":
        if self.chart != other.chart:
            raise ChartMismatchError("tensors live on different charts")
        return Tensor11(
            self.chart,
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __add__(self, other: "Tensor11") -> "Tensor11":
        return self._combine(other, operator.add)

    def __neg__(self) -> "Tensor11":
        return Tensor11(self.chart, [[-e for e in row] for row in self.entries])

    def __sub__(self, other: "Tensor11") -> "Tensor11":
        return self._combine(other, operator.sub)

    def __mul__(self, scalar: CoeffLike) -> "Tensor11":
        value = _coerce_scalar(self.chart, scalar)
        return Tensor11(self.chart, [[e * value for e in row] for row in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor11") -> "Tensor11":
        if self.chart != other.chart:
            raise ChartMismatchError("tensors live on different charts")
        columns = list(zip(*other.entries))
        return Tensor11(self.chart, [[_dot(self.chart, row, column) for column in columns] for row in self.entries])

    def power(self, k: int) -> "Tensor11":
        if k < 0:
            raise ValueError("tensor powers must be nonnegative")
        out = Tensor11.identity(self.chart)
        for _ in range(k):
            out = out @ self
        return out

    def trace(self) -> ScalarField:
        return sum((row[i] for i, row in enumerate(self.entries)), self.chart.zero())


class Bivector:
    """An antisymmetric (2,0) tensor pi^{ij}; the Poisson candidate."""

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[CoeffLike]], _validate: bool = True):
        rows = tuple(tuple(_coerce_scalar(chart, e) for e in row) for row in entries)
        if len(rows) != chart.dim or any(len(row) != chart.dim for row in rows):
            raise ChartMismatchError(f"expected a {chart.dim}x{chart.dim} matrix")
        if _validate:
            for i in range(chart.dim):
                for j in range(i, chart.dim):
                    if not (rows[i][j] + rows[j][i]).is_zero_tree:
                        raise ValueError(
                            f"bivector is not antisymmetric at entry ({i}, {j}):"
                            f" {rows[i][j].to_prefix()} vs {rows[j][i].to_prefix()}"
                        )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Bivector is immutable")

    @classmethod
    def from_upper(cls, chart: Chart, upper: Mapping[tuple[int, int], CoeffLike]) -> "Bivector":
        """Build from entries pi^{ij} with i < j; the lower triangle is forced."""
        dim = chart.dim
        rows = [[chart.zero() for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in upper.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"upper-triangle key ({i}, {j}) must satisfy 0 <= i < j < {dim}")
            field = _coerce_scalar(chart, value)
            rows[i][j] = field
            rows[j][i] = -field
        return cls(chart, rows, _validate=False)

    def entry(self, i: int, j: int) -> ScalarField:
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Bivector):
            return NotImplemented
        return self.chart == other.chart and self.entries == other.entries

    def __repr__(self):
        return "Bivector([" + "; ".join(", ".join(e.to_prefix() for e in row) for row in self.entries) + "])"

    def nonzero_entries(self) -> Iterable[tuple[int, int, ScalarField]]:
        for i, row in enumerate(self.entries):
            for j, value in enumerate(row):
                if not value.is_zero_tree:
                    yield i, j, value

    def sharp(self, alpha: Form) -> VectorField:
        return pi_sharp(self, alpha)

    def sharp_matrix(self) -> tuple[tuple[ScalarField, ...], ...]:
        """The matrix of the raising map on column vectors: entry (i, j) = pi^{ji}."""
        dim = self.chart.dim
        return tuple(tuple(self.entries[j][i] for j in range(dim)) for i in range(dim))


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

    def terms():
        for key, coeff in form.terms():
            for slot, index in enumerate(key):
                comp = vector.components[index]
                if not comp.is_zero_tree:
                    value = coeff * comp
                    yield key[:slot] + key[slot + 1 :], -value if slot % 2 else value

    return Form(form.chart, form.degree - 1, terms())


def pair_interior(x: VectorField, y: VectorField, form: Form) -> Form:
    """Contraction with X wedge Y: <i_{X^Y} a, ...> = a(X, Y, ...)."""
    return interior(y, interior(x, form))


def tensor_interior(tensor: Tensor11, form: Form) -> Form:
    """Degree-zero derivation i_N: sum over slots of the form with N inserted once.

    At degree 1 this is the transpose action a -> a o N; on 0-forms it is 0.
    """
    if tensor.chart != form.chart:
        raise ChartMismatchError("tensor contraction across charts")
    if form.degree == 0:
        return Form.zero(form.chart, 0)

    def terms():
        for key, coeff in form.terms():
            for slot, index in enumerate(key):
                # replace dx_{key[slot]} with sum_j N^{key[slot]}_j dx_j
                for j, entry in enumerate(tensor.entries[index]):
                    if not entry.is_zero_tree and (j == index or j not in key):  # else a repeated index
                        yield key[:slot] + (j,) + key[slot + 1 :], coeff * entry

    return Form(form.chart, form.degree, terms())


def pi_sharp(pi: Bivector, alpha: Form) -> VectorField:
    """Raise a 1-form: (pi_sharp a)^i = sum_j pi^{ji} a_j."""
    if pi.chart != alpha.chart:
        raise ChartMismatchError("raising across charts")
    if alpha.degree != 1:
        raise DegreeError("pi_sharp acts on 1-forms")
    zero = pi.chart.zero()
    comps = [zero] * pi.chart.dim
    for (j,), coeff in alpha.terms():
        for i in range(pi.chart.dim):
            entry = pi.entries[j][i]
            if not entry.is_zero_tree:
                comps[i] = comps[i] + entry * coeff
    return VectorField(pi.chart, comps)


def omega_flat(omega: Form, vector: VectorField) -> Form:
    """Lower a vector field with a 2-form: Omega_flat(X) = i_X Omega."""
    if omega.degree != 2:
        raise DegreeError("omega_flat requires a 2-form")
    return interior(vector, omega)


def pi_sharp_omega_flat(pi: Bivector, omega: Form) -> Tensor11:
    """The (1,1) tensor X -> pi_sharp(i_X Omega) (columnwise assembly)."""
    if pi.chart != omega.chart:
        raise ChartMismatchError("composition across charts")
    chart = pi.chart
    columns = [pi_sharp(pi, interior(VectorField.basis(chart, j), omega)) for j in range(chart.dim)]
    return Tensor11.from_columns(chart, columns)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket of vector fields: [X,Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    if x.chart != y.chart:
        raise ChartMismatchError("bracket across charts")
    chart = x.chart
    comps = []
    for i in range(chart.dim):
        acc = chart.zero()
        for j in range(chart.dim):
            xj = x.components[j]
            yj = y.components[j]
            if not xj.is_zero_tree:
                acc = acc + xj * y.components[i].partial(j)
            if not yj.is_zero_tree:
                acc = acc - yj * x.components[i].partial(j)
        comps.append(acc)
    return VectorField(chart, comps)


def lie_derivative(x: VectorField, target):
    """Lie derivative along X of a scalar field, a form, or a (1,1) tensor.

    On forms it is computed by the Cartan formula L_X = i_X d + d i_X; on
    (1,1) tensors by (L_X N)(Y) = [X, NY] - N[X, Y]; on scalars it is X(f).
    """
    from .calculus import cartan_d  # deferred: calculus builds on this module

    if isinstance(target, ScalarField):
        return x(target)
    if isinstance(target, Form):
        if target.degree == 0:
            return Form.from_scalar(x(target.as_scalar()))
        return interior(x, cartan_d(target)) + cartan_d(interior(x, target))
    if isinstance(target, Tensor11):
        chart = target.chart
        dim = chart.dim
        entries = [[chart.zero() for _ in range(dim)] for _ in range(dim)]
        for j in range(dim):
            basis_j = VectorField.basis(chart, j)
            column = lie_bracket(x, target.apply(basis_j)) - target.apply(lie_bracket(x, basis_j))
            for i in range(dim):
                entries[i][j] = column.components[i]
        return Tensor11(chart, entries)
    raise TypeError(f"lie_derivative does not handle {type(target).__name__}")


def dq(chart: Chart, i: int) -> Form:
    """The coordinate 1-form dq_i (1-based)."""
    return Form(chart, 1, {(chart.q_index(i),): 1})


def dp(chart: Chart, i: int) -> Form:
    """The coordinate 1-form dp_i (1-based)."""
    return Form(chart, 1, {(chart.p_index(i),): 1})


def dx(chart: Chart, index: int) -> Form:
    """The coordinate 1-form with 0-based index."""
    return Form(chart, 1, {(index,): 1})
