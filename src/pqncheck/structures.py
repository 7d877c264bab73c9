"""Structure bundles, axiom checkers, the deformation construction, traces.

A geometric structure is a chart together with a Poisson candidate, a (1,1)
tensor, and a 3-form controlling its torsion (the zero form for torsionless
candidates).  Checkers return :class:`CheckReport` objects: one entry per
axiom, each the zero test of :func:`pqncheck.scalar.is_zero` on the axiom's
values (scalar fields, forms, vector fields and (1,1) tensors), whose fields
are the stored coefficients of each value in sorted key order.  A field is
decided structurally ("symbolic": the normalized difference is the zero
polynomial) or by exact integer evaluation at seeded points ("exact", see
:func:`pqncheck.scalar.exact_zero`).  A failing entry's witness is a
whole-number point where that test's integer form proves a field nonzero,
and its residual |value| there.  A field the exact test cannot decide ends
the check with :class:`pqncheck.errors.ConfigError`.  The PN/PqN
classification of :func:`deform` and of a model's expected outcome reads the
same decision without a witness search.  Reports are deterministic given the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .calculus import (
    cartan_d,
    differential,
    koszul_bracket,
    nijenhuis_d,
    nijenhuis_torsion,
    poisson_bracket,
)
from .errors import ChartMismatchError, DegreeError, HypothesisViolationError
from .exterior import (
    Bivector,
    Form,
    Tensor11,
    _musical_matrix,
    dx,
    lie_derivative,
    pi_sharp,
    pi_sharp_omega_flat,
    tensor_interior,
)
from .randgen import random_scalar_field
from .scalar import AxiomCheck, Chart, Record, ScalarField, ZeroTestConfig, _all_zero, _zero_verdict


class GeometricStructure(Record):
    """A quadruple (chart, Poisson candidate, (1,1) tensor, torsion 3-form)."""

    __slots__ = _fields = ("chart", "poisson", "tensor", "torsion_form")

    def __init__(self, chart: Chart, poisson: Bivector, tensor: Tensor11, torsion_form: Form):
        if poisson.chart != chart or tensor.chart != chart:
            raise ChartMismatchError("structure components live on different charts")
        if torsion_form.chart != chart or torsion_form.degree != 3:
            raise ChartMismatchError("the torsion form must be a 3-form on the same chart")
        self._init(chart, poisson, tensor, torsion_form)

    @classmethod
    def torsionless(cls, pi: Bivector, tensor: Tensor11) -> "GeometricStructure":
        return cls(pi.chart, pi, tensor, Form.zero(pi.chart, 3))


class CheckReport(Record):
    """Structured verdicts for a family of axioms on one chart."""

    __slots__ = _fields = ("name", "chart", "config", "entries")

    def __init__(self, name: str, chart: Chart, config: ZeroTestConfig, entries: tuple[AxiomCheck, ...]):
        self._init(name, chart, config, entries)

    @property
    def overall(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def entry(self, axiom: str) -> AxiomCheck:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(f"no axiom entry named {axiom!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config.as_dict(),
            "entries": [e.as_dict(self.chart) for e in self.entries],
            "overall": "pass" if self.overall else "fail",
        }


def _zero_axiom(axiom: str, values: Iterable, config: ZeroTestConfig, detail: str | None = None) -> AxiomCheck:
    """The zero test (``scalar._zero_verdict``) of every field of ``values`` as the entry of ``axiom``.

    Every zero verdict of a report entry or off-diagonal involutivity cell is made here, on the
    fields :func:`_verdict_fields` reads from the values.
    """
    return _zero_verdict(axiom, _verdict_fields(values), config, detail)


def _verdict_fields(values: Iterable) -> Iterator[ScalarField]:
    """A scalar field itself; of a form, vector field or (1,1) tensor, each stored coefficient in sorted key order.

    The one place a value becomes the fields a verdict reads.  Their order picks the witness of a
    tie in residual and the field an undecided test names, so no operator's term order reaches it.
    """
    for value in values:
        if isinstance(value, ScalarField):
            yield value
        else:
            yield from (value.coeffs[key] for key in sorted(value.coeffs))


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def _symmetric_part(matrix: Tensor11) -> list[ScalarField]:
    """M[j, i] + M[i, j] for the stored keys, i <= j ascending: all zero exactly when M is antisymmetric."""
    keys = sorted({(min(key), max(key)) for key in matrix.coeffs})
    return [matrix.entry(j, i) + matrix.entry(i, j) for i, j in keys]


def _bracket_fields(raising: Tensor11) -> tuple[list[ScalarField], list[ScalarField]]:
    """Antisymmetry and Jacobi identity of the bracket whose raising map has matrix P.

    The bracket is {f, g} = <dg, P df>.  On coordinates it reads off the entries:
    {x_b, x_c} = P[c, b], and {x_a, h} = X_a(h) for the row field X_a = {x_a, .},
    column a of P.  So each Jacobiator differentiates three entries along three
    rows only.  It is zero unless some P[c, b] with b != c mentions a coordinate
    and row a is stored, so only the triples {a, b, c} so reached are listed, in
    ascending order.
    """
    entries, rows, zero = raising.coeffs, raising.columns(), raising.chart.zero()
    stored = [a for a, row in enumerate(rows) if not row.is_zero]
    reached = (
        (a, b, c) for (c, b), value in entries.items() if b != c and value.variables for a in stored if a not in (b, c)
    )
    jacobiators = [
        sum((rows[a](entries[c, b]) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)) if (c, b) in entries), zero)
        for i, j, k in sorted({tuple(sorted(abc)) for abc in reached})
    ]
    return _symmetric_part(raising), jacobiators


def check_poisson(pi: Bivector, config: ZeroTestConfig | None = None) -> CheckReport:
    """Verify antisymmetry and the Jacobi identity of pi's bracket, on the coordinate triples it can fail on."""
    cfg = config or ZeroTestConfig()
    antisymmetry, jacobiators = _bracket_fields(_musical_matrix(pi))
    entries = (
        _zero_axiom("bivector-antisymmetry", antisymmetry, cfg),
        _zero_axiom("jacobi-identity", jacobiators, cfg),
    )
    return CheckReport("poisson", pi.chart, cfg, entries)


def _compatibility_entries(
    pi: Bivector, tensor: Tensor11, induced: Tensor11, cfg: ZeroTestConfig
) -> tuple[AxiomCheck, AxiomCheck]:
    chart = pi.chart
    # Condition 1: composing the tensor with the raising map equals raising the
    # transposed action, N P = P N^T for the matrix P of pi_sharp.  As P^T = -P,
    # P N^T = -(N P)^T, so this is the antisymmetry of ``induced`` = N P, the
    # raising matrix of the induced bivector.
    cond1 = _zero_axiom("compatibility-musical", _symmetric_part(induced), cfg)

    # Condition 2, L_{pi# a}(N) X - pi#(L_X (a o N)) + pi#(L_{NX} a) = 0, on the
    # coordinate pairs (dx_i, e_j) only.  The left side is always C^inf-linear
    # in X; rescaling a by f adds X(f) (N pi# - pi# N^T) a, which vanishes once
    # condition 1 holds.  The concomitant is then a tensor (Kosmann-Schwarzbach
    # and Magri, Ann. IHP 53, 1990), so its values on coordinate pairs decide it
    # everywhere.  When condition 1 fails, the overall verdict fails with it.
    # On (dx_i, e_j) the last two terms are -pi#(i_{e_j} d(dx_i o N)), so the defect is
    # column j of the (1,1) tensor L_{pi# dx_i} N - pi# o (d(dx_i o N))_flat; each tensor is tested whole.
    concomitants: list[Tensor11] = []
    for i in range(chart.dim):
        alpha = dx(chart, i)
        concomitant = lie_derivative(pi_sharp(pi, alpha), tensor)
        concomitants.append(concomitant - pi_sharp_omega_flat(pi, cartan_d(tensor_interior(tensor, alpha))))
    detail = None if cond1.passed else "assumes compatibility-musical, which failed"
    cond2 = _zero_axiom("compatibility-bracket", concomitants, cfg, detail)
    return cond1, cond2


def check_pn(pi: Bivector, tensor: Tensor11, config: ZeroTestConfig | None = None) -> CheckReport:
    """Poisson-Nijenhuis check: Poisson + compatibility + vanishing torsion.

    ``compatibility-musical`` is N pi# = pi# N^T.  ``compatibility-bracket`` is
    the vanishing of the Magri-Morosi concomitant on every coordinate pair
    (dx_i, d/dx_j).  Once the musical condition holds the concomitant is
    C^inf-bilinear, so the coordinate pairs decide it on all pairs of 1-forms
    and vector fields.  When the musical condition fails, the bracket entry
    carries a ``detail`` saying that it assumes it.  Also verifies that
    composing the tensor with the Poisson tensor yields a second Poisson
    bivector (the hallmark of the induced bi-Hamiltonian pair).
    """
    cfg = config or ZeroTestConfig()
    chart = pi.chart
    entries: list[AxiomCheck] = list(check_poisson(pi, cfg).entries)
    induced = tensor @ _musical_matrix(pi)
    entries.extend(_compatibility_entries(pi, tensor, induced, cfg))
    entries.append(_zero_axiom("torsion-vanishes", nijenhuis_torsion(tensor), cfg))
    antisymmetry, jacobiators = _bracket_fields(induced)
    entries.append(_zero_axiom("induced-bivector-poisson", antisymmetry + jacobiators, cfg))
    return CheckReport("pn", chart, cfg, tuple(entries))


def check_pqn(structure: GeometricStructure, config: ZeroTestConfig | None = None) -> CheckReport:
    """Poisson quasi-Nijenhuis check.

    Entries: Poisson + compatibility (decided on coordinate pairs, complete once
    compatibility-musical holds; see :func:`check_pn`); closedness of the 3-form and of
    its contraction with the tensor; the torsion identity T(X, Y) = pi_sharp(i_{X^Y} phi),
    as the 2-form identity T^i = [phi, x_i]_pi on each coordinate x_i; and d_N^2 f = [phi, f]_pi
    on five random functions drawn from the config seed, the one entry whose fields depend on
    the seed.  That entry adds no condition: d_N^2 f - [phi, f]_pi = sum_i (d_i f) (T^i - [phi, x_i]_pi),
    so it fails only when the torsion identity fails.  It cross-checks ``nijenhuis_d`` and
    ``koszul_bracket`` against ``nijenhuis_torsion``.
    """
    cfg = config or ZeroTestConfig()
    chart = structure.chart
    pi, tensor, phi = structure.poisson, structure.tensor, structure.torsion_form
    entries: list[AxiomCheck] = list(check_poisson(pi, cfg).entries)
    entries.extend(_compatibility_entries(pi, tensor, tensor @ _musical_matrix(pi), cfg))
    entries.append(_zero_axiom("phi-closed", [cartan_d(phi)], cfg))
    entries.append(_zero_axiom("i_N-phi-closed", [cartan_d(tensor_interior(tensor, phi))], cfg))
    # Component i of T(X, Y) = pi#(i_{X^Y} phi) is the 2-form identity T^i = [phi, x_i]_pi = -i_{pi# dx_i} phi.
    coordinates = [Form.from_scalar(chart.coordinate(i)) for i in range(chart.dim)]
    defects = [t - koszul_bracket(pi, phi, x) for t, x in zip(nijenhuis_torsion(tensor), coordinates)]
    entries.append(_zero_axiom("torsion-identity", defects, cfg))
    rng = random.Random(cfg.seed)
    square_defects: list[Form] = []
    for _ in range(5):
        f = Form.from_scalar(random_scalar_field(chart, rng, allow_exp=True))
        square_defects.append(nijenhuis_d(tensor, nijenhuis_d(tensor, f)) - koszul_bracket(pi, phi, f))
    entries.append(_zero_axiom("dN-squared-is-phi-bracket", square_defects, cfg))
    return CheckReport("pqn", chart, cfg, tuple(entries))


# ---------------------------------------------------------------------------
# deformation
# ---------------------------------------------------------------------------


class DeformResult(Record):
    """Outcome of deforming a torsionless structure by a closed 2-form.

    ``classification`` is ``"PN"`` when the 3-form ``phi`` vanishes, else ``"PqN"``.
    """

    __slots__ = _fields = ("tensor", "phi", "classification", "report")

    def __init__(self, tensor: Tensor11, phi: Form, classification: str, report: CheckReport):
        self._init(tensor, phi, classification, report)


def _require_closed(pi: Bivector, tensor: Tensor11, omega: Form, cfg: ZeroTestConfig) -> AxiomCheck:
    """The omega-closed entry, once omega is known to be a 2-form on the chart of pi and the tensor."""
    if omega.degree != 2:
        raise DegreeError(f"the deforming form must be a 2-form, got degree {omega.degree}")
    if omega.chart != pi.chart or tensor.chart != pi.chart:
        raise ChartMismatchError("deformation inputs live on different charts")
    entry = _zero_axiom("omega-closed", [cartan_d(omega)], cfg)
    if not entry.passed:
        raise HypothesisViolationError(
            "the deforming 2-form is not closed", witness=entry.witness, residual=entry.residual
        )
    return entry


def _structure_class(phi: Form | None, seed: int) -> str:
    """``"PN"`` when the 3-form is missing or decided zero by the exact zero test, else ``"PqN"``."""
    return "PN" if phi is None or _all_zero("phi-vanishes", _verdict_fields([phi]), seed) else "PqN"


def _deformation(pi: Bivector, tensor: Tensor11, omega: Form) -> tuple[Tensor11, Form]:
    """The deformed tensor N + pi_sharp o omega_flat and its 3-form d_N omega + 1/2 [omega, omega]_pi."""
    n_hat = tensor + pi_sharp_omega_flat(pi, omega)
    phi = nijenhuis_d(tensor, omega) + koszul_bracket(pi, omega, omega) * Fraction(1, 2)
    return n_hat, phi


def deform(
    pi: Bivector,
    tensor: Tensor11,
    omega: Form,
    config: ZeroTestConfig | None = None,
) -> DeformResult:
    """Deform a Poisson-Nijenhuis pair by a closed 2-form.

    Returns the deformed tensor (the base tensor plus the raising map composed
    with the lowering map of the 2-form), the induced 3-form, a PN/PqN
    classification of the outcome, and the quasi-Nijenhuis check report of the
    deformed structure.  The caller guarantees that (pi, tensor) is a
    Poisson-Nijenhuis pair; closedness of the 2-form is verified here and its
    failure raises :class:`HypothesisViolationError` with a witness.  A form
    of another degree raises :class:`DegreeError`, and inputs on different
    charts :class:`ChartMismatchError`, before anything is computed.
    """
    cfg = config or ZeroTestConfig()
    closed_entry = _require_closed(pi, tensor, omega, cfg)
    n_hat, phi = _deformation(pi, tensor, omega)
    pqn_report = check_pqn(GeometricStructure(pi.chart, pi, n_hat, phi), cfg)
    report = CheckReport(
        "deform",
        pi.chart,
        cfg,
        (closed_entry,) + pqn_report.entries,
    )
    return DeformResult(n_hat, phi, _structure_class(phi, cfg.seed), report)


def deform_to_pn(
    structure: GeometricStructure,
    omega: Form,
    config: ZeroTestConfig | None = None,
) -> tuple[Tensor11, CheckReport]:
    """Deform a quasi-Nijenhuis structure by a 2-form meant to cancel its 3-form.

    Thin converse of :func:`deform`: verifies that the deformation 3-form of
    ``omega`` (built with the structure's own tensor) equals minus the
    structure's 3-form, then runs the full torsionless check on the deformed
    tensor.
    """
    cfg = config or ZeroTestConfig()
    pi, tensor = structure.poisson, structure.tensor
    closed_entry = _require_closed(pi, tensor, omega, cfg)
    n_hat, phi = _deformation(pi, tensor, omega)
    cancel_entry = _zero_axiom("phi-cancellation", [phi + structure.torsion_form], cfg)
    pn_report = check_pn(pi, n_hat, cfg)
    report = CheckReport(
        "deform-to-pn",
        pi.chart,
        cfg,
        (closed_entry, cancel_entry) + pn_report.entries,
    )
    return n_hat, report


# ---------------------------------------------------------------------------
# trace invariants, recursion, involutivity
# ---------------------------------------------------------------------------


def _product_trace(a: Tensor11, b: Tensor11) -> ScalarField:
    """tr(A B) = sum_i sum_k A_ik B_ki, without the off-diagonal entries of A B."""
    products = (a_ik * b.coeffs[(k, i)] for (i, k), a_ik in a.terms() if (k, i) in b.coeffs)
    return sum(products, a.chart.zero())


def trace_invariants(tensor: Tensor11, k_max: int) -> list[ScalarField]:
    """The functions (1/2k) tr(N^k) for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    out = [tensor.trace() * Fraction(1, 2)]
    power = tensor
    for k in range(2, k_max + 1):
        if k < k_max:
            power = power @ tensor
            trace = power.trace()
        else:  # only the diagonal of the last product is needed
            trace = _product_trace(power, tensor)
        out.append(trace * Fraction(1, 2 * k))
    return out


def recursion_check(
    pi: Bivector,
    tensor: Tensor11,
    k_max: int | None = None,
    config: ZeroTestConfig | None = None,
) -> CheckReport:
    """Check the recursion d H_{k+1} = (d H_k) o N for the trace invariants.

    ``k_max`` defaults to the particle count, the depth matching the
    integrability count.  This chain is a property of torsionless pairs; for
    quasi-Nijenhuis structures the entries are informational residuals, not
    claims.
    """
    cfg = config or ZeroTestConfig()
    if tensor.chart != pi.chart:
        raise ChartMismatchError("recursion check across charts")
    if k_max is None:
        k_max = tensor.chart.n
    invariants = trace_invariants(tensor, k_max)
    entries = []
    for k in range(1, k_max):
        defect = differential(invariants[k]) - tensor_interior(tensor, differential(invariants[k - 1]))
        entries.append(_zero_axiom(f"recursion-H{k}-H{k + 1}", [defect], cfg))
    return CheckReport("recursion", tensor.chart, cfg, tuple(entries))


class InvolutivityMatrix(Record):
    """Pairwise Poisson-bracket verdicts for a list of invariants (1-based).

    Each cell is the :class:`AxiomCheck` that decided it; a cell is zero when
    it passed.
    """

    __slots__ = _fields = ("chart", "size", "cells")

    def __init__(self, chart: Chart, size: int, cells: dict[tuple[int, int], AxiomCheck]):
        self._init(chart, size, cells)

    @property
    def all_zero(self) -> bool:
        return all(cell.passed for cell in self.cells.values())

    def cell(self, j: int, k: int) -> AxiomCheck:
        return self.cells[(j, k)]

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        return sorted((j, k) for (j, k), cell in self.cells.items() if not cell.passed and j <= k)

    def as_dict(self) -> dict:
        cells = {}
        for (j, k), cell in sorted(self.cells.items()):
            cells[f"{j},{k}"] = {
                "zero": cell.passed,
                "residual": cell.residual,
                "witness": cell.witness.labelled(self.chart) if cell.witness is not None else None,
                "mode": cell.mode,
            }
        return {
            "size": self.size,
            "cells": cells,
            "all_zero": self.all_zero,
        }


def involutivity_matrix(
    pi: Bivector,
    invariants: Sequence[ScalarField],
    config: ZeroTestConfig | None = None,
) -> InvolutivityMatrix:
    """Zero-test {H_j, H_k} for every pair; the matrix mirrors its witnesses.

    {H_k, H_j} is minus {H_j, H_k}, so the mirrored cell reuses the verdict of
    the computed one.  {H_j, H_j} is a symbolic zero, not expanded, as pi is
    stored antisymmetric.  Each invariant is differentiated once, not once per pair.
    """
    cfg = config or ZeroTestConfig()
    cells: dict[tuple[int, int], AxiomCheck] = {}
    size = len(invariants)
    if any(h.chart != pi.chart for h in invariants):
        raise ChartMismatchError("bracket across charts")  # what poisson_bracket raises, also with no pair to expand
    gradients = [differential(h) for h in invariants]
    for j in range(1, size + 1):
        cells[(j, j)] = AxiomCheck(f"involutivity-H{j}-H{j}", True, "symbolic", 0.0, None, 0)
        for k in range(j + 1, size + 1):
            bracket = poisson_bracket(pi, gradients[j - 1], gradients[k - 1])
            cells[(j, k)] = cells[(k, j)] = _zero_axiom(f"involutivity-H{j}-H{k}", [bracket], cfg)
    return InvolutivityMatrix(pi.chart, size, cells)
