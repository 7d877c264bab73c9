"""Structure bundles, axiom checkers, the deformation construction, traces.

A geometric structure is a chart together with a Poisson candidate, a (1,1)
tensor, and a 3-form controlling its torsion (the zero form for torsionless
candidates).  Checkers return :class:`CheckReport` objects: one entry per
axiom, decided structurally ("symbolic": the normalized difference is the
zero polynomial) or by exact integer evaluation at seeded points ("exact",
see :func:`pqncheck.scalar.exact_zero`); floats only supply the residual and
witness of a field proved nonzero.  A field the exact test cannot decide
ends the check with :class:`pqncheck.errors.ConfigError`.  Reports are
deterministic given the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .calculus import (
    cartan_d,
    differential,
    koszul_bracket,
    nijenhuis_d,
    nijenhuis_torsion,
    poisson_bracket,
)
from .errors import ChartMismatchError, ConfigError, HypothesisViolationError
from .exterior import (
    Bivector,
    Form,
    Tensor11,
    VectorField,
    dx,
    lie_derivative,
    pair_interior,
    pi_sharp,
    pi_sharp_omega_flat,
    tensor_interior,
)
from .randgen import random_scalar_field
from .scalar import Chart, Point, Record, ScalarField, ZeroTestConfig, exact_zero, is_zero


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


class AxiomCheck(Record):
    """Verdict for one axiom: how it was decided and the worst residual seen."""

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


def _zero_axiom(
    axiom: str,
    fields: Iterable[ScalarField],
    config: ZeroTestConfig,
    detail: str | None = None,
) -> AxiomCheck:
    """Check that every field is zero: structurally, else exactly.

    Every zero verdict of a report entry or involutivity cell is made here.
    Fields that are not the zero polynomial go to :func:`exact_zero`, every
    one of them.  When it proves every one zero the verdict is ``exact`` with
    no residual; when it proves some nonzero the verdict fails as ``exact``,
    with the residual and witness of the float samples of those fields only.
    A field it leaves undecided raises :class:`ConfigError`.
    """
    pending: list[ScalarField] = [f for f in fields if not f.is_zero_tree]
    if not pending:
        return AxiomCheck(axiom, True, "symbolic", 0.0, None, 0, detail)
    exact = [exact_zero(f, config.seed) for f in pending]  # True, False or None (undecided)
    if None in exact:
        raise ConfigError(f"{axiom}: undecided by the exact zero test (degree bound past 2**16, or a zero sum base)")
    if all(exact):
        return AxiomCheck(axiom, True, "exact", 0.0, None, 0, detail)
    verdicts = [is_zero(f, config) for f, zero in zip(pending, exact) if not zero]
    worst = max(verdicts, key=lambda verdict: (not verdict.is_zero, verdict.residual))
    return AxiomCheck(axiom, False, "exact", worst.residual, worst.witness, config.sample_count, detail)


def _vector_components(vectors: Iterable[VectorField]) -> list[ScalarField]:
    """The nonzero components of each vector field, in ascending index order."""
    out: list[ScalarField] = []
    for v in vectors:
        out.extend(v.coeffs[i] for i in sorted(v.coeffs))
    return out


def _form_components(forms: Iterable[Form]) -> list[ScalarField]:
    out: list[ScalarField] = []
    for f in forms:
        out.extend(coeff for _, coeff in f.terms())
    return out


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def _symmetric_part(chart: Chart, pairs: dict[tuple[int, int], ScalarField]) -> list[ScalarField]:
    """pairs[i, j] + pairs[j, i] for i <= j in ascending order: all zero exactly when pairs is antisymmetric."""
    zero = chart.zero()
    keys = sorted({(min(key), max(key)) for key in pairs})
    return [pairs.get((i, j), zero) + pairs.get((j, i), zero) for i, j in keys]


def _bracket_fields(chart: Chart, pairs: dict) -> tuple[list[ScalarField], list[ScalarField]]:
    """Antisymmetry and Jacobi identity of {f, g} = sum over ordered pairs of pairs[i, j] (d_i f)(d_j g).

    On coordinates the bracket reads off the entries: {x_j, x_k} = pairs[j, k],
    and {x_i, h} = X_i(h) for the row field X_i = sum_b pairs[i, b] d/dx_b.
    So each Jacobiator differentiates three entries along three rows only.
    """
    rows = [VectorField(chart, {b: value for (a, b), value in pairs.items() if a == i}) for i in range(chart.dim)]
    jacobiators = [
        sum((rows[a](pairs[b, c]) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)) if (b, c) in pairs), chart.zero())
        for i, j, k in combinations(range(chart.dim), 3)
    ]
    return _symmetric_part(chart, pairs), jacobiators


def check_poisson(pi: Bivector, config: ZeroTestConfig | None = None) -> CheckReport:
    """Verify the Jacobi identity of the induced bracket on all coordinate triples."""
    cfg = config or ZeroTestConfig()
    antisymmetry, jacobiators = _bracket_fields(pi.chart, {(i, j): value for i, j, value in pi.nonzero_entries()})
    entries = (
        _zero_axiom("bivector-antisymmetry", antisymmetry, cfg),
        _zero_axiom("jacobi-identity", jacobiators, cfg),
    )
    return CheckReport("poisson", pi.chart, cfg, entries)


def _induced_pairs(pi: Bivector, tensor: Tensor11) -> dict[tuple[int, int], ScalarField]:
    """pi_N^{ji} = sum_k pi^{jk} N^i_k, the entries of the bivector with raising map N o pi_sharp.

    This is the transpose of N P, P being the matrix of pi_sharp.  Every
    ordered pair is kept: the map is antisymmetric only when
    compatibility-musical holds.
    """
    sharp = Tensor11(pi.chart, (((k, j), value) for j, k, value in pi.nonzero_entries()))
    return {(j, i): value for (i, j), value in (tensor @ sharp).terms()}


def _compatibility_entries(
    pi: Bivector, tensor: Tensor11, cfg: ZeroTestConfig
) -> tuple[AxiomCheck, AxiomCheck]:
    chart = pi.chart
    dim = chart.dim
    # Condition 1: composing the tensor with the raising map equals raising the
    # transposed action, N P = P N^T for the matrix P of pi_sharp.  Entry (i, j)
    # of N P - P N^T is pi_N^{ji} + pi_N^{ij}, so this is the antisymmetry of
    # the induced entries.
    cond1 = _zero_axiom("compatibility-musical", _symmetric_part(chart, _induced_pairs(pi, tensor)), cfg)

    # Condition 2, L_{pi# a}(N) X - pi#(L_X (a o N)) + pi#(L_{NX} a) = 0, on the
    # coordinate pairs (dx_i, e_j) only.  The left side is always C^inf-linear
    # in X; rescaling a by f adds X(f) (N pi# - pi# N^T) a, which vanishes once
    # condition 1 holds.  The concomitant is then a tensor (Kosmann-Schwarzbach
    # and Magri, Ann. IHP 53, 1990), so its values on coordinate pairs decide it
    # everywhere.  When condition 1 fails, the overall verdict fails with it.
    # On (dx_i, e_j), L_{e_j} of a 1-form is d_j of each coefficient and
    # L_{N e_j} dx_i = d N^i_j, so both come from partials of row i of N.
    defects: list[VectorField] = []
    for i in range(dim):
        alpha = dx(chart, i)
        lie_n = lie_derivative(pi_sharp(pi, alpha), tensor)
        row = tensor_interior(tensor, alpha)  # dx_i o N = sum_k N^i_k dx_k
        row_partials: dict[int, list] = {}
        for key, entry in row.terms():
            for j in entry.variables:
                row_partials.setdefault(j, []).append((key, entry.partial(j)))
        for j in range(dim):
            value = (
                lie_n.column(j)
                - pi_sharp(pi, Form(chart, 1, row_partials.get(j, ())))
                + pi_sharp(pi, differential(row.coefficient(j)))
            )
            defects.append(value)
    detail = None if cond1.passed else "assumes compatibility-musical, which failed"
    cond2 = _zero_axiom("compatibility-bracket", _vector_components(defects), cfg, detail)
    return cond1, cond2


def check_compatibility(pi: Bivector, tensor: Tensor11, config: ZeroTestConfig | None = None) -> CheckReport:
    """Check both compatibility conditions between a Poisson bivector and a (1,1) tensor.

    ``compatibility-musical`` is N pi# = pi# N^T.  ``compatibility-bracket`` is
    the vanishing of the Magri-Morosi concomitant on every coordinate pair
    (dx_i, d/dx_j).  Once the musical condition holds the concomitant is
    C^inf-bilinear, so the coordinate pairs decide it on all pairs of 1-forms
    and vector fields.  When the musical condition fails, the bracket entry
    carries a ``detail`` saying that it assumes it.
    """
    cfg = config or ZeroTestConfig()
    entries = _compatibility_entries(pi, tensor, cfg)
    return CheckReport("compatibility", pi.chart, cfg, entries)


def check_pn(pi: Bivector, tensor: Tensor11, config: ZeroTestConfig | None = None) -> CheckReport:
    """Poisson-Nijenhuis check: Poisson + compatibility + vanishing torsion.

    Also verifies that composing the tensor with the Poisson tensor yields a
    second Poisson bivector (the hallmark of the induced bi-Hamiltonian pair).
    """
    cfg = config or ZeroTestConfig()
    chart = pi.chart
    entries: list[AxiomCheck] = list(check_poisson(pi, cfg).entries)
    entries.extend(_compatibility_entries(pi, tensor, cfg))
    torsion = nijenhuis_torsion(tensor)
    torsion_fields = _vector_components(v for _, v in torsion.coordinate_pairs())
    entries.append(_zero_axiom("torsion-vanishes", torsion_fields, cfg))
    antisymmetry, jacobiators = _bracket_fields(chart, _induced_pairs(pi, tensor))
    entries.append(_zero_axiom("induced-bivector-poisson", antisymmetry + jacobiators, cfg))
    return CheckReport("pn", chart, cfg, tuple(entries))


def check_pqn(structure: GeometricStructure, config: ZeroTestConfig | None = None) -> CheckReport:
    """Poisson quasi-Nijenhuis check.

    Entries: Poisson + compatibility (decided on coordinate pairs, which is
    complete once compatibility-musical holds; see
    :func:`check_compatibility`); closedness of the 3-form and of its
    contraction with the tensor; the torsion identity T(X, Y) =
    pi_sharp(i_{X^Y} phi) on all coordinate pairs; and the square of the
    tensor differential acting as the bracket with the 3-form on five random
    functions drawn from the config seed.  That last entry covers functions
    only, and only with probability; it is the one entry whose fields, not
    just its sample points, depend on the seed.
    """
    cfg = config or ZeroTestConfig()
    chart = structure.chart
    pi, tensor, phi = structure.poisson, structure.tensor, structure.torsion_form
    entries: list[AxiomCheck] = list(check_poisson(pi, cfg).entries)
    entries.extend(_compatibility_entries(pi, tensor, cfg))
    entries.append(_zero_axiom("phi-closed", _form_components([cartan_d(phi)]), cfg))
    entries.append(
        _zero_axiom("i_N-phi-closed", _form_components([cartan_d(tensor_interior(tensor, phi))]), cfg)
    )
    torsion = nijenhuis_torsion(tensor)
    defects: list[VectorField] = []
    for (j, k), value in torsion.coordinate_pairs():
        contracted = pair_interior(VectorField.basis(chart, j), VectorField.basis(chart, k), phi)
        defects.append(value - pi_sharp(pi, contracted))
    entries.append(_zero_axiom("torsion-identity", _vector_components(defects), cfg))
    rng = random.Random(cfg.seed)
    square_defects: list[Form] = []
    for _ in range(5):
        f = random_scalar_field(chart, rng, allow_exp=True)
        f_form = Form.from_scalar(f)
        lhs = nijenhuis_d(tensor, nijenhuis_d(tensor, f_form))
        rhs = koszul_bracket(pi, phi, f_form)
        square_defects.append(lhs - rhs)
    entries.append(_zero_axiom("dN-squared-is-phi-bracket", _form_components(square_defects), cfg))
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


def _require_closed(omega: Form, cfg: ZeroTestConfig) -> AxiomCheck:
    d_omega = cartan_d(omega)
    entry = _zero_axiom("omega-closed", _form_components([d_omega]), cfg)
    if not entry.passed:
        raise HypothesisViolationError(
            "the deforming 2-form is not closed", witness=entry.witness, residual=entry.residual
        )
    return entry


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
    failure raises :class:`HypothesisViolationError` with a witness.
    """
    cfg = config or ZeroTestConfig()
    if omega.degree != 2:
        raise ChartMismatchError("the deforming form must be a 2-form")
    if omega.chart != pi.chart or tensor.chart != pi.chart:
        raise ChartMismatchError("deformation inputs live on different charts")
    closed_entry = _require_closed(omega, cfg)
    n_hat, phi = _deformation(pi, tensor, omega)
    phi_entry = _zero_axiom("phi-vanishes", _form_components([phi]), cfg)
    classification = "PN" if phi_entry.passed else "PqN"
    pqn_report = check_pqn(GeometricStructure(pi.chart, pi, n_hat, phi), cfg)
    report = CheckReport(
        "deform",
        pi.chart,
        cfg,
        (closed_entry,) + pqn_report.entries,
    )
    return DeformResult(n_hat, phi, classification, report)


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
    closed_entry = _require_closed(omega, cfg)
    n_hat, phi = _deformation(pi, tensor, omega)
    cancel_entry = _zero_axiom("phi-cancellation", _form_components([phi + structure.torsion_form]), cfg)
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
        entries.append(_zero_axiom(f"recursion-H{k}-H{k + 1}", _form_components([defect]), cfg))
    return CheckReport("recursion", tensor.chart, cfg, tuple(entries))


class InvolutivityMatrix(Record):
    """Pairwise Poisson-bracket verdicts for a list of invariants (1-based).

    Each cell is the :class:`AxiomCheck` that decided it; a cell is zero when
    it passed.
    """

    __slots__ = _fields = ("chart", "size", "cells", "config")

    def __init__(self, chart: Chart, size: int, cells: dict[tuple[int, int], AxiomCheck], config: ZeroTestConfig):
        self._init(chart, size, cells, config)

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
            "config": self.config.as_dict(),
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
    the computed one.  Each invariant is differentiated once, not once per pair.
    """
    cfg = config or ZeroTestConfig()
    cells: dict[tuple[int, int], AxiomCheck] = {}
    size = len(invariants)
    gradients = [differential(h) for h in invariants]
    for j in range(1, size + 1):
        for k in range(j, size + 1):
            bracket = poisson_bracket(pi, gradients[j - 1], gradients[k - 1])
            cell = _zero_axiom(f"involutivity-H{j}-H{k}", [bracket], cfg)
            cells[(j, k)] = cell
            if j != k:
                cells[(k, j)] = cell
    return InvolutivityMatrix(pi.chart, size, cells, cfg)
