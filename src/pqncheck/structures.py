"""Structure bundles, axiom checkers, the deformation construction, traces.

A geometric structure is a chart together with a Poisson candidate, a (1,1)
tensor, and a 3-form controlling its torsion (the zero form for torsionless
candidates).  Checkers return :class:`CheckReport` objects: one entry per
axiom, each either verified structurally ("symbolic": the normalized
difference is the zero polynomial) or probabilistically ("sampled": residuals at
seeded sample points stay below tolerance).  Reports are deterministic given
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
from .errors import ChartMismatchError, HypothesisViolationError
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
from .scalar import Chart, Point, ScalarField, ZeroTestConfig, ZeroVerdict, is_zero


@dataclass(frozen=True)
class GeometricStructure:
    """A quadruple (chart, Poisson candidate, (1,1) tensor, torsion 3-form)."""

    chart: Chart
    poisson: Bivector
    tensor: Tensor11
    torsion_form: Form

    def __post_init__(self):
        if self.poisson.chart != self.chart or self.tensor.chart != self.chart:
            raise ChartMismatchError("structure components live on different charts")
        if self.torsion_form.chart != self.chart or self.torsion_form.degree != 3:
            raise ChartMismatchError("the torsion form must be a 3-form on the same chart")

    @classmethod
    def torsionless(cls, pi: Bivector, tensor: Tensor11) -> "GeometricStructure":
        return cls(pi.chart, pi, tensor, Form.zero(pi.chart, 3))


@dataclass(frozen=True)
class AxiomCheck:
    """Verdict for one axiom: how it was decided and the worst residual seen."""

    axiom: str
    passed: bool
    mode: str  # "symbolic" | "sampled"
    residual: float
    witness: Point | None
    samples: int
    detail: str | None = None

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


@dataclass(frozen=True)
class CheckReport:
    """Structured verdicts for a family of axioms on one chart."""

    name: str
    chart: Chart
    config: ZeroTestConfig
    entries: tuple[AxiomCheck, ...]

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
    """Check that every field is zero: structurally when possible, sampled otherwise."""
    sampled: list[ScalarField] = [f for f in fields if not f.is_zero_tree]
    if not sampled:
        return AxiomCheck(axiom, True, "symbolic", 0.0, None, 0, detail)
    passed = True
    worst = ZeroVerdict(True, -1.0, None, 0)
    for f in sampled:
        verdict = is_zero(f, config)
        passed = passed and verdict.is_zero
        if (not verdict.is_zero and worst.is_zero) or (
            verdict.is_zero == worst.is_zero and verdict.residual > worst.residual
        ):
            worst = verdict
    return AxiomCheck(axiom, passed, "sampled", max(worst.residual, 0.0), worst.witness, config.sample_count, detail)


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


def _bracket_axioms(chart: Chart, pairs: dict, cfg: ZeroTestConfig) -> tuple[AxiomCheck, AxiomCheck]:
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
    return (
        _zero_axiom("bivector-antisymmetry", _symmetric_part(chart, pairs), cfg),
        _zero_axiom("jacobi-identity", jacobiators, cfg),
    )


def check_poisson(pi: Bivector, config: ZeroTestConfig | None = None) -> CheckReport:
    """Verify the Jacobi identity of the induced bracket on all coordinate triples."""
    cfg = config or ZeroTestConfig()
    pairs = {(i, j): value for i, j, value in pi.nonzero_entries()}
    return CheckReport("poisson", pi.chart, cfg, _bracket_axioms(pi.chart, pairs, cfg))


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

    # Condition 2 on all coordinate pairs, plus a few function-rescaled pairs:
    # L_{pi# a}(N) X - pi#(L_X (a o N)) + pi#(L_{NX} a) = 0.
    def bracket_defect(alpha: Form, x: VectorField) -> VectorField:
        sharp_alpha = pi_sharp(pi, alpha)
        first = lie_derivative(sharp_alpha, tensor).apply(x)
        second = pi_sharp(pi, lie_derivative(x, tensor_interior(tensor, alpha)))
        third = pi_sharp(pi, lie_derivative(tensor.apply(x), alpha))
        return first - second + third

    defects: list[VectorField] = []
    for i in range(dim):
        alpha = dx(chart, i)
        lie_n = lie_derivative(pi_sharp(pi, alpha), tensor)
        n_alpha = tensor_interior(tensor, alpha)
        for j in range(dim):
            basis_j = VectorField.basis(chart, j)
            value = (
                lie_n.apply(basis_j)
                - pi_sharp(pi, lie_derivative(basis_j, n_alpha))
                + pi_sharp(pi, lie_derivative(tensor.apply(basis_j), alpha))
            )
            defects.append(value)
    rng = random.Random(cfg.seed)
    for _ in range(5):
        f = random_scalar_field(chart, rng, allow_exp=True)
        g = random_scalar_field(chart, rng, allow_exp=True)
        alpha = Form(chart, 1, {(rng.randrange(dim),): f})
        x = VectorField.basis(chart, rng.randrange(dim)) * g
        defects.append(bracket_defect(alpha, x))
    cond2 = _zero_axiom("compatibility-bracket", _vector_components(defects), cfg)
    return cond1, cond2


def check_compatibility(pi: Bivector, tensor: Tensor11, config: ZeroTestConfig | None = None) -> CheckReport:
    """Check both compatibility conditions between a Poisson bivector and a (1,1) tensor."""
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
    induced = _bracket_axioms(chart, _induced_pairs(pi, tensor), cfg)
    entries.append(
        AxiomCheck(
            "induced-bivector-poisson",
            all(e.passed for e in induced),
            "symbolic" if all(e.mode == "symbolic" for e in induced) else "sampled",
            max(e.residual for e in induced),
            next((e.witness for e in induced if e.witness is not None), None),
            max(e.samples for e in induced),
        )
    )
    return CheckReport("pn", chart, cfg, tuple(entries))


def check_pqn(structure: GeometricStructure, config: ZeroTestConfig | None = None) -> CheckReport:
    """Poisson quasi-Nijenhuis check.

    Entries: Poisson + compatibility; closedness of the 3-form and of its
    contraction with the tensor; the torsion identity T(X, Y) =
    pi_sharp(i_{X^Y} phi) on all coordinate pairs; and the square of the
    tensor differential acting as the bracket with the 3-form on a handful of
    random functions.
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


@dataclass(frozen=True)
class DeformResult:
    """Outcome of deforming a torsionless structure by a closed 2-form."""

    tensor: Tensor11
    phi: Form
    classification: str  # "PN" when the 3-form vanishes, else "PqN"
    report: CheckReport


def _require_closed(omega: Form, cfg: ZeroTestConfig) -> AxiomCheck:
    d_omega = cartan_d(omega)
    entry = _zero_axiom("omega-closed", _form_components([d_omega]), cfg)
    if not entry.passed:
        raise HypothesisViolationError(
            "the deforming 2-form is not closed", witness=entry.witness, residual=entry.residual
        )
    return entry


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
    n_hat = tensor + pi_sharp_omega_flat(pi, omega)
    phi = nijenhuis_d(tensor, omega) + koszul_bracket(pi, omega, omega) * Fraction(1, 2)
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
    cancel = nijenhuis_d(tensor, omega) + koszul_bracket(pi, omega, omega) * Fraction(1, 2) + structure.torsion_form
    cancel_entry = _zero_axiom("phi-cancellation", _form_components([cancel]), cfg)
    n_hat = tensor + pi_sharp_omega_flat(pi, omega)
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


@dataclass(frozen=True)
class InvolutivityCell:
    zero: bool
    residual: float
    witness: Point | None
    mode: str  # "symbolic" | "sampled"

    def as_dict(self, chart: Chart) -> dict:
        return {
            "zero": self.zero,
            "residual": self.residual,
            "witness": self.witness.labelled(chart) if self.witness is not None else None,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class InvolutivityMatrix:
    """Pairwise Poisson-bracket verdicts for a list of invariants (1-based)."""

    chart: Chart
    size: int
    cells: dict[tuple[int, int], InvolutivityCell]
    config: ZeroTestConfig

    @property
    def all_zero(self) -> bool:
        return all(cell.zero for cell in self.cells.values())

    def cell(self, j: int, k: int) -> InvolutivityCell:
        return self.cells[(j, k)]

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        return sorted((j, k) for (j, k), cell in self.cells.items() if not cell.zero and j <= k)

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "config": self.config.as_dict(),
            "cells": {
                f"{j},{k}": cell.as_dict(self.chart) for (j, k), cell in sorted(self.cells.items())
            },
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
    cells: dict[tuple[int, int], InvolutivityCell] = {}
    size = len(invariants)
    gradients = [differential(h) for h in invariants]
    for j in range(1, size + 1):
        for k in range(j, size + 1):
            bracket = poisson_bracket(pi, gradients[j - 1], gradients[k - 1])
            if bracket.is_zero_tree:
                cell = InvolutivityCell(True, 0.0, None, "symbolic")
            else:
                verdict = is_zero(bracket, cfg)
                cell = InvolutivityCell(verdict.is_zero, verdict.residual, verdict.witness, "sampled")
            cells[(j, k)] = cell
            if j != k:
                cells[(k, j)] = cell
    return InvolutivityMatrix(pi.chart, size, cells, cfg)
