"""Acceptance suite: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import time
from fractions import Fraction

from pqncheck.calculus import cartan_d, koszul_bracket, nijenhuis_d, poisson_bracket
from pqncheck.exterior import Form, Tensor11, dx, pi_sharp, pi_sharp_omega_flat, wedge
from pqncheck.models import (
    calogero,
    canonical_deformation_form,
    canonical_nijenhuis,
    canonical_poisson,
    canonical_symplectic,
    closed_toda,
    das_okubo_omega_hat,
    open_toda,
    two_particle_model,
)
from pqncheck.randgen import random_scalar_field
from pqncheck.scalar import Chart, ZeroTestConfig, exp, sample_points
from pqncheck.structures import (
    check_pn,
    deform,
    involutivity_matrix,
    nijenhuis_torsion,
    trace_invariants,
)

from conftest import CALOGERO_SEPARATION, seeded
from reference import random_form, two_particle_fixture


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _max_abs_form(form: Form, points) -> float:
    worst = 0.0
    for _, coeff in form.terms():
        for point in points:
            worst = max(worst, abs(coeff.evaluate(point)))
    return worst


def test_criterion_1_closed_toda_phi():
    start = time.monotonic()
    chart = Chart(3)
    pi = canonical_poisson(chart)
    bundle = closed_toda(3, [1, 1, 1])
    result = deform(pi, canonical_nijenhuis(chart), bundle.omega)
    expected = Form(
        chart,
        3,
        {
            (chart.q_index(1), chart.q_index(3), chart.p_index(i)): 2 * exp(chart.q(3) - chart.q(1))
            for i in (1, 2, 3)
        },
    )
    diff = result.phi - expected
    if diff.is_zero:
        residual = 0.0
    else:
        residual = _max_abs_form(diff, sample_points(chart, ZeroTestConfig(sample_count=100)))
    elapsed = time.monotonic() - start
    _criterion(
        1,
        "closed-Toda deformation 3-form matches the displayed closed form",
        residual < 1e-9 and elapsed < 10.0,
        f"residual={residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_open_toda_pn():
    start = time.monotonic()
    generic = [Fraction(1), Fraction(2), Fraction(3)]
    cfg = ZeroTestConfig()
    worst = 0.0
    for n in (2, 3, 4):
        chart = Chart(n)
        pi = canonical_poisson(chart)
        bundle = open_toda(n, generic[: n - 1])
        result = deform(pi, canonical_nijenhuis(chart), bundle.omega, cfg)
        assert result.classification == "PN"
        phi_ok = result.phi.is_zero
        torsion = nijenhuis_torsion(result.tensor)
        torsion_ok = True
        for value in torsion:
            for comp in value.coeffs.values():
                verdict = comp.is_zero(cfg)
                torsion_ok = torsion_ok and verdict.passed
                worst = max(worst, verdict.residual)
        assert phi_ok and torsion_ok, f"n={n}"
    elapsed = time.monotonic() - start
    _criterion(
        2,
        "open-Toda deformation is torsionless with vanishing 3-form for n=2,3,4",
        elapsed < 60.0,
        f"worst torsion residual={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_closed_toda_traces():
    bundle = closed_toda(3, [1, 1, 1])
    chart = bundle.chart
    h1, h2 = trace_invariants(bundle.tensor, 2)
    expected_h1 = chart.p(1) + chart.p(2) + chart.p(3)
    expected_h2 = (
        (chart.p(1) ** 2 + chart.p(2) ** 2 + chart.p(3) ** 2) / 2
        + exp(chart.q(1) - chart.q(2))
        + exp(chart.q(2) - chart.q(3))
        + exp(chart.q(3) - chart.q(1))
    )
    _criterion(
        3,
        "closed-Toda H1 and H2 match the displayed formulas exactly after normalization",
        h1 == expected_h1 and h2 == expected_h2,
    )


def test_criterion_4_involutivity_split():
    # closed chain, n = 3: every bracket bounded by 1e-8 at 50 points
    toda = closed_toda(3)
    toda_invariants = trace_invariants(toda.tensor, 3)
    toda_points = sample_points(toda.chart, ZeroTestConfig(sample_count=50))
    toda_worst = 0.0
    for j in range(3):
        for k in range(j, 3):
            bracket = poisson_bracket(toda.poisson, toda_invariants[j], toda_invariants[k])
            if bracket.is_zero_tree:
                continue
            for point in toda_points:
                toda_worst = max(toda_worst, abs(bracket.evaluate(point)))
    ok_toda = toda_worst <= 1e-8

    # inverse-square potentials, n = 3: bounded by 1e-7 under the separation guard
    cal3 = calogero(3)
    cal_invariants = trace_invariants(cal3.tensor, 3)
    cal_points = sample_points(cal3.chart, ZeroTestConfig(), separation=CALOGERO_SEPARATION)
    cal_worst = 0.0
    for j in range(3):
        for k in range(j, 3):
            bracket = poisson_bracket(cal3.poisson, cal_invariants[j], cal_invariants[k])
            if bracket.is_zero_tree:
                continue
            for point in cal_points:
                cal_worst = max(cal_worst, abs(bracket.evaluate(point)))
    ok_cal3 = cal_worst <= 1e-7

    # inverse-square potentials, n = 4: some pair exceeds 1e-6 somewhere
    cal4 = calogero(4)
    matrix = involutivity_matrix(cal4.poisson, trace_invariants(cal4.tensor, 4))
    witness_residual = max(
        (matrix.cell(j, k).residual for j, k in matrix.nonzero_pairs()), default=0.0
    )
    ok_cal4 = witness_residual > 1e-6

    _criterion(
        4,
        "involutivity split: closed Toda n=3 and Calogero n=3 involutive, Calogero n=4 not",
        ok_toda and ok_cal3 and ok_cal4,
        f"toda={toda_worst:.2e}, cal3={cal_worst:.2e}, cal4 witness={witness_residual:.2e}",
    )


def test_criterion_5_two_particle_fixtures():
    fixture = two_particle_fixture()
    chart = fixture.chart
    pi = canonical_poisson(chart)
    bundle = two_particle_model(fixture.v.to_prefix())
    sharp_columns = [pi_sharp(pi, dx(chart, j)).components for j in range(chart.dim)]
    ok_matrices = (
        tuple(zip(*sharp_columns)) == fixture.pi_sharp_matrix
        and canonical_nijenhuis(chart).entries == fixture.n_matrix
        and bundle.tensor.entries == fixture.n_hat_matrix
    )
    nc = canonical_nijenhuis(chart)
    ok_displays = (
        nijenhuis_d(nc, fixture.omega) == fixture.d_n_omega
        and koszul_bracket(pi, fixture.omega, fixture.omega) == fixture.omega_self_bracket
    )
    _criterion(
        5,
        "two-particle matrices and both displayed 3-form identities hold symbolically",
        ok_matrices and ok_displays,
    )


def test_criterion_6_identity_deformation_chain():
    chart = Chart(3)
    pi = canonical_poisson(chart)
    omega_c = canonical_deformation_form(chart)
    deformed = Tensor11.identity(chart) + pi_sharp_omega_flat(pi, omega_c)
    ok_tensor = deformed == canonical_nijenhuis(chart)
    ok_closed = cartan_d(omega_c).is_zero
    ok_bracket = koszul_bracket(pi, omega_c, omega_c).is_zero
    _criterion(
        6,
        "identity plus raised deformation form equals the momentum tensor; the form is closed and self-commuting",
        ok_tensor and ok_closed and ok_bracket,
    )


def test_criterion_7_graded_identity_suite():
    chart = Chart(2)
    pi = canonical_poisson(chart)
    rng = seeded(777)
    failures = []

    def residual_of(form: Form) -> float:
        if form.is_zero:
            return 0.0
        points = sample_points(chart, ZeroTestConfig(sample_count=20))
        return _max_abs_form(form, points)

    # graded antisymmetry, Leibniz, graded Jacobi on >= 20 random triples
    triples = 0
    while triples < 21:
        qa, qb, qc = rng.choice([(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 1, 2)])
        a = random_form(chart, qa, rng, max_terms=2)
        b = random_form(chart, qb, rng, max_terms=2)
        c = random_form(chart, qc, rng, max_terms=2)
        sign_k1 = -1 if ((qa - 1) * (qb - 1)) % 2 == 0 else 1
        failures.append(residual_of(koszul_bracket(pi, a, b) - sign_k1 * koszul_bracket(pi, b, a)))
        sign_k3 = -1 if ((qa - 1) * qb) % 2 else 1
        leibniz = (
            koszul_bracket(pi, a, wedge(b, c))
            - wedge(koszul_bracket(pi, a, b), c)
            - sign_k3 * wedge(b, koszul_bracket(pi, a, c))
        )
        failures.append(residual_of(leibniz))
        s1 = -1 if ((qa - 1) * (qc - 1)) % 2 else 1
        s2 = -1 if ((qb - 1) * (qa - 1)) % 2 else 1
        s3 = -1 if ((qc - 1) * (qb - 1)) % 2 else 1
        jacobi = (
            s1 * koszul_bracket(pi, a, koszul_bracket(pi, b, c))
            + s2 * koszul_bracket(pi, b, koszul_bracket(pi, c, a))
            + s3 * koszul_bracket(pi, c, koszul_bracket(pi, a, b))
        )
        failures.append(residual_of(jacobi))
        triples += 1

    # the tensor differential anticommutes with the exterior derivative
    nc = canonical_nijenhuis(chart)
    for degree in (0, 1, 2):
        a = random_form(chart, degree, rng)
        failures.append(residual_of(cartan_d(nijenhuis_d(nc, a)) + nijenhuis_d(nc, cartan_d(a))))

    # the squared tensor differential of the closed chain acts as the bracket
    # with its 3-form
    toda = closed_toda(2)
    phi = toda.expected.phi_closed_form
    for _ in range(5):
        f = Form.from_scalar(random_scalar_field(chart, rng))
        square = nijenhuis_d(toda.tensor, nijenhuis_d(toda.tensor, f))
        failures.append(residual_of(square - koszul_bracket(pi, phi, f)))

    # closed 2-forms: the bracket agrees with the induced tensor differential
    for omega in (canonical_symplectic(chart), canonical_deformation_form(chart), toda.omega):
        induced = pi_sharp_omega_flat(pi, omega)
        for degree in (0, 1, 2):
            a = random_form(chart, degree, rng, max_terms=2)
            failures.append(residual_of(koszul_bracket(pi, omega, a) - nijenhuis_d(induced, a)))

    worst = max(failures)
    _criterion(
        7,
        "graded-identity property suite at n=2 within 1e-9",
        worst <= 1e-9,
        f"worst residual={worst:.2e} over {len(failures)} identities",
    )


def test_criterion_8_das_okubo_recovery():
    n = 3
    couplings = [Fraction(1), Fraction(2)]
    bundle = open_toda(n, couplings)
    pi = bundle.poisson
    omega_hat = das_okubo_omega_hat(n, couplings)
    via_identity = deform(pi, Tensor11.identity(bundle.chart), omega_hat)
    via_momentum = deform(pi, canonical_nijenhuis(bundle.chart), bundle.omega)
    ok_equal = via_identity.tensor == via_momentum.tensor
    ok_bracket = koszul_bracket(pi, omega_hat, omega_hat).is_zero
    _criterion(
        8,
        "deforming the identity by the combined form recovers the open-chain tensor; the form self-commutes",
        ok_equal and ok_bracket,
    )


def test_criterion_9_two_particle_dichotomy():
    difference = two_particle_model("(exp (+ q1 (* -1 q2)))")
    h1, h2 = trace_invariants(difference.tensor, 2)
    bracket_12 = poisson_bracket(difference.poisson, h1, h2)
    bracket_22 = poisson_bracket(difference.poisson, h2, h2)
    ok_invariant = bracket_12.is_zero_tree and bracket_22.is_zero_tree

    generic = two_particle_model("(* q1 q2)")
    g1, g2 = trace_invariants(generic.tensor, 2)
    bracket = poisson_bracket(generic.poisson, g1, g2)
    points = sample_points(generic.chart, ZeroTestConfig())
    residual = max(abs(bracket.evaluate(p)) for p in points)
    _criterion(
        9,
        "difference potential is involutive, the generic one is not",
        ok_invariant and residual > 1e-6,
        f"generic residual={residual:.2e}",
    )
