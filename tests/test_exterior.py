from __future__ import annotations

import operator
from itertools import combinations, product

import pytest

from pqncheck.errors import ChartMismatchError, DegreeError
from pqncheck.exterior import (
    Bivector,
    Form,
    Tensor11,
    VectorField,
    dx,
    interior,
    lie_derivative,
    pi_sharp,
    pi_sharp_omega_flat,
    tensor_interior,
    wedge,
)
from pqncheck.models import (
    canonical_nijenhuis,
    canonical_poisson,
    canonical_symplectic,
    canonical_deformation_form,
    closed_toda,
)
from pqncheck.randgen import random_scalar_field
from pqncheck.scalar import Chart, exp
from pqncheck.structures import check_poisson

from conftest import seeded
from reference import dp, dq, lie_bracket, random_form, random_tensor, random_vector_field, two_particle_fixture


def _stored_values(obj):
    return [value for _, value in obj.terms()]


def _random_coefficients(chart: Chart, degree: int, rng, count: int = 4) -> dict:
    """Random coefficients on ``count`` index tuples, with exp and negative-power factors."""
    keys = list(combinations(range(chart.dim), degree))
    rng.shuffle(keys)
    return {key: random_scalar_field(chart, rng, allow_negative_powers=True) for key in keys[:count]}


def _columnwise_pi_sharp_omega_flat(pi: Bivector, omega: Form) -> Tensor11:
    """The reference definition: column j of pi# o omega_flat is pi_sharp(i_{e_j} omega)."""
    chart = pi.chart
    columns = [pi_sharp(pi, interior(VectorField.basis(chart, j), omega)) for j in range(chart.dim)]
    return Tensor11(chart, (((i, j), value) for j, column in enumerate(columns) for i, value in column.terms()))


def _generator_pi_sharp(pi: Bivector, alpha: Form) -> VectorField:
    """The reference: pi_sharp as a generator over the stored entries, pi^{ji} = -pi^{ij} written out."""
    coeffs = alpha.coeffs

    def terms():
        for (i, j), entry in pi.terms():
            if (i,) in coeffs:
                yield j, entry * coeffs[(i,)]
            if (j,) in coeffs:
                yield i, -(entry * coeffs[(j,)])

    return VectorField(pi.chart, terms())


def _sum_pairing(alpha: Form, vector: VectorField):
    """The reference: <alpha, X> = sum_i alpha_i X^i."""
    return sum((coeff * vector.coeffs[i] for (i,), coeff in alpha.terms() if i in vector.coeffs), alpha.chart.zero())


def _merged_coeffs(a, b, op, lone) -> dict:
    """The reference merge: op on shared keys in a's order, lone(value) on b's new keys appended, zeros dropped."""
    out = dict(a.coeffs)
    for key, value in b.coeffs.items():
        out[key] = op(out[key], value) if key in out else lone(value)
    return {key: value for key, value in out.items() if not value.is_zero_tree}


#: Each tensor type's stored keys on a chart, and its constructor from a coefficient mapping.
_SPARSE_TYPES = {
    "form-0": (lambda dim: [()], lambda chart, coeffs: Form(chart, 0, coeffs)),
    "form-1": (lambda dim: list(combinations(range(dim), 1)), lambda chart, coeffs: Form(chart, 1, coeffs)),
    "form-2": (lambda dim: list(combinations(range(dim), 2)), lambda chart, coeffs: Form(chart, 2, coeffs)),
    "form-3": (lambda dim: list(combinations(range(dim), 3)), lambda chart, coeffs: Form(chart, 3, coeffs)),
    "vector": (lambda dim: list(range(dim)), VectorField),
    "tensor": (lambda dim: list(product(range(dim), repeat=2)), Tensor11),
    "bivector": (lambda dim: list(combinations(range(dim), 2)), Bivector),
}


def _operand_pair(name: str, chart: Chart, rng, cancel):
    """Two values of one type that share some keys; on one shared key the result of the operator cancels."""
    keys, build = _SPARSE_TYPES[name]
    keys = keys(chart.dim)
    rng.shuffle(keys)
    a = {key: random_scalar_field(chart, rng, allow_negative_powers=True) for key in keys[: max(1, 2 * len(keys) // 3)]}
    b = {key: random_scalar_field(chart, rng, allow_negative_powers=True) for key in keys[len(keys) // 3 :]}
    shared = [key for key in a if key in b]
    if shared:
        b[shared[0]] = cancel(a[shared[0]])
    return build(chart, a), build(chart, b)


class TestStreamedOperators:
    # pi_sharp, interior, + and - feed raw terms to the one constructor loop; each must
    # give the values and the key order of its written-out reference.
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_pi_sharp_matches_the_per_entry_generator(self, n, seed):
        chart = Chart(n)
        rng = seeded(seed)
        pi = Bivector.from_upper(chart, _random_coefficients(chart, 2, rng))
        assert any(value.variables for _, value in pi.terms())
        for _ in range(3):
            alpha = Form(chart, 1, _random_coefficients(chart, 1, rng, count=rng.randint(1, chart.dim)))
            raised, expected = pi_sharp(pi, alpha), _generator_pi_sharp(pi, alpha)
            assert raised == expected
            assert list(raised.coeffs) == list(expected.coeffs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_pairing_is_the_sum_of_products(self, n, seed):
        chart = Chart(n)
        rng = seeded(seed)
        for _ in range(3):
            alpha = Form(chart, 1, _random_coefficients(chart, 1, rng, count=rng.randint(1, chart.dim)))
            vector = random_vector_field(chart, rng)
            assert interior(vector, alpha).as_scalar() == _sum_pairing(alpha, vector)
        # products that cancel pair to zero
        alpha = Form(chart, 1, {(0,): chart.q(1), (chart.dim - 1,): chart.one()})
        vector = VectorField(chart, {0: chart.one(), chart.dim - 1: -chart.q(1)})
        assert interior(vector, alpha).as_scalar().is_zero_tree and _sum_pairing(alpha, vector).is_zero_tree

    @pytest.mark.parametrize(
        "name, n", [(name, n) for name in sorted(_SPARSE_TYPES) for n in (1, 2, 3) if (name, n) != ("form-3", 1)]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_sum_and_difference_are_coefficient_wise_merges(self, name, n, seed):
        chart = Chart(n)
        for op, lone, cancel in ((operator.add, lambda v: v, operator.neg), (operator.sub, operator.neg, lambda v: v)):
            a, b = _operand_pair(name, chart, seeded(seed), cancel)
            result, expected = op(a, b), _merged_coeffs(a, b, op, lone)
            assert len(expected) < len(a.coeffs.keys() | b.coeffs.keys())  # the cancelling key is dropped
            assert type(result) is type(a)
            assert result.coeffs == expected
            assert list(result.coeffs) == list(expected)

    def test_tensor_types_are_unhashable(self, chart2):
        for value in (dq(chart2, 1), VectorField.basis(chart2, 0), Tensor11.identity(chart2), canonical_poisson(chart2)):
            with pytest.raises(TypeError):
                hash(value)


class TestSparseStorage:
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_views_rebuild_the_same_value(self, chart2, seed):
        rng = seeded(seed)
        v, t = random_vector_field(chart2, rng), random_tensor(chart2, rng)
        assert isinstance(v.components, tuple) and len(v.components) == chart2.dim
        assert isinstance(t.entries, tuple) and all(isinstance(row, tuple) for row in t.entries)
        assert VectorField(chart2, v.components) == v
        assert Tensor11(chart2, t.entries) == t

    @pytest.mark.parametrize("seed", range(6))
    def test_bivector_keys_follow_the_degree_two_rule(self, chart2, seed):
        upper = random_form(chart2, 2, seeded(seed), max_terms=4).coeffs
        pi = Bivector.from_upper(chart2, upper)
        assert isinstance(pi.entries, tuple) and all(isinstance(row, tuple) for row in pi.entries)
        assert Bivector(chart2, pi.entries) == pi
        assert Bivector(chart2, {(j, i): -value for (i, j), value in upper.items()}) == pi
        assert all(i < j for i, j in pi.coeffs)
        for i in range(chart2.dim):
            for j in range(chart2.dim):
                assert pi.entry(j, i) == -pi.entry(i, j)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_stored_value_is_zero(self, chart2, seed):
        rng = seeded(seed)
        x, y, t = random_vector_field(chart2, rng), random_vector_field(chart2, rng), random_tensor(chart2, rng)
        pi = Bivector.from_upper(chart2, random_form(chart2, 2, rng).coeffs)
        values = [x, y, t, pi, x + y, t @ t, t.apply(x), lie_bracket(x, y), lie_derivative(x, t)]
        values.append(pi_sharp(pi, random_form(chart2, 1, rng)))
        values.append(pi_sharp_omega_flat(pi, random_form(chart2, 2, rng)))
        for value in values:
            assert not any(c.is_zero_tree for c in _stored_values(value))
        assert (x - x).coeffs == {} and (t - t).coeffs == {} and (pi - pi).coeffs == {}
        assert VectorField(chart2, [chart2.q(1), 0, 0, 0]).coeffs == {0: chart2.q(1)}

    def test_raw_terms_are_summed(self, chart2):
        q1 = chart2.q(1)
        assert VectorField(chart2, iter([(0, q1), (0, -q1), (2, 1)])) == VectorField.basis(chart2, 2)
        assert Tensor11(chart2, iter([((0, 1), q1), ((0, 1), q1)])) == Tensor11(chart2, {(0, 1): 2 * q1})
        assert Bivector(chart2, iter([((0, 1), q1), ((1, 0), q1), ((2, 2), 1)])).is_zero


class TestAccessorKeys:
    """Each read accessor refuses the keys its constructor refuses, instead of reading them as zero."""

    def test_tensor_entry_out_of_range(self, chart2):
        t = Tensor11.identity(chart2)
        assert t.entry(3, 3) == 1 and t.entry(0, 3) == 0
        for i, j in [(4, 0), (-1, 0), (0, 4)]:
            with pytest.raises(ChartMismatchError):
                t.entry(i, j)

    def test_bivector_entry_out_of_range(self, chart2):
        pi = canonical_poisson(chart2)
        assert pi.entry(0, 2) == -pi.entry(2, 0) and pi.entry(1, 1) == 0
        for i, j in [(0, 9), (9, 0), (-1, 2)]:
            with pytest.raises(ChartMismatchError):
                pi.entry(i, j)

    def test_vector_component_out_of_range(self, chart2):
        v = VectorField.basis(chart2, 3)
        assert v.component(3) == 1 and v.component(0) == 0
        for index in (4, -1):
            with pytest.raises(ChartMismatchError):
                v.component(index)

    def test_form_coefficient_out_of_range(self, chart2):
        a = Form(chart2, 2, {(2, 0): 1})
        assert a.coefficient(0, 2) == -1 and a.coefficient(1, 1) == 0
        with pytest.raises(ChartMismatchError):
            a.coefficient(0, 7)

    def test_form_coefficient_of_the_wrong_arity(self, chart2):
        a = Form(chart2, 2, {(0, 1): 1})
        for indices in [(0,), (0, 1, 2)]:
            with pytest.raises(DegreeError):
                a.coefficient(*indices)


class TestFormStorage:
    def test_sign_sorting_and_pruning(self, chart2):
        a = Form(chart2, 2, {(2, 0): 1})
        assert a.coefficient(0, 2) == -1
        assert a.coefficient(2, 0) == 1
        zero = Form(chart2, 2, {(0, 1): chart2.q(1) - chart2.q(1)})
        assert zero.is_zero

    def test_repeated_indices_vanish(self, chart2):
        assert Form(chart2, 2, {(1, 1): 5}).is_zero

    def test_raw_terms_are_sign_sorted_and_summed(self, chart2):
        f, g, h = chart2.q(1), chart2.p(2), chart2.q(2) * chart2.p(1)
        raw = [((1, 0), f), ((0, 1), g), ((0, 0), h), ((2, 1), 0)]
        assert Form(chart2, 2, raw) == Form(chart2, 2, {(0, 1): g - f})
        assert Form(chart2, 2, iter(raw)) == Form(chart2, 2, {(0, 1): g - f})
        assert Form(chart2, 1, [((0,), f), ((0,), -f)]).is_zero

    def test_bad_index_in_raw_terms_rejected(self, chart2):
        with pytest.raises(ChartMismatchError):
            Form(chart2, 2, (((i, 4), 1) for i in range(2)))

    def test_degree_mismatch_rejected(self, chart2):
        with pytest.raises(DegreeError):
            Form(chart2, 2, {(0,): 1})

    def test_addition_merges_and_prunes(self, chart2):
        a = Form(chart2, 1, {(0,): chart2.p(1)})
        b = Form(chart2, 1, {(0,): -chart2.p(1), (1,): 1})
        assert (a + b) == Form(chart2, 1, {(1,): 1})

    def test_apply_is_determinant_like(self, chart2):
        a = wedge(dq(chart2, 1), dp(chart2, 1))
        e_q1 = VectorField.basis(chart2, 0)
        e_p1 = VectorField.basis(chart2, 2)
        assert a.apply([e_q1, e_p1]) == 1
        assert a.apply([e_p1, e_q1]) == -1


class TestWedge:
    def test_square_of_one_form_vanishes(self, chart2):
        assert wedge(dq(chart2, 1), dq(chart2, 1)).is_zero

    def test_antisymmetry_of_coordinate_forms(self, chart2):
        assert wedge(dp(chart2, 1), dq(chart2, 1)) == -wedge(dq(chart2, 1), dp(chart2, 1))

    def test_degree_overflow_is_zero_form(self, chart2):
        a = random_form(chart2, 3, seeded(1))
        b = random_form(chart2, 2, seeded(2))
        out = wedge(a, b)
        assert out.degree == 5 and out.is_zero

    def test_single_particle_deformation_form(self):
        # n = 1: (1 - p_1) dp_1 ^ dq_1, assembled from the two displayed pieces.
        chart = Chart(1)
        omega = canonical_deformation_form(chart)
        assert omega == Form(chart, 2, {(1, 0): 1 - chart.p(1)})

    def test_graded_commutativity_and_associativity(self, chart3):
        rng = seeded(3)
        for _ in range(10):
            pa, pb, pc = rng.choice([(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 1)])
            a = random_form(chart3, pa, rng)
            b = random_form(chart3, pb, rng)
            c = random_form(chart3, pc, rng)
            sign = -1 if (pa * pb) % 2 else 1
            assert wedge(a, b) == sign * wedge(b, a)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_bilinearity(self, chart2):
        rng = seeded(4)
        a = random_form(chart2, 1, rng)
        b = random_form(chart2, 1, rng)
        c = random_form(chart2, 1, rng)
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


class TestInterior:
    def test_coordinate_contractions(self, chart2):
        a = wedge(dq(chart2, 1), dp(chart2, 1))
        assert interior(VectorField.basis(chart2, 0), a) == dp(chart2, 1)
        assert interior(VectorField.basis(chart2, 1), a).is_zero

    def test_degree_zero_rejected(self, chart2):
        with pytest.raises(DegreeError):
            interior(VectorField.basis(chart2, 0), Form.from_scalar(chart2.one()))

    def test_nilpotent(self, chart3):
        rng = seeded(5)
        x = random_vector_field(chart3, rng)
        a = random_form(chart3, 3, rng)
        assert interior(x, interior(x, a)).is_zero

    def test_graded_derivation_of_wedge(self, chart3):
        rng = seeded(6)
        for pa, pb in [(1, 1), (1, 2), (2, 1)]:
            x = random_vector_field(chart3, rng)
            a = random_form(chart3, pa, rng)
            b = random_form(chart3, pb, rng)
            lhs = interior(x, wedge(a, b))
            sign = -1 if pa % 2 else 1
            rhs = wedge(interior(x, a), b) + sign * wedge(a, interior(x, b))
            assert lhs == rhs

    def test_pair_contraction_of_closed_chain_form(self):
        # Contract the wrap-around 3-form twice: first with the first
        # coordinate direction, then the last; what is left is twice the
        # exponential edge weight times the sum of momentum differentials.
        chart = Chart(3)
        bundle = closed_toda(3)
        phi = bundle.expected.phi_closed_form
        x = VectorField.basis(chart, chart.q_index(1))
        y = VectorField.basis(chart, chart.q_index(3))
        expected = (dp(chart, 1) + dp(chart, 2) + dp(chart, 3)) * (2 * exp(chart.q(3) - chart.q(1)))
        assert interior(y, interior(x, phi)) == expected


class TestTensorInterior:
    def test_identity_scales_by_degree(self, chart2):
        rng = seeded(7)
        ident = Tensor11.identity(chart2)
        for degree in (1, 2, 3):
            a = random_form(chart2, degree, rng)
            assert tensor_interior(ident, a) == degree * a

    def test_momentum_tensor_on_coordinate_forms(self, chart2):
        nc = canonical_nijenhuis(chart2)
        assert tensor_interior(nc, dq(chart2, 1)) == Form(chart2, 1, {(0,): chart2.p(1)})
        a = wedge(dq(chart2, 1), dp(chart2, 1))
        assert tensor_interior(nc, a) == (2 * chart2.p(1)) * a

    def test_zero_on_functions(self, chart2):
        assert tensor_interior(Tensor11.identity(chart2), Form.from_scalar(chart2.p(1))).is_zero

    def test_degree_zero_derivation_of_wedge(self, chart2):
        rng = seeded(8)
        for pa, pb in [(1, 1), (1, 2)]:
            n = random_tensor(chart2, rng)
            a = random_form(chart2, pa, rng)
            b = random_form(chart2, pb, rng)
            lhs = tensor_interior(n, wedge(a, b))
            rhs = wedge(tensor_interior(n, a), b) + wedge(a, tensor_interior(n, b))
            assert lhs == rhs


class TestMusicalMaps:
    def test_canonical_raising(self, chart2):
        pi = canonical_poisson(chart2)
        assert pi_sharp(pi, dp(chart2, 1)) == VectorField.basis(chart2, 0)
        assert pi_sharp(pi, dq(chart2, 1)) == -VectorField.basis(chart2, 2)

    def test_function_linearity(self, chart2):
        pi = canonical_poisson(chart2)
        f = chart2.q(2) * chart2.p(1)
        assert pi_sharp(pi, f * dq(chart2, 1)) == -(VectorField.basis(chart2, 2) * f)

    def test_pairing_antisymmetry(self, chart2):
        pi = canonical_poisson(chart2)
        rng = seeded(9)
        for _ in range(10):
            alpha = random_form(chart2, 1, rng)
            beta = random_form(chart2, 1, rng)
            total = (interior(pi_sharp(pi, alpha), beta) + interior(pi_sharp(pi, beta), alpha)).as_scalar()
            assert total.is_zero_tree or total.is_zero(None).is_zero

    def test_sharp_matrix_matches_displayed_fixture(self):
        fixture = two_particle_fixture()
        chart = fixture.chart
        columns = [pi_sharp(canonical_poisson(chart), dx(chart, j)).components for j in range(chart.dim)]
        assert tuple(zip(*columns)) == fixture.pi_sharp_matrix

    def test_momentum_tensor_matches_displayed_fixture(self):
        fixture = two_particle_fixture()
        assert canonical_nijenhuis(fixture.chart).entries == fixture.n_matrix

    def test_omega_flat(self, chart2):
        omega_c = canonical_symplectic(chart2)
        assert interior(VectorField.basis(chart2, 0), omega_c) == -dp(chart2, 1)
        omega = canonical_deformation_form(chart2)
        for i in (1, 2):
            expected = -(1 - chart2.p(i)) * dp(chart2, i)
            assert interior(VectorField.basis(chart2, chart2.q_index(i)), omega) == expected
        assert interior(VectorField.zero(chart2), omega).is_zero

    def test_raising_composed_with_lowering(self, chart2):
        # the symplectic lowering map composed with the canonical raising map
        # is minus the identity, and the momentum-weighted one gives minus the
        # momentum tensor
        pi = canonical_poisson(chart2)
        from pqncheck.models import momentum_symplectic

        assert pi_sharp_omega_flat(pi, canonical_symplectic(chart2)) == -Tensor11.identity(chart2)
        assert pi_sharp_omega_flat(pi, momentum_symplectic(chart2)) == -canonical_nijenhuis(chart2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_product_form_matches_columnwise_definition(self, n, seed):
        chart = Chart(n)
        rng = seeded(seed)
        pi = Bivector.from_upper(chart, _random_coefficients(chart, 2, rng))
        omega = Form(chart, 2, _random_coefficients(chart, 2, rng))
        assert any(value.variables for _, value in pi.terms())
        assert n == 1 or not check_poisson(pi).overall  # every bivector on a plane is Poisson
        assert pi_sharp_omega_flat(pi, omega) == _columnwise_pi_sharp_omega_flat(pi, omega)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_contraction_is_a_column_of_the_product(self, n, seed):
        # pi#(i_{e_j ^ e_k} phi) is column k of pi# o (i_{e_j} phi)_flat, as check_pqn reads it.
        chart = Chart(n)
        rng = seeded(seed)
        pi = Bivector.from_upper(chart, _random_coefficients(chart, 2, rng))
        phi = Form(chart, 3, _random_coefficients(chart, 3, rng))
        basis = [VectorField.basis(chart, j) for j in range(chart.dim)]
        for j, e_j in enumerate(basis):
            raised = pi_sharp_omega_flat(pi, interior(e_j, phi))
            for k, e_k in enumerate(basis):
                assert raised.columns()[k] == pi_sharp(pi, interior(e_k, interior(e_j, phi)))

    @pytest.mark.parametrize("degree", [1, 3])
    def test_product_form_requires_two_form(self, chart2, degree):
        with pytest.raises(DegreeError, match="requires a 2-form"):
            pi_sharp_omega_flat(canonical_poisson(chart2), random_form(chart2, degree, seeded(degree)))


class TestLieOperations:
    def test_coordinate_fields_commute(self, chart2):
        x = VectorField.basis(chart2, 0)
        y = VectorField.basis(chart2, 1)
        assert lie_bracket(x, y).is_zero

    def test_component_formula(self, chart2):
        x = VectorField.basis(chart2, 0)
        y = VectorField(chart2, [0, 0, chart2.q(1), 0])
        assert lie_bracket(x, y) == VectorField.basis(chart2, 2)

    def test_bracket_with_self_vanishes(self, chart2):
        x = random_vector_field(chart2, seeded(10))
        assert lie_bracket(x, x).is_zero

    def test_antisymmetry_and_jacobi(self, chart2):
        rng = seeded(14)
        x = random_vector_field(chart2, rng)
        y = random_vector_field(chart2, rng)
        z = random_vector_field(chart2, rng)
        assert lie_bracket(x, y) == -lie_bracket(y, x)
        jac = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert jac.is_zero

    def test_lie_derivative_on_forms(self, chart2):
        assert lie_derivative(VectorField.basis(chart2, 0), dq(chart2, 1)).is_zero
        x = VectorField(chart2, [chart2.p(1), 0, 0, 0])
        assert lie_derivative(x, dq(chart2, 1)) == dp(chart2, 1)

    def test_lie_derivative_on_scalars(self, chart2):
        x = VectorField(chart2, [chart2.p(1), 0, 0, 0])
        assert lie_derivative(x, chart2.q(1) ** 2) == 2 * chart2.q(1) * chart2.p(1)
        as_form = lie_derivative(x, Form.from_scalar(chart2.q(1) ** 2))
        assert as_form == Form.from_scalar(2 * chart2.q(1) * chart2.p(1))

    def test_directional_derivative_across_charts_rejected(self):
        x, f = VectorField.basis(Chart(1), 0), Chart(2).p(2)
        with pytest.raises(ChartMismatchError):
            x(f)
        with pytest.raises(ChartMismatchError):
            lie_derivative(x, f)

    def test_lie_derivative_of_identity_vanishes(self, chart2):
        x = random_vector_field(chart2, seeded(15))
        assert lie_derivative(x, Tensor11.identity(chart2)) == Tensor11.zero(chart2)

    def test_lie_derivative_of_tensor_is_tensorial_in_lower_slot(self, chart2):
        rng = seeded(16)
        random_x = random_vector_field(chart2, rng)
        n = random_tensor(chart2, rng)
        y = random_vector_field(chart2, rng)
        # A basis field has constant components: its Jacobian is empty, and L_X N is X(N) alone.
        for x in (random_x, VectorField.basis(chart2, 2)):
            derived = lie_derivative(x, n)
            direct = lie_bracket(x, n.apply(y)) - n.apply(lie_bracket(x, y))
            assert derived.apply(y) == direct


class TestBivectorValidation:
    def test_antisymmetry_enforced(self, chart2):
        with pytest.raises(ValueError):
            Bivector(chart2, [[0] * 4, [0] * 4, [1, 0, 0, 0], [0] * 4])

    def test_cross_chart_rejected(self, chart2, chart3):
        with pytest.raises(ChartMismatchError):
            wedge(dq(chart2, 1), dq(chart3, 1))

    def test_tensor_algebra(self, chart2):
        nc = canonical_nijenhuis(chart2)
        assert (nc @ nc).trace() == 2 * (chart2.p(1) ** 2 + chart2.p(2) ** 2)
        assert (nc @ Tensor11.identity(chart2)) == nc
        assert nc.columns()[0] == VectorField(chart2, [chart2.p(1), 0, 0, 0])
