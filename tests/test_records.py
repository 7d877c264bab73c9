"""The value contract of the package's immutable records, and copy and pickle of every value type."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from pqncheck.exterior import Bivector, Form, Tensor11, VectorField, _musical_matrix
from pqncheck.models import ExpectedOutcome, calogero, canonical_nijenhuis, closed_toda
from pqncheck.scalar import Chart, Const, Coord, Exp, Point, Power, Product, Sum, ZeroTestConfig
from pqncheck.structures import AxiomCheck, check_pqn, deform, involutivity_matrix, trace_invariants


@pytest.fixture(scope="module")
def values() -> dict:
    """One value of each value class, keyed by class name."""
    toda = closed_toda(2)
    chart = toda.chart
    inverse_square = calogero(2).tensor.entry(2, 0)  # holds a negative power of a sum
    inverse_square.evaluate((0.5, -1.0, 2.0, 0.25))  # fills the cached canonical tree it walks
    x, y = Coord(0), Coord(1)
    sample = {
        "Chart": chart,
        "Point": Point((0.5, -1.0, 2.0, 0.25)),
        "Const": Const(Fraction(3, 4)),
        "Coord": x,
        "Sum": Sum((x, y)),
        "Product": Product((Const(2), x, y)),
        "Power": Power(Sum((x, Const(-1))), -2),
        "Exp": Exp(Sum((x, Product((Const(-1), y))))),
        "ZeroTestConfig": ZeroTestConfig(sample_count=3),
        "ScalarField": inverse_square,
        "Form": toda.omega,
        "VectorField": VectorField.basis(chart, 1),
        "Tensor11": toda.tensor,
        "Bivector": toda.poisson,
        "ModelBundle": toda,
        "ExpectedOutcome": toda.expected,
        "GeometricStructure": toda.structure(),
        "CheckReport": check_pqn(toda.structure()),
        "DeformResult": deform(toda.poisson, canonical_nijenhuis(chart), toda.omega),
        "InvolutivityMatrix": involutivity_matrix(toda.poisson, trace_invariants(toda.tensor, 2)),
    }
    sample["AxiomCheck"] = AxiomCheck("jacobi-identity", True, "sampled", 1e-12, sample["Point"], 3, "zero")
    return sample


CLASSES = [
    "Chart", "Point", "Const", "Coord", "Sum", "Product", "Power", "Exp", "ZeroTestConfig",
    "ScalarField", "Form", "VectorField", "Tensor11", "Bivector", "ModelBundle", "ExpectedOutcome",
    "GeometricStructure", "CheckReport", "DeformResult", "InvolutivityMatrix", "AxiomCheck",
]


@pytest.mark.parametrize("name", CLASSES)
def test_copy_and_pickle_round_trip(values, name):
    value = values[name]
    assert type(value).__name__ == name
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value


# A tensor keeps its partials d_l N, a bivector or 2-form its musical matrix: built on first use, not fields.
KEPT = {
    "Tensor11": (lambda toda: Tensor11(toda.chart, toda.tensor.coeffs), lambda tensor: tensor.partials(), "_partials"),
    "Bivector": (lambda toda: Bivector(toda.chart, toda.poisson.coeffs), _musical_matrix, "_musical"),
    "Form": (lambda toda: Form(toda.chart, 2, toda.omega.coeffs), _musical_matrix, "_musical"),
}


@pytest.mark.parametrize("name", KEPT)
def test_kept_derived_value_leaves_equality_copy_and_pickle_alone(name):
    make, build, slot = KEPT[name]
    toda = closed_toda(2)
    fresh, built = make(toda), make(toda)
    build(built)
    assert getattr(fresh, slot, None) is None and getattr(built, slot) is not None
    assert built == fresh and fresh == built
    assert repr(built) == repr(fresh)
    assert pickle.dumps(built) == pickle.dumps(fresh)
    for twin in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), copy.copy(built)):
        assert type(twin) is type(fresh)
        assert twin == fresh
        assert getattr(twin, slot, None) is None


def test_unpickled_field_evaluates_like_the_original(values):
    field = values["ScalarField"]
    twin = pickle.loads(pickle.dumps(field))
    point = (0.25, 1.5, -0.5, 2.0)
    assert twin.evaluate(point) == field.evaluate(point)
    assert twin.to_prefix() == field.to_prefix()


def test_chart_compares_hashes_and_prints_by_value():
    assert Chart(3) == Chart(3)
    assert hash(Chart(3)) == hash(Chart(3))
    assert Chart(3) != Chart(2)
    assert repr(Chart(3)) == "Chart(n=3)"


def test_nodes_of_different_classes_differ():
    a, b = Coord(0), Coord(1)
    assert Coord(0) != Const(0)
    assert Sum((a, b)) != Product((a, b))
    assert Sum((a, b)) == Sum([a, b])
    assert repr(Sum((a, Const(Fraction(1, 2))))) == "(+ x1 1/2)"


@pytest.mark.parametrize(
    "name, field", [("Chart", "n"), ("Coord", "index"), ("AxiomCheck", "passed"), ("ZeroTestConfig", "seed")]
)
def test_records_refuse_assignment(values, name, field):
    with pytest.raises(AttributeError):
        setattr(values[name], field, 1)
    with pytest.raises(AttributeError):
        delattr(values[name], field)


@pytest.mark.parametrize("name", [name for name in CLASSES if name != "ScalarField"])
def test_replace_with_no_change_is_equal(values, name):
    value = values[name]
    assert value.replace() == value


def test_replace_validates_again():
    with pytest.raises(ValueError, match="sample_count"):
        ZeroTestConfig().replace(sample_count=0)
    with pytest.raises(TypeError):
        ZeroTestConfig().replace(tolerance=1e-3)
    assert ZeroTestConfig().replace(seed=3) == ZeroTestConfig(seed=3)


def test_axiom_check_replace_keeps_other_fields():
    cell = AxiomCheck("a", True, "sampled", 0.5, Point((1.0, 2.0)), 40, "zero")
    changed = cell.replace(axiom="b", passed=False)
    assert changed == AxiomCheck("b", False, "sampled", 0.5, Point((1.0, 2.0)), 40, "zero")


def test_zero_test_config_as_dict_in_field_order():
    assert list(ZeroTestConfig().as_dict().items()) == [("sample_count", 50), ("seed", 7)]


def test_structure_class_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        ExpectedOutcome(structure_class="PN")
