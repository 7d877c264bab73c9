"""The value contract of the package's immutable records, and copy and pickle of every value type."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from pqncheck.calculus import nijenhuis_torsion
from pqncheck.exterior import VectorField
from pqncheck.models import ExpectedOutcome, calogero, canonical_nijenhuis, closed_toda, two_particle_fixture
from pqncheck.scalar import Chart, Const, Coord, Exp, Point, Power, Product, Sum, ZeroTestConfig, is_zero
from pqncheck.structures import AxiomCheck, check_pqn, deform, involutivity_matrix, trace_invariants


@pytest.fixture(scope="module")
def values() -> dict:
    """One value of each value class, keyed by class name."""
    toda = closed_toda(2)
    chart = toda.chart
    inverse_square = calogero(2).tensor.entry(2, 0)  # holds a negative power of a sum
    inverse_square.evaluate((0.5, -1.0, 2.0, 0.25))  # fills the compiled-function cache
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
        "ZeroVerdict": is_zero(chart.q(1), ZeroTestConfig(sample_count=3)),
        "ScalarField": inverse_square,
        "Form": toda.omega,
        "VectorField": VectorField.basis(chart, 1),
        "Tensor11": toda.tensor,
        "Bivector": toda.poisson,
        "Torsion12": nijenhuis_torsion(toda.tensor),
        "ModelBundle": toda,
        "ExpectedOutcome": toda.expected,
        "TwoParticleFixture": two_particle_fixture(),
        "GeometricStructure": toda.structure(),
        "CheckReport": check_pqn(toda.structure()),
        "DeformResult": deform(toda.poisson, canonical_nijenhuis(chart), toda.omega),
        "InvolutivityMatrix": involutivity_matrix(toda.poisson, trace_invariants(toda.tensor, 2)),
    }
    sample["AxiomCheck"] = AxiomCheck("jacobi-identity", True, "sampled", 1e-12, sample["Point"], 3, "zero")
    return sample


CLASSES = [
    "Chart", "Point", "Const", "Coord", "Sum", "Product", "Power", "Exp", "ZeroTestConfig", "ZeroVerdict",
    "ScalarField", "Form", "VectorField", "Tensor11", "Bivector", "Torsion12", "ModelBundle", "ExpectedOutcome",
    "TwoParticleFixture", "GeometricStructure", "CheckReport", "DeformResult", "InvolutivityMatrix", "AxiomCheck",
]


@pytest.mark.parametrize("name", CLASSES)
def test_copy_and_pickle_round_trip(values, name):
    value = values[name]
    assert type(value).__name__ == name
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value


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


def test_replace_validates_again():
    with pytest.raises(ValueError, match="tolerance"):
        ZeroTestConfig().replace(tolerance=float("nan"))
    with pytest.raises(TypeError):
        ZeroTestConfig().replace(tolerances=1e-3)
    assert ZeroTestConfig().replace(seed=3) == ZeroTestConfig(seed=3)


def test_axiom_check_replace_keeps_other_fields():
    cell = AxiomCheck("a", True, "sampled", 0.5, Point((1.0, 2.0)), 40, "zero")
    changed = cell.replace(axiom="b", passed=False)
    assert changed == AxiomCheck("b", False, "sampled", 0.5, Point((1.0, 2.0)), 40, "zero")


def test_zero_test_config_as_dict_in_field_order():
    assert list(ZeroTestConfig().as_dict().items()) == [
        ("sample_count", 50),
        ("box_halfwidth", 2.0),
        ("separation", 1e-2),
        ("tolerance", 1e-9),
        ("seed", 7),
    ]


def test_structure_class_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        ExpectedOutcome(structure_class="PN")
