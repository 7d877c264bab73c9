from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import shlex

import pytest

from pqncheck.cli import main
from pqncheck.models import canonical_nijenhuis, canonical_poisson
from pqncheck.scalar import Chart, ScalarField

#: The float sampler's separation guard for inverse-power potentials: a wider guard keeps
#: sample points off the collision locus.  Only ``sample_points`` reads it.
CALOGERO_SEPARATION = 5e-2


def fd_partial(field: ScalarField, point, index: int, h: float = 1e-5) -> float:
    """Central finite difference, the derivative oracle independent of the symbolic path."""
    up = list(point)
    dn = list(point)
    up[index] += h
    dn[index] -= h
    return (field.evaluate(up) - field.evaluate(dn)) / (2 * h)


def lagrange_identity(chart: Chart) -> ScalarField:
    """sum_i prod_{j != i} 1/(q_i - q_j): zero for n >= 2, but not in canonical form."""
    q = [chart.q(i) for i in range(1, chart.n + 1)]
    total = chart.zero()
    for i, qi in enumerate(q):
        term = chart.one()
        for j, qj in enumerate(q):
            if j != i:
                term = term / (qi - qj)
        total = total + term
    return total


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str) -> dict:
    """Parse a report, rejecting the NaN and Infinity that json.dumps writes by default."""
    return json.loads(text, parse_constant=_reject_constant)


@functools.cache
def cli_report(args: str) -> tuple[int, str]:
    """Exit code and stdout of ``pqncheck <args>``, run in process once per session however many tests read it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(args))
    return code, out.getvalue()


def seeded(seed: int = 20240) -> random.Random:
    return random.Random(seed)


@pytest.fixture(scope="session")
def chart2() -> Chart:
    return Chart(2)


@pytest.fixture(scope="session")
def chart3() -> Chart:
    return Chart(3)


@pytest.fixture(scope="session")
def canonical2(chart2):
    return canonical_poisson(chart2), canonical_nijenhuis(chart2)


@pytest.fixture(scope="session")
def canonical3(chart3):
    return canonical_poisson(chart3), canonical_nijenhuis(chart3)
