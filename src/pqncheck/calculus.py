"""Differential-graded operators on forms.

Implements the Cartan differential, the Nijenhuis torsion of a (1,1)
tensor, the Poisson bracket on functions, and two derived differentials
built by one commutator with d: d_N = [i_N, d] for a (1,1) tensor and
d_pi = [i_pi, d] for a bivector.  The Koszul bracket on forms of
every degree is the derived bracket of d_pi.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .errors import ChartMismatchError, DegreeError
from .exterior import (
    Bivector,
    Form,
    Tensor11,
    interior,
    pi_sharp,
    tensor_interior,
    wedge,
)
from .scalar import ScalarField


def differential(field: ScalarField) -> Form:
    """The 1-form df, as d of the 0-form f."""
    return cartan_d(Form.from_scalar(field))


def cartan_d(form: Form) -> Form:
    """Exterior derivative: d(f dx_I) = sum_i (d_i f) dx_i ^ dx_I.  Satisfies d o d = 0."""

    def terms():
        for key, coeff in form.terms():
            # d_i f is zero along every coordinate f does not mention
            for i in coeff.variables:
                if i not in key:
                    yield (i,) + key, coeff.partial(i)

    return Form(form.chart, form.degree + 1, terms())


def nijenhuis_d(tensor: Tensor11, form: Form) -> Form:
    """The degree-one differential attached to a (1,1) tensor.

    Computed as i_N o d - d o i_N, which agrees with the intrinsic definition
    and reduces to the transpose action on functions: on a 0-form f it gives
    the 1-form df o N.  It anticommutes with d, and squares to zero exactly
    when the torsion of the tensor vanishes.
    """
    if tensor.chart != form.chart:
        raise ChartMismatchError("differential across charts")
    return _derived_differential(partial(tensor_interior, tensor), form)


def _derived_differential(contract: Callable[[Form], Form], form: Form) -> Form:
    """The commutator [i_X, d] = i_X o d - d o i_X of a contraction with d."""
    return contract(cartan_d(form)) - cartan_d(contract(form))


def nijenhuis_torsion(tensor: Tensor11) -> list[Form]:
    """Torsion T(X,Y) = [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y]), as its component 2-forms T^i(X, Y) = T(X, Y)^i.

    In components T^i_{jk} = N^l_j d_l N^i_k - N^l_k d_l N^i_j - N^i_l (d_j N^l_k - d_k N^l_j).
    So T^i = sum_{j,k} (N^l_j d_l N^i_k - (N d_j N)^i_k) dx_j ^ dx_k, antisymmetrized by the 2-form
    storage: the raw terms of both products, from the tensor's kept ``partials`` d_l N, go straight
    into the term list of T^i, and no tensor of the bracketed sum is built.
    """
    chart, dn = tensor.chart, tensor.partials()
    terms: list[list] = [[] for _ in range(chart.dim)]
    for (l, j), v in tensor.terms():
        for (i, k), value in dn[l].terms():
            terms[i].append(((j, k), v * value))
    for j, dn_j in enumerate(dn):
        for (i, k), value in (tensor @ dn_j).terms():
            terms[i].append(((j, k), -value))
    return [Form(chart, 2, component) for component in terms]


def poisson_bracket(pi: Bivector, f: ScalarField | Form, g: ScalarField | Form) -> ScalarField:
    """{f, g} = pi(df, dg) = <dg, pi_sharp df>: df raised by pi, then contracted into dg.

    Either argument may be given by its differential, a 1-form, so a caller
    that brackets each of several functions with many others takes each
    function's partials once.
    """
    df, dg = (h if isinstance(h, Form) else differential(h) for h in (f, g))
    if pi.chart != df.chart or pi.chart != dg.chart:
        raise ChartMismatchError("bracket across charts")
    if df.degree != 1 or dg.degree != 1:
        raise DegreeError("the Poisson bracket takes functions or their differentials")
    return interior(pi_sharp(pi, df), dg).as_scalar()


# ---------------------------------------------------------------------------
# Koszul bracket: the derived bracket of d_pi = [i_pi, d], where
# i_pi a = sum_{i<j} pi^{ij} i_{d_j} i_{d_i} a, is
#
#     [a, b] = (-1)^|a| (d_pi(a ^ b) - d_pi a ^ b - (-1)^|a| a ^ d_pi b),
#
# which on 1-forms is L_{pi# a} b - L_{pi# b} a - d<b, pi# a>.  With a 0-form f
# and any form c it is one interior product, far cheaper than expanding d_pi on a
# wedge:  [f, c] = i_{pi# df} c  and  [c, f] = (-1)^|c| i_{pi# df} c, with df the
# Cartan d of the 0-form itself.  Two 0-forms bracket to the zero 0-form.
# ---------------------------------------------------------------------------


def _pi_interior(pi: Bivector, form: Form) -> Form:
    """i_pi a = sum_{i<j} pi^{ij} i_{d_j} i_{d_i} a; lowers the degree by two."""

    def terms():
        for key, coeff in form.terms():
            for t in range(1, len(key)):
                for s in range(t):
                    entry = pi.coeffs.get((key[s], key[t]))
                    if entry is not None:
                        value = coeff * entry
                        yield key[:s] + key[s + 1 : t] + key[t + 1 :], value if (s + t) % 2 else -value

    return Form(form.chart, form.degree - 2, terms())


def _koszul_differential(pi: Bivector, form: Form) -> Form:
    """d_pi = [i_pi, d]; i_pi of a 1-form is zero of degree -1, leaving i_pi o d."""
    contract = partial(_pi_interior, pi)
    return contract(cartan_d(form)) if form.degree < 2 else _derived_differential(contract, form)


def koszul_bracket(pi: Bivector, a: Form, b: Form) -> Form:
    """Koszul bracket of two forms; the result has degree deg a + deg b - 1.

    For two 0-forms the degree would be negative and the zero 0-form is
    returned.
    """
    if pi.chart != a.chart or pi.chart != b.chart:
        raise ChartMismatchError("bracket across charts")
    if a.degree == 0 and b.degree == 0:
        return Form.zero(pi.chart, 0)
    if a.degree == 0 or b.degree == 0:
        f, c = (a, b) if a.degree == 0 else (b, a)
        out = interior(pi_sharp(pi, cartan_d(f)), c)
        return -out if f is b and a.degree % 2 else out
    whole = _koszul_differential(pi, wedge(a, b))
    left = wedge(_koszul_differential(pi, a), b)
    right = wedge(a, _koszul_differential(pi, b))
    # the sign (-1)^|a| grouped so that one form is negated
    return left - (whole + right) if a.degree % 2 else whole - (left + right)
