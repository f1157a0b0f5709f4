import pytest
from hypothesis import settings

from dgglue.fields import QQ, PrimeField
from dgglue.linalg import Matrix
from dgglue.complexes import Complex
from dgglue.dgcat import Bimodule, DgFunctor, algebra_category, \
    directed_assemble, field_category, identity_functor
from dgglue.hypercube import DgCube


F7 = PrimeField(7)

# Property tests draw the same examples on every run, and are not timed out:
# a tier-1 run is reproducible and does not depend on machine speed.
settings.register_profile("dgglue", derandomize=True, deadline=None)
settings.load_profile("dgglue")


@pytest.fixture(params=["Q", "F7"])
def field(request):
    return QQ if request.param == "Q" else F7


def dual_numbers_category(field):
    def mult(i, j):
        if i == 0 and j == 0:
            return (field.one, field.zero)
        if (i, j) in ((0, 1), (1, 0)):
            return (field.zero, field.one)
        return (field.zero, field.zero)
    return algebra_category(field, 2, mult, (field.one, field.zero))


def a2_category(field):
    """The path category of the two-vertex quiver with one arrow."""
    k0 = field_category(field, obj="x")
    k1 = field_category(field, obj="y")
    vals = {("x", "y"): Complex(field, {0: 1}, {})}

    def lact(b, a1, a2, i, j):
        return Matrix.identity(field, 1)

    def ract(b2, b1, a, i, j):
        return Matrix.identity(field, 1)

    phi = Bimodule(k0, k1, vals, lact, ract)
    return directed_assemble([k0, k1], {(1, 0): phi})


def unit_inclusion_cube(field):
    """The 1-cube k -> k[e]/e^2 along the unit; the standard negative witness."""
    k = field_category(field)
    dual = dual_numbers_category(field)
    unit = DgFunctor(k, dual, {"*": "*"},
                     {("*", "*"): {0: Matrix.from_rows(field, [[1], [0]])}})
    return DgCube(field, 1, {frozenset(): k, frozenset({0}): dual},
                  {(frozenset(), 0): unit})


def collapse_square(field):
    """A never-acyclic square: unit inclusions against the collapsing endo."""
    k = field_category(field)
    dual = dual_numbers_category(field)
    unit = DgFunctor(k, dual, {"*": "*"},
                     {("*", "*"): {0: Matrix.from_rows(field, [[1], [0]])}})
    collapse = DgFunctor(dual, dual, {"*": "*"},
                         {("*", "*"): {0: Matrix.from_rows(field,
                                                           [[1, 0], [0, 0]])}})
    idk = identity_functor(k)
    return DgCube(field, 2,
                  {frozenset(): k, frozenset({0}): dual,
                   frozenset({1}): k, frozenset({0, 1}): dual},
                  {(frozenset(), 0): unit, (frozenset(), 1): idk,
                   (frozenset({0}), 1): collapse, (frozenset({1}), 0): unit})
