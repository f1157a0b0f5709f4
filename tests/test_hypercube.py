import pytest

from dgglue.fields import QQ
from dgglue.linalg import Matrix
from dgglue.complexes import GradedMap, cone, one_dim_complex
from dgglue.glue import decide_cube
from dgglue.hypercube import (ComplexCube, CubeError, as_morphism,
                              check_acyclic_complexcube, cubes_equal, extend,
                              extend_dg, full_shape, punctured_shape,
                              reassemble, relabel_cube, stack, stack_dg,
                              t_factorization_check, totalize)
from dgglue.samples import (random_complex, random_cube_morphism,
                            random_tensor_cube, rng)

from conftest import collapse_square, unit_inclusion_cube


def zero_cube(field, c):
    return ComplexCube(field, frozenset(), full_shape(frozenset()),
                       {frozenset(): c}, {})


def test_zero_cube_totalizes_to_itself(field):
    c = random_complex(field, rng(2), -2, 2, 3)
    assert totalize(zero_cube(field, c)) == c


def test_one_cube_totalizes_to_cone(field):
    r = rng(3)
    from dgglue.samples import random_one_cube, one_cube
    for _ in range(5):
        c, d, f = random_one_cube(field, r)
        cube = one_cube(field, c, d, f)
        assert totalize(cube).cohomology() == cone(f).cohomology()


def test_identity_square_acyclic(field):
    one = one_dim_complex(field)
    idm = GradedMap.identity(one)
    sq = ComplexCube(field, {0, 1}, full_shape({0, 1}),
                     {I: one for I in full_shape({0, 1})},
                     {(I, l): idm for I in full_shape({0, 1})
                      for l in {0, 1} - I})
    assert check_acyclic_complexcube(sq)


def test_noncommuting_face_rejected():
    one = one_dim_complex(QQ)
    idm = GradedMap.identity(one)
    two = GradedMap(one, one, 0, {0: Matrix.from_rows(QQ, [[2]])})
    with pytest.raises(CubeError):
        ComplexCube(QQ, {0, 1}, full_shape({0, 1}),
                    {I: one for I in full_shape({0, 1})},
                    {(frozenset(), 0): idm, (frozenset(), 1): idm,
                     (frozenset({0}), 1): idm, (frozenset({1}), 0): two})


def test_totalize_d_squared(field):
    r = rng(5)
    for n in (2, 3):
        cube = random_tensor_cube(field, r, n)
        t = totalize(cube)
        for k in t.degrees():
            assert (t.d(k + 1) @ t.d(k)).is_zero()


def test_as_morphism_roundtrip(field):
    r = rng(7)
    cube = random_tensor_cube(field, r, 2)
    c0, c1, comps = as_morphism(cube)
    assert cubes_equal(reassemble(c0, c1, comps, new_coord=1), cube)


def test_as_morphism_of_one_cube(field):
    from dgglue.samples import random_one_cube, one_cube
    c, d, f = random_one_cube(field, rng(8))
    cube = one_cube(field, c, d, f)
    c0, c1, comps = as_morphism(cube)
    assert totalize(c0) == c and totalize(c1) == d
    assert comps[frozenset()] == f


def test_as_morphism_rejects_zero_cube(field):
    with pytest.raises(CubeError):
        as_morphism(zero_cube(field, one_dim_complex(field)))


def test_t_factorization(field):
    r = rng(11)
    from dgglue.samples import random_one_cube, one_cube
    c, d, f = random_one_cube(field, r)
    assert t_factorization_check(one_cube(field, c, d, f))
    for n in (2, 3):
        for _ in range(3):
            cube = random_tensor_cube(field, r, n)
            assert t_factorization_check(cube)


def test_stack_with_identity_is_original(field):
    r = rng(13)
    cube = random_tensor_cube(field, r, 2)
    c0, c1, comps = as_morphism(cube)
    ident = reassemble(c0, c0, {I: GradedMap.identity(c0.vertices[I])
                                for I in c0.shape}, new_coord=1)
    assert cubes_equal(stack(cube, ident), cube)


def test_stack_composites(field):
    # the composite edges of a stack are the compositions g f
    r = rng(17)
    a = random_tensor_cube(field, r, 2, max_dim=1)
    a0, a1, alpha = as_morphism(a)
    beta = random_cube_morphism(r, a1, a1)
    b = reassemble(a1, a1, beta, new_coord=1)
    st = stack(b, a)
    _, _, gamma = as_morphism(st)
    for I in gamma:
        assert gamma[I] == beta[I].compose(alpha[I])


def test_stack_face_mismatch(field):
    a = random_tensor_cube(field, rng(19), 2)
    b = random_tensor_cube(field, rng(20), 2)
    if not cubes_equal(as_morphism(a)[0], as_morphism(b)[1]):
        with pytest.raises(CubeError):
            stack(a, b)


def test_stack_of_acyclic_is_acyclic(field):
    r = rng(23)
    for _ in range(3):
        a = random_tensor_cube(field, r, 2, acyclic=True, max_dim=1)
        a0, a1, alpha = as_morphism(a)
        beta = random_cube_morphism(r, a1, a1)
        b = reassemble(a1, a1, beta, new_coord=1)
        # b has two equal opposing faces only if beta is iso; instead stack
        # two copies built from acyclic data
        sq = stack(b, a) if check_acyclic_complexcube(b) else None
        if sq is not None:
            assert check_acyclic_complexcube(sq)
        st = stack(a, a) if cubes_equal(a0, a1) else None
        if st is not None:
            assert check_acyclic_complexcube(st)


def test_extend_examples(field):
    r = rng(29)
    a = random_tensor_cube(field, r, 2, max_dim=1)
    a0, a1, alpha = as_morphism(a)
    beta = random_cube_morphism(r, a1, a1)
    b = reassemble(a1, a1, beta, new_coord=1)
    ext = extend(a, b)
    assert ext.n() == 3
    # far face is the identity cube on b1, near face carries composites
    e0, e1, gamma = as_morphism(ext)
    assert cubes_equal(e0, a)
    for I in full_shape(a.top):
        if max(a.top) in I:
            assert gamma[I] == beta[I - {max(a.top)}]
        else:
            assert gamma[I] == beta[I].compose(alpha[I])


def test_extend_identity_one_cube(field):
    one = one_dim_complex(field)
    idm = GradedMap.identity(one)
    cube = ComplexCube(field, {0}, full_shape({0}),
                       {frozenset(): one, frozenset({0}): one},
                       {(frozenset(), 0): idm})
    sq = extend(cube, cube)
    assert sq.n() == 2
    for e in sq.edges.values():
        assert e == idm


def test_extend_of_acyclic_is_acyclic(field):
    r = rng(31)
    for _ in range(3):
        a = random_tensor_cube(field, r, 2, acyclic=True, max_dim=1)
        a0, a1, alpha = as_morphism(a)
        beta = random_cube_morphism(r, a1, a1)
        b = reassemble(a1, a1, beta, new_coord=1)
        assert check_acyclic_complexcube(extend(a, b))


def test_extend_of_nonacyclic_stays_nonacyclic(field):
    r = rng(37)
    a = random_tensor_cube(field, r, 2, acyclic=False, max_dim=1)
    assert not check_acyclic_complexcube(a)
    a0, a1, alpha = as_morphism(a)
    beta = random_cube_morphism(r, a1, a1)
    b = reassemble(a1, a1, beta, new_coord=1)
    assert not check_acyclic_complexcube(extend(a, b))


def test_relabel_invariance(field):
    r = rng(41)
    cube = random_tensor_cube(field, r, 3)
    verdict = check_acyclic_complexcube(cube)
    for perm in ({0: 1, 1: 0, 2: 2}, {0: 2, 1: 0, 2: 1}):
        assert check_acyclic_complexcube(relabel_cube(cube, perm)) == verdict


def test_squares_in_one_direction_acyclic_implies_acyclic(field):
    # build a 3-cube whose squares in the last direction are acyclic: use an
    # extension, whose far face is an identity cube
    r = rng(43)
    a = random_tensor_cube(field, r, 2, acyclic=True, max_dim=1)
    a0, a1, alpha = as_morphism(a)
    b = reassemble(a1, a1, {I: GradedMap.identity(a1.vertices[I])
                            for I in a1.shape}, new_coord=1)
    cube = extend(a, b)
    assert check_acyclic_complexcube(cube)


def test_opposing_identity_faces_acyclic(field):
    r = rng(47)
    cube = random_tensor_cube(field, r, 2, max_dim=1)
    doubled = reassemble(cube, cube,
                         {I: GradedMap.identity(cube.vertices[I])
                          for I in cube.shape})
    assert check_acyclic_complexcube(doubled)


def test_dg_cube_check_acyclic_negative_witness(field):
    cube = unit_inclusion_cube(field)
    ok, report = decide_cube("acyclic", cube)
    assert not ok
    assert report[("*", "*")] == {0: 1}


def test_dg_stack_extend(field):
    sq = collapse_square(field)
    ext = extend_dg(sq, sq)
    assert ext.n == 3
    st = stack_dg(sq, sq)
    assert st.n == 2
    assert not decide_cube("acyclic", ext)[0]


def test_punctured_shape_totale(field):
    r = rng(53)
    cube = random_tensor_cube(field, r, 2, max_dim=1)
    punct = ComplexCube(field, cube.top, punctured_shape(cube.top),
                        {I: cube.vertices[I] for I in punctured_shape(cube.top)},
                        {(I, l): e for (I, l), e in cube.edges.items() if I},
                        validate=False)
    t = totalize(punct)
    for k in t.degrees():
        assert (t.d(k + 1) @ t.d(k)).is_zero()
