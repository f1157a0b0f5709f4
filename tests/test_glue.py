from dgglue.fields import QQ
from dgglue.dgcat import identity_functor, validate_category
from dgglue.glue import (decide_cube, gac, glue, hom_iso_check,
                         pi_comparison_map, pi_morphism, pi_object)
from dgglue.hypercube import DgCube, full_shape
from dgglue.samples import random_dg_cube, rng
from dgglue.twisted import tw_hom, tw_compose

from conftest import collapse_square, dual_numbers_category, unit_inclusion_cube


def identity_square(field, cat):
    ida = identity_functor(cat)
    return DgCube(field, 2, {I: cat for I in full_shape(frozenset({0, 1}))},
                  {(frozenset(), 0): ida, (frozenset(), 1): ida,
                   (frozenset({0}), 1): ida, (frozenset({1}), 0): ida})


def test_gac_of_one_cube_is_initial_component(field):
    cube = unit_inclusion_cube(field)
    g = gac(cube)
    dual = cube.vertices[frozenset({0})]
    assert g.category.hom("0:*", "0:*") == dual.hom("*", "*")
    assert validate_category(g.category) == []


def test_gac_square_hom_structure(field):
    cube = collapse_square(field)
    g = gac(cube)
    # hom(0-block, 1-block) is the hom of the join vertex at the pushed objects
    h = g.category.hom("0:*", "1:*")
    join = cube.vertices[frozenset({0, 1})]
    assert h.dims == join.hom("*", "*").dims
    # no morphisms backwards
    assert g.category.hom("1:*", "0:*").dims == {}


def test_gac_three_cube_summands(field):
    from dgglue.samples import _extend_by_identity
    cube = _extend_by_identity(identity_square(field, dual_numbers_category(field)))
    g = gac(cube)
    la, lc = "0:*", "2:*"
    layouts = {m: g.layout(la, lc, m) for m in (-1, 0)}
    # degree -1 carries the {0,2} summand with its X-factor, degree 0 the
    # full-interval summand {0,1,2}
    assert [tuple(sorted(I)) for I, _, _, _ in layouts[-1]] == [(0, 2)]
    assert [tuple(sorted(I)) for I, _, _, _ in layouts[0]] == [(0, 1, 2)]
    # the differential couples them through the remaining edge direction
    d = g.category.hom(la, lc).d(-1)
    assert not d.is_zero()


def test_gac_validates_on_random_cubes(field):
    r = rng(5)
    for n in (2, 3):
        cube = random_dg_cube(field, r, n)
        assert validate_category(gac(cube).category) == []


def test_glue_recovers_gac_homs(field):
    from dgglue.twisted import bare
    cube = collapse_square(field)
    g = gac(cube)
    cat = glue(g, {"a": bare(g.category, "0:*"), "b": bare(g.category, "1:*")})
    assert validate_category(cat) == []
    assert cat.hom("a", "b").dims == g.category.hom("0:*", "1:*").dims
    assert cat.hom("b", "a").dims == {}


def test_sod_hom_vanishing_in_glue(field):
    from dgglue.twisted import bare, cone_tw, tw_identity
    cube = collapse_square(field)
    g = gac(cube)
    # objects generated from component 1 have no homs back to component 0
    t1 = cone_tw(tw_identity(bare(g.category, "1:*")))
    t0 = bare(g.category, "0:*")
    assert tw_hom(t1, t0).total_dim() == 0


def test_pi_object_validates(field):
    for cube in (unit_inclusion_cube(field), collapse_square(field)):
        g = gac(cube)
        for a in cube.initial().objects:
            pa = pi_object(g, a)
            assert pa.maurer_cartan_defect() is None
            assert len(pa.terms) == cube.n


def test_pi_alpha_entries_are_signed_identities():
    field = QQ
    cube = collapse_square(field)
    g = gac(cube)
    pa = pi_object(g, "*")
    # n = 2: single entry (0, 1) with sign (-1)^0 = +1 on the identity
    e = pa.delta[(0, 1)]
    join = cube.vertices[frozenset({0, 1})]
    assert e.vec == tuple(join.ids["*"])


def test_pi_morphism_functorial(field):
    cube = collapse_square(field)
    g = gac(cube)
    init = cube.initial()
    pa = pi_object(g, "*")
    ida = init.id_elt("*")
    pid = pi_morphism(g, ida, pa, pa)
    from dgglue.twisted import tw_identity, tw_morphism_to_vec
    assert tw_morphism_to_vec(pid) == tw_morphism_to_vec(tw_identity(pa))
    # pi preserves composition and differentials on a basis
    for f in init.hom_basis("*", "*"):
        for h in init.hom_basis("*", "*"):
            lhs = pi_morphism(g, init.compose(h, f), pa, pa)
            rhs = tw_compose(pi_morphism(g, h, pa, pa), pi_morphism(g, f, pa, pa))
            from dgglue.twisted import tw_morphism_to_vec as vec
            assert vec(lhs) == vec(rhs)


def test_pi_comparison_map_closed(field):
    for cube in (unit_inclusion_cube(field), collapse_square(field)):
        g = gac(cube)
        cm = pi_comparison_map(g, "*", "*")
        assert cm.is_closed()


def test_check_qff_negative_witness(field):
    cube = unit_inclusion_cube(field)
    ok, report = decide_cube("qff", cube)
    assert not ok
    entry = report[("*", "*")]
    assert entry["source"] == {0: 1}
    assert entry["glue"] == {0: 2}
    assert not entry["isomorphism"]


def test_check_qff_identity_square(field):
    cube = identity_square(field, dual_numbers_category(field))
    ok, _ = decide_cube("qff", cube)
    assert ok


def test_qff_agrees_with_acyclicity(field):
    r = rng(11)
    for n in (1, 2, 3):
        for want in (True, False, None):
            cube = random_dg_cube(field, r, n, want=want)
            assert decide_cube("qff", cube)[0] == decide_cube("acyclic", cube)[0]


def test_hom_iso_one_cube(field):
    assert hom_iso_check(unit_inclusion_cube(field), "*", "*")


def test_hom_iso_squares_and_cubes(field):
    r = rng(13)
    for n in (2, 3):
        cube = random_dg_cube(field, r, n)
        init = cube.initial()
        for a in init.objects:
            for b in init.objects:
                assert hom_iso_check(cube, a, b)


def test_graded_vertex_categories(field):
    # vertex categories with nonzero hom differentials flow through the
    # whole pipeline: gac validity, qff == acyclic, explicit hom iso
    from dgglue.linalg import Matrix
    from dgglue.dgcat import DgFunctor, HomElt, field_category, validate_functor
    from dgglue.twisted import TwMorphism, bare, cone_tw, tw_category
    D = dual_numbers_category(field)
    b = bare(D, "*")
    eps = TwMorphism(b, b, 0, {(0, 0): HomElt("*", "*", 0,
                                              (field.zero, field.one))})
    T = tw_category(D, {"b": b, "c": cone_tw(eps)})
    assert validate_category(T) == []
    assert T.hom("c", "c").cohomology() == {-1: 1, 0: 2, 1: 1}
    sq = identity_square(field, T)
    assert decide_cube("acyclic", sq)[0] and decide_cube("qff", sq)[0]
    g = gac(sq)
    for a in T.objects:
        for bb in T.objects:
            assert hom_iso_check(sq, a, bb, g=g)
    k = field_category(field)
    col = Matrix.zeros(field, T.hom("c", "c").dim(0), 1)
    for i, v in enumerate(T.ids["c"]):
        col.set(i, 0, v)
    unit_c = DgFunctor(k, T, {"*": "c"}, {("*", "*"): {0: col}})
    assert validate_functor(unit_c) == []
    cube1 = DgCube(field, 1, {frozenset(): k, frozenset({0}): T},
                   {(frozenset(), 0): unit_c})
    assert decide_cube("acyclic", cube1)[0] is False
    ok, rep = decide_cube("qff", cube1)
    assert not ok and rep[("*", "*")]["glue"] == {-1: 1, 0: 2, 1: 1}
    assert hom_iso_check(cube1, "*", "*")


def test_pi_image_is_iterated_cone_shape(field):
    # the terms of pi(a) are exactly the images V_j a with descending component
    cube = collapse_square(field)
    g = gac(cube)
    pa = pi_object(g, "*")
    comps = [int(obj.split(":", 1)[0]) for obj, _ in pa.terms]
    shifts = [s for _, s in pa.terms]
    assert comps == sorted(comps, reverse=True)
    assert shifts == list(range(cube.n))
