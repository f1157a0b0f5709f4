import pytest

from dgglue.fields import QQ
from dgglue.linalg import Matrix
from dgglue.dgcat import validate_category, validate_functor, is_hom_isomorphism
from dgglue.filtlab import (AlgebraMap, FiltError, FilteredAlgebra,
                            auslander, auslander_E, auslander_module_hom,
                            end_algebra_iso_auslander, epsilon,
                            floor_refinement,
                            generated_ideal, gr_piece, induce, module_hom,
                            proj_dgcat, refine, refinement_functor,
                            refinement_square, shift_module, tensor_n,
                            tensor_unit_map, truncate, truncated_free,
                            truncated_polynomial_algebra, validate_algebra_map,
                            validate_filtration, validate_module, zero_module)
from dgglue.glue import decide_cube
from dgglue.hypercube import CubeError, DgCube
from dgglue.samples import random_filtered_algebra, random_module, rng


def trivial_field_algebra(field, length=1):
    return FilteredAlgebra(field, 1, lambda i, j: (field.one,), (field.one,),
                           length, [Matrix.identity(field, 1)] +
                           [Matrix.zeros(field, 1, 0)] * length, ("1",))


def x_ideal(field, alg):
    v = [field.zero] * alg.dim
    v[1] = field.one
    return generated_ideal(alg, [tuple(v)])


def test_trivial_filtration_passes(field):
    assert validate_filtration(trivial_field_algebra(field)) == []


def test_dual_numbers_filtration(field):
    dual = truncated_polynomial_algebra(field, 2)
    assert dual.length == 2
    assert validate_filtration(dual) == []


@pytest.mark.parametrize("length", [0, 1, 2])
def test_membership_levels_agree_with_fil(field, length):
    # a length-0 algebra has F^0 = A and F^s = 0 for every s < 0
    dual = truncated_polynomial_algebra(field, 2)
    alg = FilteredAlgebra(field, 2, dual.mul_basis, dual.unit, length,
                          dual.filtration[:length] +
                          [Matrix.zeros(field, 2, 0)] if length else
                          [Matrix.identity(field, 2)])
    vecs = [(field.one, field.zero), (field.zero, field.one),
            (field.one, field.one)]
    for s in range(-length - 2, 3):
        for vec in vecs:
            x = Matrix.column(field, vec)
            if alg.in_fil(s, vec):
                assert alg.fil(s) @ alg.fil_coords(s, x) == x
            else:
                with pytest.raises(FiltError):
                    alg.fil_coords(s, x)
        assert alg.quot(s, s - 1).dim == alg.fil(s).ncols - \
            alg.fil(s - 1).ncols
    if length == 0:
        assert alg.quot(0, -1).dim == alg.dim


def test_non_ideal_subspace_fails():
    field = QQ
    kx3 = truncated_polynomial_algebra(field, 3)
    # take F^{-1} spanned by 1 + x: not an ideal
    bad_f1 = Matrix.from_rows(field, [[1], [1], [0]])
    bad = FilteredAlgebra(field, 3, kx3.mul_basis, kx3.unit, 2,
                          [Matrix.identity(field, 3), bad_f1,
                           Matrix.zeros(field, 3, 0)])
    assert validate_filtration(bad)


def test_truncate_idempotent(field):
    dual = truncated_polynomial_algebra(field, 2)
    p0 = truncated_free(dual, 0)
    again = truncate(p0, 2)
    assert again.dims == p0.dims
    assert validate_module(again) == []


def test_truncate_rees_to_length_one(field):
    dual = truncated_polynomial_algebra(field, 2)
    p0 = truncated_free(dual, 0)
    l1 = truncate(p0, 1)
    assert l1.dims == [1]


def test_truncation_composition_law(field):
    # l^n l^m = l^n for m >= n
    dual = truncated_polynomial_algebra(field, 2)
    m = shift_module(truncated_free(dual, 0), 1)  # length 3
    lhs = truncate(truncate(m, 2), 1)
    rhs = truncate(m, 1)
    assert lhs.dims == rhs.dims


def test_truncation_shift_compatibility(field):
    # l^n(M(i)) has the dims of l^{n+i}(M)(i) on Rees-window samples
    alg = truncated_polynomial_algebra(field, 3)
    m = shift_module(truncated_free(alg, 0), 2)   # length 5 sample
    i, n = 1, 3
    lhs = truncate(shift_module(m, i), n)
    rhs = truncate(shift_module(truncate(m, n + i), i), n)
    assert lhs.dims == rhs.dims


def test_proj_dgcat_dual_numbers(field):
    dual = truncated_polynomial_algebra(field, 2)
    pc = proj_dgcat(dual)
    assert validate_category(pc) == []
    dims = {(a, b): pc.hom(a, b).dim(0) for a in pc.objects for b in pc.objects}
    assert dims == {("0", "0"): 2, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1}


def test_proj_dgcat_length_one_is_algebra(field):
    alg = trivial_field_algebra(field)
    pc = proj_dgcat(alg)
    assert pc.objects == ("0",)
    assert pc.hom("0", "0").dim(0) == 1


def test_auslander_dimensions(field):
    dual = truncated_polynomial_algebra(field, 2)
    assert auslander(dual).total_dim() == 5
    kx3 = truncated_polynomial_algebra(field, 3)
    assert auslander(kx3).total_dim() == 14
    assert auslander(kx3).validate() == []


def test_auslander_length_one(field):
    alg = trivial_field_algebra(field)
    assert auslander(alg).total_dim() == 1


def test_end_of_projectives_is_auslander(field):
    for alg in (truncated_polynomial_algebra(field, 2),
                truncated_polynomial_algebra(field, 3)):
        assert end_algebra_iso_auslander(alg) == []


def test_hom_formula(field):
    r = rng(61)
    for seed in range(3):
        alg = random_filtered_algebra(field, rng(200 + seed))
        n = alg.length
        ps = [truncated_free(alg, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                dim, _ = module_hom(ps[i], ps[j])
                assert dim == alg.quot(j - i, j - n).dim


def test_module_hom_contains_identity(field):
    alg = random_filtered_algebra(field, rng(71))
    m = random_module(alg, rng(72))
    if any(m.dims):
        dim, basis = module_hom(m, m)
        assert dim >= 1


def test_E_functor_row_and_homs(field):
    dual = truncated_polynomial_algebra(field, 2)
    aus = auslander(dual)
    p0 = truncated_free(dual, 0)
    p1 = truncated_free(dual, 1)
    e0 = auslander_E(aus, p0)
    assert e0.dims == p0.dims
    # E of the zero module
    z = auslander_E(aus, zero_module(dual))
    assert z.dims == [0, 0]
    # E preserves hom dimensions (two independent solvers)
    for m1 in (p0, p1):
        for m2 in (p0, p1):
            d1, _ = module_hom(m1, m2)
            d2, _ = auslander_module_hom(auslander_E(aus, m1),
                                         auslander_E(aus, m2))
            assert d1 == d2


def test_E_row_of_projective_matches_block(field):
    alg = truncated_polynomial_algebra(field, 3)
    aus = auslander(alg)
    for i in range(3):
        row = auslander_E(aus, truncated_free(alg, i))
        assert row.dims == [aus.block_dim(i, j) for j in range(3)]


def test_E_preserves_hom_dims_random(field):
    r = rng(83)
    alg = random_filtered_algebra(field, rng(84))
    aus = auslander(alg)
    for _ in range(2):
        m1 = random_module(alg, r, max_gens=2)
        m2 = random_module(alg, r, max_gens=2)
        d1, _ = module_hom(m1, m2)
        d2, _ = auslander_module_hom(auslander_E(aus, m1), auslander_E(aus, m2))
        assert d1 == d2


def test_tensor_unit_law(field):
    alg = truncated_polynomial_algebra(field, 2)
    for m in (truncated_free(alg, 0), truncated_free(alg, 1)):
        t, maps = tensor_unit_map(m)
        assert t.dims == m.dims
        assert all(mat.is_invertible() for mat in maps)


def test_tensor_free_formula(field):
    alg = truncated_polynomial_algebra(field, 3)
    n = 3
    for i in range(n):
        for j in range(n):
            t = tensor_n(truncated_free(alg, i), truncated_free(alg, j))
            expected = [alg.quot(i + j - k, i + j - n).dim for k in range(n)]
            assert t.dims == expected


def test_tensor_symmetry_and_truncation_lemma(field):
    r = rng(91)
    alg = random_filtered_algebra(field, rng(92))
    for _ in range(2):
        m1 = random_module(alg, r, max_gens=2)
        m2 = random_module(alg, r, max_gens=2)
        t12 = tensor_n(m1, m2)
        t21 = tensor_n(m2, m1)
        assert t12.dims == t21.dims
        assert validate_module(t12) == []


def test_gr_and_induce(field):
    alg = truncated_polynomial_algebra(field, 2)
    p0 = truncated_free(alg, 0)
    assert gr_piece(p0, 0) == 2 and gr_piece(p0, 1) == 1
    ind = induce(alg, 1, 0)
    assert ind.dims == p0.dims
    # adjunction dimension count: Hom(v (x) P_i, M) = dim v * dim M^{-i}
    r = rng(95)
    m = random_module(alg, r, max_gens=2)
    for i in range(2):
        for v_dim in (1, 2):
            d, _ = module_hom(induce(alg, v_dim, i), m)
            assert d == v_dim * m.dims[i]


def test_refine_example(field):
    kx4 = truncated_polynomial_algebra(field, 4, powers=[0, 2, 4])
    ideal = x_ideal(field, kx4)
    g = refine(kx4, ideal, 2)
    assert g.length == 4
    assert validate_filtration(g) == []
    # G^{-1}=(x), G^{-2}=(x^2), G^{-3}=(x^3), G^{-4}=0
    assert [g.fil(-k).ncols for k in range(1, 5)] == [3, 2, 1, 0]
    assert g.fil(-2) == kx4.fil(-1)
    assert g.fil(-4).ncols == 0


def test_refine_d1_recovers(field):
    dual = truncated_polynomial_algebra(field, 2)
    ideal = x_ideal(field, dual)
    g = refine(dual, ideal, 1)
    assert g.length == 2
    for k in range(3):
        assert g.fil(-k) == dual.fil(-k)


def test_refine_veronese_roundtrip(field):
    r = rng(101)
    for seed in range(2):
        alg = random_filtered_algebra(field, rng(300 + seed))
        if alg.fil(-1).ncols == 0:
            continue
        ideal = alg.fil(-1)
        g = refine(alg, ideal, 2)
        for i in range(alg.length + 1):
            assert g.fil(-2 * i) == alg.fil(-i)


def test_refine_precondition(field):
    kx4 = truncated_polynomial_algebra(field, 4, powers=[0, 2, 4])
    ideal = x_ideal(field, kx4)
    with pytest.raises(FiltError):
        refine(kx4, ideal, 1)   # I^1 = (x) not inside F^{-1} = (x^2)


def test_refinement_functor(field):
    kx4 = truncated_polynomial_algebra(field, 4, powers=[0, 2, 4])
    g = refine(kx4, x_ideal(field, kx4), 2)
    f = refinement_functor(kx4, g, 2)
    assert validate_functor(f) == []
    assert is_hom_isomorphism(f)
    assert f.obj_map == {"0": "0", "1": "2"}
    # over the dual numbers hom(0,1) maps isomorphically to hom(0,2), dims 1=1
    dual = truncated_polynomial_algebra(field, 2)
    g2 = refine(dual, x_ideal(field, dual), 2)
    f2 = refinement_functor(dual, g2, 2)
    assert is_hom_isomorphism(f2)
    assert f2.source.hom("0", "1").dim(0) == f2.target.hom("0", "2").dim(0) == 1


def test_refinement_square_identity(field):
    dual = truncated_polynomial_algebra(field, 2)
    ident = AlgebraMap(dual, dual, Matrix.identity(field, 2))
    sq = refinement_square(dual, dual, ident, x_ideal(field, dual), 2)
    assert decide_cube("qff", sq)[0]


def test_refinement_square_example(field):
    kx4 = truncated_polynomial_algebra(field, 4, powers=[0, 2, 4])
    kx2 = truncated_polynomial_algebra(field, 2, powers=[0, 1, 2])
    mmat = Matrix.zeros(field, 2, 4)
    mmat.set(0, 0, field.one)
    mmat.set(1, 1, field.one)
    f = AlgebraMap(kx4, kx2, mmat)
    assert validate_algebra_map(f) == []
    sq = refinement_square(kx4, kx2, f, x_ideal(field, kx4), 2)
    assert decide_cube("acyclic", sq)[0]
    assert decide_cube("qff", sq)[0]


def test_refinement_square_mutation_fails(field):
    kx4 = truncated_polynomial_algebra(field, 4, powers=[0, 2, 4])
    kx2 = truncated_polynomial_algebra(field, 2, powers=[0, 1, 2])
    mmat = Matrix.zeros(field, 2, 4)
    mmat.set(0, 0, field.one)
    mmat.set(1, 1, field.one)
    f = AlgebraMap(kx4, kx2, mmat)
    sq = refinement_square(kx4, kx2, f, x_ideal(field, kx4), 2)
    # zero out one hom map of one edge: strict commutation must fail
    edge = sq.edges[(frozenset(), 1)]
    broken = {k: dict(v) for k, v in edge.hom_maps.items()}
    key = ("0", "1")
    broken[key] = {0: Matrix.zeros(field, *edge.hom_maps[key][0].shape)}
    from dgglue.dgcat import DgFunctor
    bad_edge = DgFunctor(edge.source, edge.target, edge.obj_map, broken)
    with pytest.raises(CubeError):
        DgCube(field, 2, dict(sq.vertices),
               {(frozenset(), 0): sq.edges[(frozenset(), 0)],
                (frozenset(), 1): bad_edge,
                (frozenset({0}), 1): sq.edges[(frozenset({0}), 1)],
                (frozenset({1}), 0): sq.edges[(frozenset({1}), 0)]})


def test_veronese_epsilon_adjunction(field):
    dual = truncated_polynomial_algebra(field, 2)
    fr = floor_refinement(dual, 2)
    assert validate_filtration(fr) == []
    p1 = truncated_free(dual, 1)
    em = epsilon(p1, 2, fr)
    assert validate_module(em) == []
    assert em.dims == truncated_free(fr, 2).dims
    from dgglue.filtlab import veronese
    back = veronese(em, 2, dual)
    assert back.dims == p1.dims
    # unit/counit triangle at the level of hom dimensions
    for i in (0, 1, 2, 3):
        other = truncated_free(fr, i)
        d1, _ = module_hom(em, other)
        d2, _ = module_hom(p1, veronese(other, 2, dual))
        assert d1 == d2


def test_epsilon_d1_identity(field):
    dual = truncated_polynomial_algebra(field, 2)
    fr = floor_refinement(dual, 1)
    p = truncated_free(dual, 0)
    em = epsilon(p, 1, fr)
    assert em.dims == p.dims


def test_random_modules_validate(field):
    r = rng(113)
    for seed in range(3):
        alg = random_filtered_algebra(field, rng(400 + seed))
        m = random_module(alg, r)
        assert validate_module(m) == []
