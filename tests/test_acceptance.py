"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance (all checks
are exact; tolerances are instance counts and runtime budgets) and prints one
pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete.
"""

import time

from dgglue.fields import QQ, PrimeField
from dgglue.linalg import Matrix
from dgglue.complexes import Complex, GradedMap, cone
from dgglue.dgcat import validate_category
from dgglue.filtlab import (auslander, end_algebra_iso_auslander,
                            generated_ideal, module_hom, refine, shift_module,
                            tensor_n, tensor_unit_map, truncate,
                            truncated_free, truncated_polynomial_algebra,
                            validate_filtration)
from dgglue.glue import check_qff, gac, hom_iso_check
from dgglue.hypercube import (as_morphism, check_acyclic_complexcube,
                              check_acyclic_dgcube, extend, reassemble, stack,
                              totalize)
from dgglue.samples import (one_cube, random_complex, random_cube_morphism,
                            random_closed_gp_morphism, random_dg_cube,
                            random_directed_env, random_filtered_algebra,
                            random_glue_prime_object, random_module,
                            random_one_cube, random_tensor_cube,
                            random_twisted_complex, rng)
from dgglue.twisted import (glue_prime_cone, gp_add, gp_compose,
                            gp_identity, tw_hom)

F7 = PrimeField(7)


def report(num, name, ok, t0):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} " \
           f"({time.monotonic() - t0:.1f}s)"
    print(line)
    assert ok, line


def complex_d_squared_holds(c):
    return all((c.d(k + 1) @ c.d(k)).is_zero() for k in c.degrees())


def test_criterion_01_d_squared_suite():
    t0 = time.monotonic()
    count = 0
    for field in (F7, QQ):
        r = rng(1 if field is F7 else 2)
        # complexes on windows inside [-6, 6] with total dimension <= 16
        for _ in range(130):
            lo = r.randrange(-6, 3)
            hi = min(6, lo + r.randrange(1, 4))
            c = random_complex(field, r, lo, hi, 2)
            assert c.total_dim() <= 16
            assert complex_d_squared_holds(c)
            count += 1
        # cubes of complexes, n <= 4
        for n, reps in ((1, 20), (2, 30), (3, 20), (4, 5)):
            for _ in range(reps):
                cube = random_tensor_cube(field, r, n, max_dim=2,
                                          lo=-1, hi=0 if n >= 3 else 1)
                t = totalize(cube)
                assert complex_d_squared_holds(t)
                count += 1
        # twisted complexes over random projective-generator categories
        from dgglue.filtlab import proj_dgcat
        for _ in range(45):
            alg = random_filtered_algebra(field, r, max_dim=6)
            cat = proj_dgcat(alg)
            tw = random_twisted_complex(cat, r, depth=2)
            assert tw.maurer_cartan_defect() is None
            h = tw_hom(tw, tw)
            assert complex_d_squared_holds(h)
            count += 1
    elapsed = time.monotonic() - t0
    report(1, f"d^2=0 suite ({count} objects)", count >= 500 and elapsed < 60.0,
           t0)


def _tot_square_oracle(cube):
    """The classical three-column total complex of a commuting square."""
    field = cube.field
    A = cube.vertices[frozenset()]
    B = cube.vertices[frozenset({0})]
    C = cube.vertices[frozenset({1})]
    D = cube.vertices[frozenset({0, 1})]
    f = cube.edge(frozenset(), 0)          # A -> B
    g = cube.edge(frozenset(), 1)          # A -> C
    fp = cube.edge(frozenset({0}), 1)      # B -> D
    gp = cube.edge(frozenset({1}), 0)      # C -> D
    dims = {}
    lo = min(A.lo - 2, B.lo - 1, C.lo - 1, D.lo)
    hi = max(A.hi - 2, B.hi - 1, C.hi - 1, D.hi)
    for k in range(lo, hi + 1):
        dims[k] = A.dim(k + 2) + B.dim(k + 1) + C.dim(k + 1) + D.dim(k)
    diffs = {}
    neg = field.neg(field.one)
    for k in range(lo, hi + 1):
        rows = [A.dim(k + 3), B.dim(k + 2), C.dim(k + 2), D.dim(k + 1)]
        cols = [A.dim(k + 2), B.dim(k + 1), C.dim(k + 1), D.dim(k)]
        blocks = {
            (0, 0): A.d(k + 2),                       # (-1)^p d_v with p = -2
            (1, 0): f.comp(k + 2),
            (2, 0): g.comp(k + 2),
            (1, 1): B.d(k + 1).scaled(neg),
            (2, 2): C.d(k + 1).scaled(neg),
            (3, 1): fp.comp(k + 1),
            (3, 2): gp.comp(k + 1).scaled(neg),
            (3, 3): D.d(k),
        }
        diffs[k] = Matrix.block(field, rows, cols, blocks)
    return Complex(field, dims, diffs)


def test_criterion_02_totalization_oracles():
    t0 = time.monotonic()
    ok = True
    for field in (F7, QQ):
        r = rng(20 if field is F7 else 21)
        for _ in range(50):
            c, d, f = random_one_cube(field, r)
            cube = one_cube(field, c, d, f)
            ok = ok and totalize(cube).cohomology() == cone(f).cohomology()
        for _ in range(50):
            sq = random_tensor_cube(field, r, 2, max_dim=2)
            oracle = _tot_square_oracle(sq)
            ok = ok and totalize(sq).cohomology() == oracle.cohomology()
    report(2, "totalization oracles (100 + 100 instances)", ok, t0)


def test_criterion_03_gac_validity():
    t0 = time.monotonic()
    bad = 0
    total = 0
    for field in (F7, QQ):
        r = rng(30 if field is F7 else 31)
        reps = {2: 25, 3: 17, 4: 8}
        for n, count in reps.items():
            for _ in range(count):
                cube = random_dg_cube(field, r, n)
                g = gac(cube)
                violations = validate_category(g.category)
                bad += len(violations)
                total += 1
    report(3, f"Gac validity ({total} cubes, n in 2..4)",
           total >= 100 and bad == 0, t0)


CUBE_CORPUS = None


def _corpus():
    global CUBE_CORPUS
    if CUBE_CORPUS is None:
        cubes = []
        r = rng(40)
        for want, count in ((True, 14), (False, 14), (None, 24)):
            for _ in range(count):
                n = r.choice([2, 2, 3, 3, 4])
                cubes.append(random_dg_cube(F7, r, n, want=want))
        CUBE_CORPUS = cubes
    return CUBE_CORPUS


def test_criterion_04_qff_equals_acyclic():
    t0 = time.monotonic()
    cubes = _corpus()
    agree = 0
    acyclic_count = 0
    non_count = 0
    for cube in cubes:
        a, _ = check_acyclic_dgcube(cube)
        q, _ = check_qff(cube)
        if a == q:
            agree += 1
        if a:
            acyclic_count += 1
        else:
            non_count += 1
    elapsed = time.monotonic() - t0
    ok = (agree == len(cubes) >= 50 and acyclic_count >= 10 and
          non_count >= 10 and elapsed < 300.0)
    report(4, f"qff == acyclic on {len(cubes)} cubes "
              f"({acyclic_count} acyclic / {non_count} not)", ok, t0)


def test_criterion_05_hom_iso_on_corpus():
    t0 = time.monotonic()
    ok = True
    for cube in _corpus():
        g = gac(cube)
        init = cube.initial()
        for a in init.objects:
            for b in init.objects:
                if not hom_iso_check(cube, a, b, g=g):
                    ok = False
    report(5, "explicit hom isomorphism on the corpus", ok, t0)


def test_criterion_06_stack_extend_acyclic():
    t0 = time.monotonic()
    checked = 0
    ok = True
    r = rng(60)
    while checked < 100:
        n = r.choice([2, 2, 3])
        a = random_tensor_cube(F7, r, n, acyclic=True, max_dim=1)
        if not check_acyclic_complexcube(a):
            ok = False
            break
        a0, a1, alpha = as_morphism(a)
        # stack with an acyclic partner sharing the source face
        ident = reassemble(a0, a0, {I: GradedMap.identity(a0.vertices[I])
                                    for I in a0.shape}, new_coord=max(a.top))
        st = stack(a, ident)
        if not check_acyclic_complexcube(st):
            ok = False
            break
        # extend by an arbitrary (not necessarily acyclic) partner
        c_target = random_tensor_cube(F7, r, n - 1, max_dim=1) if n > 1 else None
        if c_target is not None and c_target.top == a1.top:
            beta = random_cube_morphism(r, a1, c_target)
            partner = reassemble(a1, c_target, beta, new_coord=max(a.top))
        else:
            beta = random_cube_morphism(r, a1, a1)
            partner = reassemble(a1, a1, beta, new_coord=max(a.top))
        ext = extend(a, partner)
        if not check_acyclic_complexcube(ext):
            ok = False
            break
        checked += 1
    report(6, f"stack/extend preserve acyclicity ({checked} instances)",
           ok and checked >= 100, t0)


def test_criterion_07_auslander_dimensions():
    t0 = time.monotonic()
    ok = True
    for field in (QQ, F7):
        dual = truncated_polynomial_algebra(field, 2)
        kx3 = truncated_polynomial_algebra(field, 3)
        ok = ok and auslander(dual).total_dim() == 5
        ok = ok and auslander(kx3).total_dim() == 14
        ok = ok and end_algebra_iso_auslander(dual) == []
        ok = ok and end_algebra_iso_auslander(kx3) == []
    report(7, "Auslander dimensions 5 and 14; End(+P_i) iso as algebras",
           ok, t0)


def test_criterion_08_hom_formula():
    t0 = time.monotonic()
    ok = True
    instances = 0
    for seed in range(10):
        field = F7 if seed % 2 else QQ
        alg = random_filtered_algebra(field, rng(800 + seed), max_dim=8,
                                      max_len=3)
        n = alg.length
        ps = [truncated_free(alg, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                dim, _ = module_hom(ps[i], ps[j])
                if dim != alg.quot(j - i, j - n).dim:
                    ok = False
        instances += 1
    report(8, f"hom formula on {instances} random filtered algebras", ok, t0)


def test_criterion_09_refinement():
    t0 = time.monotonic()
    field = QQ
    kx4 = truncated_polynomial_algebra(field, 4, powers=[0, 2, 4])
    x = (field.zero, field.one, field.zero, field.zero)
    ideal = generated_ideal(kx4, [x])
    g = refine(kx4, ideal, 2)

    def x_power(k):
        m = Matrix.zeros(field, 4, 4 - k)
        for t in range(4 - k):
            m.set(k + t, t, field.one)
        return m

    ok = (g.fil(-1) == x_power(1) and g.fil(-2) == x_power(2) and
          g.fil(-3) == x_power(3) and g.fil(-4).ncols == 0)
    # randomized instances: the Veronese of the refinement recovers F
    r = rng(90)
    for seed in range(8):
        alg = random_filtered_algebra(F7, rng(900 + seed))
        if alg.fil(-1).ncols == 0:
            continue
        d = r.choice([2, 3])
        gg = refine(alg, alg.fil(-1), d)
        ok = ok and validate_filtration(gg) == []
        for i in range(alg.length + 1):
            ok = ok and gg.fil(-d * i) == alg.fil(-i)
    # every refinement square passes the qff check
    from dgglue.samples import random_refinement_square
    for seed in range(8):
        sq = random_refinement_square(F7, rng(950 + seed))
        ok = ok and check_qff(sq)[0]
    report(9, "refinement formulas and acyclic refinement squares", ok, t0)


def test_criterion_10_truncated_tensor():
    t0 = time.monotonic()
    ok = True
    count = 0
    r = rng(100)
    while count < 50:
        field = F7 if count % 2 else QQ
        alg = random_filtered_algebra(field, rng(1000 + count), max_dim=5)
        m = random_module(alg, r, max_gens=2)
        n = alg.length
        # unit law
        t, maps = tensor_unit_map(m)
        ok = ok and t.dims == m.dims and all(mat.is_invertible() for mat in maps)
        # truncating-tensor lemma on the free generators:
        # l^n(O(i) (x) M) = l^n(M(i)) against l^n(l^n O(i) (x) M) = P_i (x)|n M
        i = r.randrange(n)
        lhs = truncate(shift_module(m, i), n)
        rhs = tensor_n(truncated_free(alg, i), m)
        ok = ok and lhs.dims == rhs.dims
        count += 1
    report(10, f"truncated tensor unit law and truncation lemma "
               f"({count} modules)", ok, t0)


def test_criterion_11_glue_prime():
    t0 = time.monotonic()
    ok = True
    count = 0
    for field in (F7, QQ):
        for n in (2, 3):
            env_count = 0
            seed = 0
            while env_count < 2 and seed < 10:
                cat, block_of = random_directed_env(field,
                                                    rng(1100 + n + seed), n)
                seed += 1
                env_count += 1
                r = rng(1200 + n + seed)
                for _ in range(7 if n == 2 else 6):
                    gp1 = random_glue_prime_object(cat, block_of, n, r)
                    gp2 = random_glue_prime_object(cat, block_of, n, r)
                    f = random_closed_gp_morphism(r, gp1, gp2)
                    data = glue_prime_cone(f)
                    if data.cone.mu_defect() is not None:
                        ok = False
                    if not _intrinsic_identities_hold(data, gp1, gp2):
                        ok = False
                    count += 1
    report(11, f"glue-prime cones valid on {count} inputs (n in 2, 3)",
           ok and count >= 50, t0)


def _intrinsic_identities_hold(data, gp1, gp2):
    def eq(f, g):
        keys = set(f.entries) | set(g.entries)
        for i, j in keys:
            a, b = f.entry(i, j), g.entry(i, j)
            for qp in set(a.entries) | set(b.entries):
                if a.entry(*qp).vec != b.entry(*qp).vec:
                    return False
        return True

    if not eq(gp_compose(data.p, data.i), gp_identity(data.shifted_src)):
        return False
    if not eq(gp_compose(data.s, data.j), gp_identity(gp2)):
        return False
    if not gp_compose(data.p, data.j).is_zero():
        return False
    if not gp_compose(data.s, data.i).is_zero():
        return False
    ipjs = gp_add(gp_compose(data.i, data.p), gp_compose(data.j, data.s))
    return eq(ipjs, gp_identity(data.cone))


def test_criterion_12_negative_witness():
    t0 = time.monotonic()
    from conftest import unit_inclusion_cube
    ok = True
    for field in (QQ, F7):
        cube = unit_inclusion_cube(field)
        acyclic, rep_a = check_acyclic_dgcube(cube)
        qff, rep_q = check_qff(cube)
        entry = rep_q[("*", "*")]
        ok = ok and not acyclic and not qff
        ok = ok and entry["source"] == {0: 1} and entry["glue"] == {0: 2}
        ok = ok and not entry["isomorphism"]
    report(12, "negative witness k -> k[e]/e^2 (H^0 dims 1 vs 2)", ok, t0)
