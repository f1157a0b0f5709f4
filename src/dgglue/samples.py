"""Seeded random instances: complexes, cubes, dg categories, filtered algebras,
graded modules, twisted complexes and glue-prime data.

Everything is driven by a `random.Random` so test runs are reproducible.
Complexes come from the split model (choose cohomology and boundary ranks,
then conjugate by random invertible matrices), which gives exact control over
acyclicity.  Cubes of complexes are tensor products of 1-cubes, so strictness
is automatic; cubes of dg categories come from refinement squares, unit
inclusions and the stack/extend calculus.
"""

from __future__ import annotations

import random

from .complexes import (Complex, GradedMap, hom_complex, tensor, tensor_map,
                        vec_to_graded_map)
from .dgcat import DgCategory, DgFunctor, algebra_category, field_category, \
    identity_functor
from .filtlab import (AlgebraMap, FilteredAlgebra, FiltError, GradedModule,
                      adic_filtration, direct_sum_modules, generated_ideal,
                      module_cokernel, refinement_square, truncated_free,
                      truncated_polynomial_algebra, free_hom_map)
from .hypercube import ComplexCube, DgCube, extend_dg, full_shape
from .linalg import Matrix
from .twisted import TwistedComplex, TwMorphism, bare, cone_tw, tw_hom, \
    vec_to_tw_morphism


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_scalar(field, rnd, nonzero=False):
    pool = [-2, -1, 1, 2, 3] if nonzero else [-2, -1, 0, 0, 1, 1, 2, 3]
    return field(rnd.choice(pool))


def random_matrix(field, rnd, rows, cols, density=0.6) -> Matrix:
    m = Matrix.zeros(field, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rnd.random() < density:
                m.set(i, j, random_scalar(field, rnd))
    return m


def random_invertible(field, rnd, n) -> Matrix:
    """A product of random elementary operations; always invertible."""
    m = Matrix.identity(field, n)
    for _ in range(2 * n + 2):
        kind = rnd.randrange(3)
        i, j = rnd.randrange(n) if n else 0, rnd.randrange(n) if n else 0
        if n == 0:
            break
        if kind == 0 and i != j:
            s = random_scalar(field, rnd)
            for c in range(n):
                m.set(i, c, field.add(m.get(i, c), field.mul(s, m.get(j, c))))
        elif kind == 1:
            s = random_scalar(field, rnd, nonzero=True)
            for c in range(n):
                m.set(i, c, field.mul(s, m.get(i, c)))
        elif kind == 2 and i != j:
            for c in range(n):
                vi, vj = m.get(i, c), m.get(j, c)
                m.set(i, c, vj)
                m.set(j, c, vi)
    return m


def random_complex(field, rnd, lo=-2, hi=2, max_dim=3, acyclic=None) -> Complex:
    """Split-model random complex; `acyclic` forces (non)vanishing cohomology."""
    degrees = list(range(lo, hi + 1))
    h = {k: rnd.randrange(0, max_dim) for k in degrees}
    b = {k: rnd.randrange(0, max_dim) for k in degrees}
    b[lo] = 0
    if acyclic is True:
        h = {k: 0 for k in degrees}
    if acyclic is False and not any(h.values()):
        h[rnd.choice(degrees)] = 1
    dims = {}
    for k in degrees:
        dims[k] = h.get(k, 0) + b.get(k, 0) + b.get(k + 1, 0)
    diffs = {}
    conj = {k: random_invertible(field, rnd, dims[k]) for k in degrees
            if dims.get(k)}
    for k in degrees:
        if not dims.get(k) or not dims.get(k + 1):
            continue
        # split differential: last b_{k+1} coordinates of C^k map onto the
        # middle b_{k+1} block of C^{k+1}
        m = Matrix.zeros(field, dims[k + 1], dims[k])
        for t in range(b.get(k + 1, 0)):
            m.set(h.get(k + 1, 0) + t, h.get(k, 0) + b.get(k, 0) + t, field.one)
        if m.is_zero():
            continue
        diffs[k] = conj[k + 1] @ (m @ conj[k].inverse())
    return Complex(field, {k: d for k, d in dims.items() if d}, diffs)


def closed_map_space(c: Complex, d: Complex, degree: int = 0):
    """Basis of closed degree-`degree` graded maps c -> d."""
    h = hom_complex(c, d)
    basis = h.cocycles(degree)
    return [vec_to_graded_map(c, d, degree, col) for col in basis.columns()]


def random_chain_map(rnd, c: Complex, d: Complex) -> GradedMap:
    basis = closed_map_space(c, d, 0)
    field = c.field
    out = GradedMap.zero(c, d, 0)
    comps = {}
    for f in basis:
        s = random_scalar(field, rnd)
        if field.is_zero(s):
            continue
        for k in c.degrees():
            m = f.comp(k).scaled(s)
            comps[k] = comps[k] + m if k in comps else m
    return GradedMap(c, d, 0, {k: m for k, m in comps.items() if not m.is_zero()})


def random_one_cube(field, rnd, acyclic=None, lo=-1, hi=1, max_dim=2):
    """A random 1-cube (chain map); acyclic=True gives a quasi-isomorphism."""
    if acyclic is True:
        c = random_complex(field, rnd, lo, hi, max_dim)
        conj = {k: random_invertible(field, rnd, c.dim(k)) for k in c.degrees()}
        d = Complex(field, dict(c.dims),
                    {k: conj[k + 1] @ (c.d(k) @ conj[k].inverse())
                     for k in c.dims if not c.d(k).is_zero()})
        f = GradedMap(c, d, 0, {k: conj[k] for k in c.degrees()})
        return c, d, f
    c = random_complex(field, rnd, lo, hi, max_dim)
    d = random_complex(field, rnd, lo, hi, max_dim)
    f = random_chain_map(rnd, c, d)
    return c, d, f


def one_cube(field, c, d, f) -> ComplexCube:
    return ComplexCube(field, {0}, full_shape({0}),
                       {frozenset(): c, frozenset({0}): d}, {(frozenset(), 0): f})


def random_tensor_cube(field, rnd, n, acyclic=None, lo=-1, hi=0,
                       max_dim=2) -> ComplexCube:
    """A strict n-cube as a tensor product of n random 1-cubes.

    acyclic=True forces one factor to be a quasi-isomorphism; acyclic=False
    makes every factor a zero map between complexes with cohomology.
    """
    factors = []
    special = rnd.randrange(n) if acyclic is True else -1
    for l in range(n):
        if acyclic is False:
            c = random_complex(field, rnd, lo, hi, max_dim, acyclic=False)
            d = random_complex(field, rnd, lo, hi, max_dim, acyclic=False)
            f = GradedMap.zero(c, d, 0)
        else:
            c, d, f = random_one_cube(field, rnd,
                                      acyclic=True if l == special else None,
                                      lo=lo, hi=hi, max_dim=max_dim)
        factors.append((c, d, f))
    vertices = {}
    edges = {}
    for I in full_shape(frozenset(range(n))):
        parts = [factors[l][1] if l in I else factors[l][0] for l in range(n)]
        cx = parts[0]
        for p in parts[1:]:
            cx = tensor(cx, p)
        vertices[I] = cx
    for I in vertices:
        for l in range(n):
            if l in I:
                continue
            maps = []
            for t in range(n):
                c, d, f = factors[t]
                if t == l:
                    maps.append(f)
                elif t in I:
                    maps.append(GradedMap.identity(d))
                else:
                    maps.append(GradedMap.identity(c))
            em = maps[0]
            for t in range(1, n):
                em = tensor_map(em, maps[t])
            # align endpoints with the stored vertex complexes
            edges[(I, l)] = GradedMap(vertices[I], vertices[I | {l}], 0,
                                      {k: em.comp(k) for k in vertices[I].degrees()})
    return ComplexCube(field, frozenset(range(n)), full_shape(frozenset(range(n))),
                       vertices, edges)


def cube_morphism_space(src: ComplexCube, tgt: ComplexCube):
    """Basis of morphisms of cubes src -> tgt (closed degree-zero, natural).

    Solved as one linear system over per-vertex hom coordinates.
    """
    from .complexes import hom_blocks
    field = src.field
    shape = sorted(src.shape, key=lambda s: tuple(sorted(s)))
    sizes = {}
    offsets = {}
    acc = 0
    for I in shape:
        total = sum(r * c for _, r, c, _ in
                    hom_blocks(src.vertices[I], tgt.vertices[I], 0))
        sizes[I] = total
        offsets[I] = acc
        acc += total
    rows = []

    # chain-map conditions per vertex: the hom-complex differential at degree 0
    for I in shape:
        h = hom_complex(src.vertices[I], tgt.vertices[I])
        d0 = h.d(0)
        for r in range(d0.nrows):
            eq = {}
            for (rr, cc), v in d0.items():
                if rr == r:
                    eq[offsets[I] + cc] = v
            if eq:
                rows.append(eq)
    # naturality per edge: f_{I+l} o e_src = e_tgt o f_I
    for (I, l), e_src in src.edges.items():
        e_tgt = tgt.edges[(I, l)]
        J = I | {l}
        sv, tv = src.vertices[I], tgt.vertices[I]
        sj, tj = src.vertices[J], tgt.vertices[J]
        from .complexes import hom_blocks as hb
        blocks_J = {i: off for i, r, c, off in hb(sj, tj, 0)}
        blocks_I = {i: off for i, r, c, off in hb(sv, tv, 0)}
        for k in sv.degrees():
            a = e_src.comp(k)
            b = e_tgt.comp(k)
            for r in range(tj.dim(k)):
                for c in range(sv.dim(k)):
                    eq = {}
                    for (mr, mc), v in a.items():
                        if k in blocks_J and mc == c:
                            idx = offsets[J] + blocks_J[k] + r * sj.dim(k) + mr
                            eq[idx] = field.add(eq.get(idx, field.zero), v)
                    for (mr, mc), v in b.items():
                        if k in blocks_I and mr == r:
                            idx = offsets[I] + blocks_I[k] + mc * sv.dim(k) + c
                            eq[idx] = field.sub(eq.get(idx, field.zero), v)
                    eq = {kk: v for kk, v in eq.items() if not field.is_zero(v)}
                    if eq:
                        rows.append(eq)
    if acc == 0:
        return []
    mat = Matrix.zeros(field, len(rows), acc)
    for r, eq in enumerate(rows):
        for cidx, v in eq.items():
            mat.set(r, cidx, v)
    basis = mat.kernel_basis() if rows else Matrix.identity(field, acc)
    out = []
    for col in basis.columns():
        comps = {}
        for I in shape:
            comps[I] = vec_to_graded_map(src.vertices[I], tgt.vertices[I], 0,
                                         col[offsets[I]:offsets[I] + sizes[I]])
        out.append(comps)
    return out


def random_cube_morphism(rnd, src: ComplexCube, tgt: ComplexCube):
    basis = cube_morphism_space(src, tgt)
    field = src.field
    comps = {I: GradedMap.zero(src.vertices[I], tgt.vertices[I], 0)
             for I in src.shape}
    for cand in basis:
        s = random_scalar(field, rnd)
        if field.is_zero(s):
            continue
        for I in src.shape:
            scaled = {k: cand[I].comp(k).scaled(s)
                      for k in src.vertices[I].degrees()}
            added = {k: comps[I].comp(k) + scaled[k]
                     for k in src.vertices[I].degrees()}
            comps[I] = GradedMap(src.vertices[I], tgt.vertices[I], 0, added)
    return comps


# -- filtered algebras -------------------------------------------------------


def _monomial_algebra(field, monomials):
    """A commutative monomial quotient on a downward-closed exponent set."""
    monomials = sorted(monomials)
    index = {m: i for i, m in enumerate(monomials)}
    dim = len(monomials)

    def mult(i, j):
        out = [field.zero] * dim
        s = tuple(a + b for a, b in zip(monomials[i], monomials[j]))
        if s in index:
            out[index[s]] = field.one
        return tuple(out)

    unit = [field.zero] * dim
    unit[index[tuple(0 for _ in monomials[0])]] = field.one
    names = tuple("*".join(f"v{t}^{e}" for t, e in enumerate(mono) if e) or "1"
                  for mono in monomials)
    return dim, mult, unit, names, monomials, index


MONOMIAL_STAIRCASES = [
    [(0,), (1,)],
    [(0,), (1,), (2,)],
    [(0,), (1,), (2,), (3,)],
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (1, 0), (0, 1), (1, 1)],
    [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)],
    [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)],
]


def random_filtered_algebra(field, rnd, max_dim=8, max_len=3) -> FilteredAlgebra:
    """A random monomial Artinian algebra with a random multiplicative filtration."""
    for _ in range(60):
        stairs = rnd.choice(MONOMIAL_STAIRCASES)
        dim, mult, unit, names, monomials, index = _monomial_algebra(field, stairs)
        if dim > max_dim:
            continue
        nvars = len(monomials[0])
        gens = []
        for t in range(nvars):
            e = tuple(1 if s == t else 0 for s in range(nvars))
            if e in index and rnd.random() < 0.9:
                vec = [field.zero] * dim
                vec[index[e]] = field.one
                gens.append(tuple(vec))
        if not gens:
            continue
        ideal = generated_ideal(
            FilteredAlgebra(field, dim, mult, unit, 1,
                            [Matrix.identity(field, dim),
                             Matrix.zeros(field, dim, 0)], names),
            gens)
        try:
            alg = adic_filtration(field, dim, mult, unit, ideal,
                                  basis_names=names)
        except FiltError:
            continue
        if alg.length <= max_len:
            return alg
    # deterministic fallback
    return truncated_polynomial_algebra(field, 2)


def random_module(alg: FilteredAlgebra, rnd, max_gens=3) -> GradedModule:
    """A random finitely presented graded module (cokernel of frees)."""
    field = alg.field
    n = alg.length
    g0 = [rnd.randrange(n) for _ in range(1 + rnd.randrange(max_gens))]
    g1 = [rnd.randrange(n) for _ in range(rnd.randrange(max_gens + 1))]
    tgt = direct_sum_modules([truncated_free(alg, k) for k in g0])
    if not g1:
        return tgt
    src = direct_sum_modules([truncated_free(alg, c) for c in g1])
    mats = []
    for c in range(n):
        rows = tgt.dims[c]
        cols = src.dims[c]
        mats.append(Matrix.zeros(field, rows, cols))
    for s, cdeg in enumerate(g1):
        for r, kdeg in enumerate(g0):
            q = alg.quot(kdeg - cdeg, kdeg - n)
            if q.dim == 0 or rnd.random() < 0.3:
                continue
            coords = tuple(random_scalar(field, rnd) for _ in range(q.dim))
            blocks = free_hom_map(alg, cdeg, kdeg, coords)
            for comp in range(n):
                roff = sum(alg.quot(g0[t] - comp, g0[t] - n).dim
                           for t in range(r))
                coff = sum(alg.quot(g1[t] - comp, g1[t] - n).dim
                           for t in range(s))
                for (rr, cc), v in blocks[comp].items():
                    mats[comp].add_at(roff + rr, coff + cc, v)
    return module_cokernel(src, tgt, mats)


# -- dg categories and cubes -------------------------------------------------


def unit_functor(field, tgt_cat: DgCategory, base: DgCategory) -> DgFunctor:
    """The unit inclusion of the field category into a one-object algebra."""
    obj = tgt_cat.objects[0]
    col = Matrix.zeros(field, tgt_cat.hom(obj, obj).dim(0), 1)
    for i, v in enumerate(tgt_cat.ids[obj]):
        col.set(i, 0, v)
    return DgFunctor(base, tgt_cat, {base.objects[0]: obj},
                     {(base.objects[0], base.objects[0]): {0: col}})


def random_commutative_algebra_category(field, rnd):
    dim, mult, unit, names, _, _ = _monomial_algebra(
        field, rnd.choice(MONOMIAL_STAIRCASES[:4]))
    return algebra_category(field, dim, mult, unit)


def random_bad_square(field, rnd) -> DgCube:
    """A square that is never acyclic: unit inclusions against a collapsing endo."""
    k = field_category(field)
    acat = random_commutative_algebra_category(field, rnd)
    obj = acat.objects[0]
    dim = acat.hom(obj, obj).dim(0)
    # the endo killing everything except the unit is an algebra map for
    # monomial algebras (unit coordinate is the first basis vector)
    m = Matrix.zeros(field, dim, dim)
    m.set(0, 0, field.one)
    collapse = DgFunctor(acat, acat, {obj: obj}, {(obj, obj): {0: m}})
    u = unit_functor(field, acat, k)
    idk = identity_functor(k)
    return DgCube(field, 2,
                  {frozenset(): k, frozenset({0}): acat,
                   frozenset({1}): k, frozenset({0, 1}): acat},
                  {(frozenset(), 0): u, (frozenset(), 1): idk,
                   (frozenset({0}), 1): collapse, (frozenset({1}), 0): u})


def random_identity_square(field, rnd) -> DgCube:
    acat = random_commutative_algebra_category(field, rnd)
    ida = identity_functor(acat)
    return DgCube(field, 2, {I: acat for I in full_shape(frozenset({0, 1}))},
                  {(frozenset(), 0): ida, (frozenset(), 1): ida,
                   (frozenset({0}), 1): ida, (frozenset({1}), 0): ida})


def random_refinement_square(field, rnd) -> DgCube:
    """An acyclic square from compatible refinements of 1-variable algebras."""
    m = rnd.choice([2, 3, 4])
    d = rnd.choice([2, 3])
    # F^{-k} = (x^{k s}) with s <= d so that (x)^d <= F^{-1}
    s = rnd.choice([t for t in range(1, min(d, m - 1) + 1)])
    powers = [0]
    while powers[-1] < m:
        powers.append(min(m, powers[-1] + s))
    alg = truncated_polynomial_algebra(field, m, powers=powers)
    x = [field.zero] * m
    x[1] = field.one
    ideal = generated_ideal(alg, [tuple(x)])
    kind = rnd.choice(["identity", "quotient", "augmentation"])
    if kind == "identity":
        tgt = truncated_polynomial_algebra(field, m, powers=powers)
        mat = Matrix.identity(field, m)
    elif kind == "quotient":
        m2 = rnd.randrange(2, m + 1)
        tgt_powers = [min(p, m2) for p in powers]
        tgt = truncated_polynomial_algebra(field, m2, powers=tgt_powers)
        mat = Matrix.zeros(field, m2, m)
        for t in range(m2):
            mat.set(t, t, field.one)
    else:
        n = len(powers) - 1
        tgt = FilteredAlgebra(field, 1, lambda i, j: (field.one,), (field.one,),
                              n, [Matrix.identity(field, 1)] +
                              [Matrix.zeros(field, 1, 0)] * n, ("1",))
        mat = Matrix.zeros(field, 1, m)
        mat.set(0, 0, field.one)
    f = AlgebraMap(alg, tgt, mat)
    return refinement_square(alg, tgt, f, ideal, d)


def random_dg_cube(field, rnd, n, want=None) -> DgCube:
    """A random strict n-cube of dg categories; `want` forces (non-)acyclicity.

    Built from squares (refinement / identity / collapsing) extended by
    themselves up to the requested dimension, so acyclicity is known by
    construction: extensions preserve both acyclicity and its failure.
    """
    if n == 1:
        k = field_category(field)
        acat = random_commutative_algebra_category(field, rnd)
        u = unit_functor(field, acat, k)
        if want is False:
            while acat.hom(acat.objects[0], acat.objects[0]).dim(0) < 2:
                acat = random_commutative_algebra_category(field, rnd)
                u = unit_functor(field, acat, k)
            return DgCube(field, 1, {frozenset(): k, frozenset({0}): acat},
                          {(frozenset(), 0): u})
        ida = identity_functor(acat)
        return DgCube(field, 1, {frozenset(): acat, frozenset({0}): acat},
                      {(frozenset(), 0): ida})
    if want is True:
        base = rnd.choice([random_refinement_square,
                           random_identity_square])(field, rnd)
    elif want is False:
        base = random_bad_square(field, rnd)
    else:
        base = rnd.choice([random_refinement_square, random_identity_square,
                           random_bad_square])(field, rnd)
    cube = base
    while cube.n < n:
        if _self_extendable(cube) and rnd.random() < 0.7:
            cube = extend_dg(cube, cube)
        else:
            cube = _extend_by_identity(cube)
    return cube


def _self_extendable(cube: DgCube) -> bool:
    from .hypercube import as_morphism_dg, dg_faces_equal
    a0, a1, _ = as_morphism_dg(cube)
    return dg_faces_equal(a1, a0)


def _extend_by_identity(cube: DgCube) -> DgCube:
    """Extend a cube by the identity morphism on its target face."""
    from .hypercube import as_morphism_dg, reassemble_dg
    a0, a1, alpha = as_morphism_dg(cube)
    ident = reassemble_dg(a1, a1, {I: identity_functor(a1.vertices[I])
                                   for I in a1.vertices}, validate=False)
    return extend_dg(cube, ident)


# -- twisted complexes -------------------------------------------------------


def random_directed_env(field, rnd, n, hom_lo=-1, hom_hi=1, max_dim=2):
    """A directed category with n one-object blocks and complex-valued
    connecting bimodules with scalar actions; returns (category, block_of)."""
    from .dgcat import Bimodule, directed_assemble
    from .complexes import hom_complex, tensor
    comps = [field_category(field, obj=f"o{i}") for i in range(n)]
    vals = {}
    for j in range(n):
        for i in range(j):
            vals[(j, i)] = random_complex(field, rnd, hom_lo, hom_hi, max_dim)
    bimods = {}
    for (j, i), V in vals.items():
        def make(V):
            return Bimodule(comps[i], comps[j], {(f"o{i}", f"o{j}"): V},
                            lambda b, a1, a2, ii, jj, V=V:
                                Matrix.identity(field, V.dim(jj)),
                            lambda b2, b1, a, ii, jj, V=V:
                                Matrix.identity(field, V.dim(ii)))
        bimods[(j, i)] = make(V)
    mults = {}
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(k + 1, n):
                # phi_{jk} (x) phi_{ki} -> phi_{ji}: a random chain map
                big = tensor(vals[(j, k)], vals[(k, i)])
                basis = closed_map_space(big, vals[(j, i)], 0)
                chosen = None
                for f in basis:
                    if rnd.random() < 0.7:
                        chosen = f if chosen is None else chosen
                if chosen is None and basis:
                    chosen = basis[0]

                def table(x, y, z, p, q, chosen=chosen, big=big,
                          Vjk=vals[(j, k)], Vki=vals[(k, i)], Vji=vals[(j, i)]):
                    rows = Vji.dim(p + q)
                    cols = Vjk.dim(p) * Vki.dim(q)
                    if chosen is None or rows == 0 or cols == 0:
                        return Matrix.zeros(field, rows, cols)
                    # locate the (p, q) block inside the tensor complex
                    out = Matrix.zeros(field, rows, cols)
                    pairs = [(a, p + q - a) for a in
                             range(Vjk.lo, Vjk.hi + 1)
                             if Vjk.dim(a) and Vki.dim(p + q - a)]
                    off = 0
                    for a, b in pairs:
                        w = Vjk.dim(a) * Vki.dim(b)
                        if (a, b) == (p, q):
                            m = chosen.comp(p + q)
                            for (r, c), v in m.items():
                                if off <= c < off + w:
                                    out.set(r, c - off, v)
                        off += w
                    return out

                mults[(j, k, i)] = table
    cat = directed_assemble(comps, bimods, mults)
    block_of = {f"{i}:o{i}": i for i in range(n)}
    return cat, block_of


def random_glue_prime_object(cat, block_of, n, rnd):
    """A valid glue-prime object over a directed environment."""
    from .twisted import GluePrimeObject, tw_compose, tw_d, tw_scale, \
        tw_morphism_to_vec
    field = cat.field
    by_block = {}
    for obj, blk in block_of.items():
        by_block.setdefault(blk, []).append(obj)
    comps = [random_twisted_complex(cat, rnd, depth=rnd.randrange(1, 3),
                                    objects=by_block[i]) for i in range(n)]
    mu = {}
    for i in range(n - 1):
        f = random_closed_tw_morphism(rnd, comps[i], comps[i + 1], 0)
        if not f.is_zero():
            mu[(i, i + 1)] = f
    if n >= 3:
        for i in range(n - 2):
            j = i + 2
            m01 = mu.get((i, i + 1), TwMorphism(comps[i], comps[i + 1], 0, {}))
            m12 = mu.get((i + 1, j), TwMorphism(comps[i + 1], comps[j], 0, {}))
            sgn = field.one if (n - 1 - j) % 2 == 0 else field.neg(field.one)
            w = tw_scale(field.neg(sgn), tw_compose(m12, m01))
            h = tw_hom(comps[i], comps[j])
            wvec = Matrix.column(field, tw_morphism_to_vec(w))
            sol = h.d(i - j + 1).solve(wvec)
            if sol is None:
                # fall back to an exact mu_{i,i+1}: then the correction term
                # is exact by construction
                lam_vec = [random_scalar(field, rnd)
                           for _ in range(tw_hom(comps[i], comps[i + 1]).dim(-1))]
                lam = vec_to_tw_morphism(comps[i], comps[i + 1], -1, lam_vec)
                m01 = tw_d(lam)
                if m01.is_zero():
                    mu.pop((i, i + 1), None)
                    continue
                mu[(i, i + 1)] = m01
                entry = tw_scale(field.neg(sgn), tw_compose(m12, lam))
                if not entry.is_zero():
                    mu[(i, j)] = entry
            else:
                flat = [v for row in sol.to_lists() for v in row]
                assert len(flat) == h.dim(i - j + 1), (len(flat), sol.shape, h.dims)
                entry = vec_to_tw_morphism(comps[i], comps[j], i - j + 1, flat)
                if not entry.is_zero():
                    mu[(i, j)] = entry
    return GluePrimeObject(cat, block_of, n, comps, mu)


def random_closed_gp_morphism(rnd, gp1, gp2, degree: int = 0):
    from .twisted import glue_prime_hom, vec_to_gp_morphism
    return vec_to_gp_morphism(gp1, gp2, degree, random_cocycle(
        rnd, glue_prime_hom(gp1, gp2), degree))


def random_closed_tw_morphism(rnd, t1: TwistedComplex, t2: TwistedComplex,
                              degree: int = 0) -> TwMorphism:
    return vec_to_tw_morphism(t1, t2, degree,
                              random_cocycle(rnd, tw_hom(t1, t2), degree))


def random_cocycle(rnd, h: Complex, degree: int) -> list:
    """A random combination of the cocycle basis of h at `degree`: one scalar
    drawn per basis vector."""
    field = h.field
    vec = [field.zero] * h.dim(degree)
    for col in h.cocycles(degree).columns():
        s = random_scalar(field, rnd)
        if field.is_zero(s):
            continue
        vec = [field.add(a, field.mul(s, b)) for a, b in zip(vec, col)]
    return vec


def random_twisted_complex(cat: DgCategory, rnd, depth: int = 2,
                           objects=None) -> TwistedComplex:
    """An iterated cone of random closed morphisms between bare objects."""
    objects = list(objects) if objects is not None else list(cat.objects)
    pool = [bare(cat, rnd.choice(objects), rnd.randrange(-1, 2))
            for _ in range(2)]
    for _ in range(depth):
        t1 = rnd.choice(pool)
        t2 = rnd.choice(pool)
        f = random_closed_tw_morphism(rnd, t1, t2)
        pool.append(cone_tw(f))
    return pool[-1]
