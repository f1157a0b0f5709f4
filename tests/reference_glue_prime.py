"""Reference glue-prime calculus for differential tests of `dgglue.twisted`.

These are the functions the package shipped before a glue-prime object
became one twisted complex (its convolution) and the glue-prime operations
became the twisted ones on it.  They restate the signs of `tw_d` and
`maurer_cartan_defect` block by block, and `glue_prime_hom` builds its
differential one unit vector at a time.  They are kept verbatim in
behaviour (`mu_defect` as a function of the object), so every hom complex,
morphism and verdict of the convolution path must equal theirs exactly.
"""

from dgglue.complexes import Complex
from dgglue.linalg import Matrix
from dgglue.twisted import (GpMorphism, tw_add, tw_compose, tw_d, tw_hom,
                            tw_morphism_to_vec, tw_scale, vec_to_tw_morphism)


def mu_defect(x):
    """First (i, j) where (-1)^{n-1-j} d mu_ij + sum_k mu_kj mu_ik != 0."""
    field = x.cat.field
    for i in range(x.n):
        for j in range(i + 1, x.n):
            sgn = field.one if (x.n - 1 - j) % 2 == 0 else field.neg(field.one)
            acc = tw_scale(sgn, tw_d(x.mu_elt(i, j)))
            for k in range(i + 1, j):
                acc = tw_add(acc, tw_compose(x.mu_elt(k, j), x.mu_elt(i, k)))
            if not acc.is_zero():
                return (i, j)
    return None


def gp_add(f: GpMorphism, g: GpMorphism) -> GpMorphism:
    out = dict(f.entries)
    for key, e in g.entries.items():
        out[key] = tw_add(out[key], e) if key in out else e
    out = {k: v for k, v in out.items() if not v.is_zero()}
    return GpMorphism(f.src, f.tgt, f.degree, out)


def gp_compose(f: GpMorphism, g: GpMorphism) -> GpMorphism:
    """f after g: (f g)_{ij} = sum_k f_{kj} g_{ik}."""
    out = {}
    for (i, k), ge in g.entries.items():
        for (k2, j), fe in f.entries.items():
            if k2 != k:
                continue
            prod = tw_compose(fe, ge)
            if prod.is_zero():
                continue
            key = (i, j)
            out[key] = tw_add(out[key], prod) if key in out else prod
    return GpMorphism(g.src, f.tgt, f.degree + g.degree,
                      {k: v for k, v in out.items() if not v.is_zero()})


def gp_d(f: GpMorphism) -> GpMorphism:
    """(d f)_{ij} = (-1)^{n-1-j} d f_ij + sum_k (nu_kj f_ik - (-1)^{|f|} f_kj mu_ik)."""
    field = f.src.cat.field
    n = f.src.n
    out = {}

    def acc(key, tw):
        if tw.is_zero():
            return
        out[key] = tw_add(out[key], tw) if key in out else tw

    fsgn = field.one if f.degree % 2 == 0 else field.neg(field.one)
    for i in range(n):
        for j in range(i, n):
            sgn = field.one if (n - 1 - j) % 2 == 0 else field.neg(field.one)
            term = tw_scale(sgn, tw_d(f.entry(i, j)))
            acc((i, j), term)
    for (i, k), fe in f.entries.items():
        for j in range(k + 1, n):
            nu = f.tgt.mu.get((k, j))
            if nu is not None:
                acc((i, j), tw_compose(nu, fe))
    for (k, j), fe in f.entries.items():
        for i in range(k):
            mu = f.src.mu.get((i, k))
            if mu is not None:
                acc((i, j), tw_scale(field.neg(fsgn), tw_compose(fe, mu)))
    return GpMorphism(f.src, f.tgt, f.degree + 1,
                      {k: v for k, v in out.items() if not v.is_zero()})


def glue_prime_hom(x, y) -> Complex:
    """Hom complex of the explicit-cone gluing: blocks tw-hom(M_i, N_j)[i-j]."""
    field = x.cat.field
    pairs = [(i, j) for i in range(x.n) for j in range(y.n) if i <= j]
    homs = {(i, j): tw_hom(x.comps[i], y.comps[j]) for i, j in pairs}
    degrees = set()
    for (i, j), h in homs.items():
        for m in h.degrees():
            degrees.add(m - i + j)
    dims = {}
    for m in sorted(degrees):
        dims[m] = sum(homs[(i, j)].dim(m + i - j) for i, j in pairs)
    diffs = {}
    for m in sorted(degrees):
        if not dims.get(m) or not dims.get(m + 1):
            continue
        src_dims = [homs[p].dim(m + p[0] - p[1]) for p in pairs]
        tgt_dims = [homs[p].dim(m + 1 + p[0] - p[1]) for p in pairs]
        cols = []
        for bi, (i, j) in enumerate(pairs):
            d = src_dims[bi]
            for ci in range(d):
                vec = [field.zero] * d
                vec[ci] = field.one
                fm = vec_to_tw_morphism(x.comps[i], y.comps[j], m + i - j, vec)
                gp = GpMorphism(x, y, m, {(i, j): fm})
                dgp = gp_d(gp)
                col = []
                for (i2, j2) in pairs:
                    col.extend(tw_morphism_to_vec(dgp.entry(i2, j2)))
                cols.append(col)
        mat = Matrix.zeros(field, sum(tgt_dims), len(cols))
        for ci, col in enumerate(cols):
            for r, v in enumerate(col):
                if not field.is_zero(v):
                    mat.set(r, ci, v)
        diffs[m] = mat
    return Complex(field, dims, diffs, validate=False)
