"""Reference versions of the quasi-isomorphism test and of functor
composition, for differential tests of `dgglue.complexes.is_quasi_iso` and
`dgglue.dgcat.compose_functors`.

These are the versions the package shipped before the quasi-iso test read
cohomology dimensions first and before identity factors composed without
products: the induced map is built in every degree of the joint window
widened by one, and every composite matrix is a product.
"""

from dgglue.complexes import induced_cohomology_map
from dgglue.dgcat import DgFunctor


def is_quasi_iso(f):
    lo = min(f.source.lo, f.target.lo) - 1
    hi = max(f.source.hi, f.target.hi) + 1
    for k in range(lo, hi + 1):
        m = induced_cohomology_map(f, k)
        if m.nrows != m.ncols or m.rank() != m.nrows:
            return False
    return True


def compose_functors(g, f):
    obj_map = {a: g.obj_map[f.obj_map[a]] for a in f.source.objects}
    maps = {}
    for a in f.source.objects:
        for b in f.source.objects:
            h = f.source.hom(a, b)
            maps[(a, b)] = {
                k: g.hom_matrix(f.obj_map[a], f.obj_map[b], k) @ f.hom_matrix(a, b, k)
                for k in h.degrees()}
    return DgFunctor(f.source, g.target, obj_map, maps)
