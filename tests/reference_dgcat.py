"""Reference axiom checks for differential tests of `dgglue.dgcat` and
`dgglue.filtlab`.

These are the element-by-element validators and the solve-per-call
`fil_coords` the package shipped before its axioms became matrix identities
and its filtration coordinates a cached left inverse.  They are kept
verbatim in behaviour: every basis element (or pair, or triple) is composed
through `DgCategory.compose`, so the violation lists, their order, their
repeats and the report cap are the ones the matrix path must reproduce.
"""

from dgglue.dgcat import elt_add, elt_scale
from dgglue.filtlab import FiltError
from dgglue.linalg import Matrix


def validate_category(cat, max_report=20):
    bad = []
    field = cat.field

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    for a in cat.objects:
        ida = cat.id_elt(a)
        if len(ida.vec) != cat.hom(a, a).dim(0):
            report(f"identity of {a!r} has wrong length")
            continue
        if not cat.d_elt(ida).is_zero(field):
            report(f"identity of {a!r} is not closed")
    # units act as identities
    for a in cat.objects:
        for b in cat.objects:
            idb, ida = cat.id_elt(b), cat.id_elt(a)
            for f in cat.hom_basis(a, b):
                if cat.compose(idb, f).vec != f.vec:
                    report(f"left unit fails on hom({a!r},{b!r}) deg {f.degree}")
                    break
                if cat.compose(f, ida).vec != f.vec:
                    report(f"right unit fails on hom({a!r},{b!r}) deg {f.degree}")
                    break
    # Leibniz: d(g f) = dg f + (-1)^|g| g df
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                for g in cat.hom_basis(b, c):
                    sgn = field.one if g.degree % 2 == 0 else field.neg(field.one)
                    for f in cat.hom_basis(a, b):
                        lhs = cat.d_elt(cat.compose(g, f))
                        rhs = elt_add(field, cat.compose(cat.d_elt(g), f),
                                      elt_scale(field, sgn, cat.compose(g, cat.d_elt(f))))
                        if lhs.vec != rhs.vec:
                            report(f"Leibniz fails at ({a!r},{b!r},{c!r}) on "
                                   f"degrees ({g.degree},{f.degree})")
                            break
    # associativity
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                for e in cat.objects:
                    for h in cat.hom_basis(c, e):
                        for g in cat.hom_basis(b, c):
                            hg = cat.compose(h, g)
                            for f in cat.hom_basis(a, b):
                                if cat.compose(hg, f).vec != \
                                        cat.compose(h, cat.compose(g, f)).vec:
                                    report(f"associativity fails at "
                                           f"({a!r},{b!r},{c!r},{e!r})")
                                    break
    return bad


def validate_functor(F, max_report=20):
    bad = []
    src, tgt = F.source, F.target

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    for a in src.objects:
        if a not in F.obj_map or F.obj_map[a] not in tgt.objects:
            report(f"object map misses {a!r}")
            return bad
    for a in src.objects:
        if F.apply(src.id_elt(a)).vec != tgt.id_elt(F.obj_map[a]).vec:
            report(f"functor does not preserve identity of {a!r}")
    for a in src.objects:
        for b in src.objects:
            if not F.hom_graded_map(a, b).is_closed():
                report(f"hom map ({a!r},{b!r}) does not commute with d")
    for a in src.objects:
        for b in src.objects:
            for c in src.objects:
                for g in src.hom_basis(b, c):
                    Fg = F.apply(g)
                    for f in src.hom_basis(a, b):
                        if F.apply(src.compose(g, f)).vec != \
                                tgt.compose(Fg, F.apply(f)).vec:
                            report(f"functor breaks composition at ({a!r},{b!r},{c!r})")
                            break
    return bad


def fil_coords(alg, s, vec):
    """Coordinates of an ambient vector in the F^s basis of `alg`."""
    sol = alg.fil(s).solve(Matrix.column(alg.field, vec))
    if sol is None:
        raise FiltError(f"vector is not in F^{s}")
    return tuple(x for row in sol.to_lists() for x in row)
