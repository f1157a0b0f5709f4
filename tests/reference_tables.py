"""Reference composition and action tables for differential tests of
`dgglue.dgcat`, `dgglue.glue` and `dgglue.twisted`.

These are the builders the package shipped before its tables became block
products.  Each makes a unit vector per basis element, wraps it in a
`HomElt`, pushes and composes it through `DgCategory.compose`, and writes
the result back one entry at a time.  They are kept verbatim in behaviour,
so every table, map and verdict of the block-product path must equal
theirs exactly.
"""

from dgglue.complexes import GradedMap, cohomology_basis, zero_complex
from dgglue.dgcat import (Bimodule, DgCategory, DgError, H0Category, HomElt,
                          block_label)
from dgglue.glue import (GacCategory, GlueError, _label, _pair_objs,
                         pi_morphism, pi_object)
from dgglue.hypercube import (bimodule_cube, interval_shape, punctured_shape,
                              t_layout, totalize)
from dgglue.linalg import Matrix
from dgglue.twisted import (_hom_layout, tw_compose, tw_hom, tw_identity,
                            tw_morphism_to_vec, vec_to_tw_morphism)


# -- dgcat ------------------------------------------------------------------


def left_mult(cat, g, a):
    """Post-composition with g in hom(b, c): hom(a, b) -> hom(a, c)."""
    source = cat.hom(a, g.src)
    target = cat.hom(a, g.tgt)
    field = cat.field
    comps = {}
    for j in source.degrees():
        m = cat.comp_matrix(a, g.src, g.tgt, g.degree, j)
        nj = source.dim(j)
        out = Matrix.zeros(field, target.dim(j + g.degree), nj)
        for (r, col), v in m.items():
            gi, fi = divmod(col, nj)
            if not field.is_zero(g.vec[gi]):
                out.add_at(r, fi, field.mul(v, g.vec[gi]))
        comps[j] = out
    return GradedMap(source, target, g.degree, comps)


def right_mult(cat, f, c):
    """Pre-composition with f in hom(a, b): hom(b, c) -> hom(a, c)."""
    source = cat.hom(f.tgt, c)
    target = cat.hom(f.src, c)
    field = cat.field
    comps = {}
    for i in source.degrees():
        m = cat.comp_matrix(f.src, f.tgt, c, i, f.degree)
        nj = len(f.vec)
        out = Matrix.zeros(field, target.dim(i + f.degree), source.dim(i))
        for (r, col), v in m.items():
            gi, fi = divmod(col, nj)
            if not field.is_zero(f.vec[fi]):
                out.add_at(r, gi, field.mul(v, f.vec[fi]))
        comps[i] = out
    return GradedMap(source, target, f.degree, comps)


def act_left(phi, u, b, m_deg):
    field = phi.cat_a.field
    mat = phi.left_act(b, u.src, u.tgt, u.degree, m_deg)
    nj = phi.values(b, u.src).dim(m_deg)
    out = Matrix.zeros(field, phi.values(b, u.tgt).dim(m_deg + u.degree), nj)
    for (r, col), v in mat.items():
        ui, mi = divmod(col, nj)
        if not field.is_zero(u.vec[ui]):
            out.add_at(r, mi, field.mul(v, u.vec[ui]))
    return out


def act_right(phi, v, a, m_deg):
    field = phi.cat_a.field
    mat = phi.right_act(v.src, v.tgt, a, m_deg, v.degree)
    nj = len(v.vec)
    out = Matrix.zeros(field, phi.values(v.src, a).dim(m_deg + v.degree),
                       phi.values(v.tgt, a).dim(m_deg))
    for (r, col), w in mat.items():
        mi, vi = divmod(col, nj)
        if not field.is_zero(v.vec[vi]):
            out.add_at(r, mi, field.mul(w, v.vec[vi]))
    return out


def restricted_diagonal(cat, f, g):
    values = {}
    for b in g.source.objects:
        for a in f.source.objects:
            values[(b, a)] = cat.hom(g.obj_map[b], f.obj_map[a])

    def left_act(b, a1, a2, i, j):
        field = cat.field
        gb = g.obj_map[b]
        src_dim = f.source.hom(a1, a2).dim(i)
        m_dim = cat.hom(gb, f.obj_map[a1]).dim(j)
        out = Matrix.zeros(field, cat.hom(gb, f.obj_map[a2]).dim(i + j),
                           src_dim * m_dim)
        for us in range(src_dim):
            fu = f.apply(f.source.basis_elt(a1, a2, i, us))
            m = left_mult(cat, fu, gb).comp(j)
            for (r, mi), w in m.items():
                out.add_at(r, us * m_dim + mi, w)
        return out

    def right_act(b2, b1, a, i, j):
        field = cat.field
        fa = f.obj_map[a]
        v_dim = g.source.hom(b2, b1).dim(j)
        m_dim = cat.hom(g.obj_map[b1], fa).dim(i)
        out = Matrix.zeros(field, cat.hom(g.obj_map[b2], fa).dim(i + j),
                           m_dim * v_dim)
        for vs in range(v_dim):
            gv = g.apply(g.source.basis_elt(b2, b1, j, vs))
            m = right_mult(cat, gv, fa).comp(i)
            for (r, mi), w in m.items():
                out.add_at(r, mi * v_dim + vs, w)
        return out

    return Bimodule(g.source, f.source, values, left_act, right_act)


def directed_assemble(components, bimods=None, mults=None):
    bimods = bimods or {}
    mults = mults or {}
    components = list(components)
    field = components[0].field
    objects = []
    where = {}
    for i, comp in enumerate(components):
        for x in comp.objects:
            lbl = block_label(i, x)
            objects.append(lbl)
            where[lbl] = (i, x)

    hom = {}
    for la in objects:
        for lb in objects:
            i, x = where[la]
            j, y = where[lb]
            if i == j:
                hom[(la, lb)] = components[i].hom(x, y)
            elif i < j:
                phi = bimods.get((j, i))
                if phi is not None:
                    hom[(la, lb)] = phi.values(x, y)

    def comp_fn(la, lb, lc, i_deg, j_deg):
        ia, x = where[la]
        ib, y = where[lb]
        ic, z = where[lc]
        rows = hom.get((la, lc), zero_complex(field)).dim(i_deg + j_deg)
        cols = hom.get((lb, lc), zero_complex(field)).dim(i_deg) * \
            hom.get((la, lb), zero_complex(field)).dim(j_deg)
        if rows == 0 or cols == 0:
            return Matrix.zeros(field, rows, cols)
        if ia == ib == ic:
            return components[ia].comp_matrix(x, y, z, i_deg, j_deg)
        if ia == ib < ic:
            return _right_action_table(bimods[(ic, ia)], x, y, z, i_deg, j_deg)
        if ia < ib == ic:
            return _left_action_table(bimods[(ic, ia)], x, y, z, i_deg, j_deg)
        if ia < ib < ic:
            table = mults.get((ic, ib, ia))
            if table is None:
                raise DgError(f"missing multiplication map for blocks "
                              f"({ic},{ib},{ia})")
            m = table(x, y, z, i_deg, j_deg) if callable(table) else \
                table.get(((x, y, z), (i_deg, j_deg)))
            if m is None:
                m = Matrix.zeros(field, rows, cols)
            return m
        return Matrix.zeros(field, rows, cols)

    ids = {}
    for lbl in objects:
        i, x = where[lbl]
        ids[lbl] = components[i].ids[x]
    return DgCategory(field, objects, hom, comp_fn, ids)


def _right_action_table(phi, x, y, z, i_deg, j_deg):
    field = phi.cat_a.field
    src_g = phi.values(y, z).dim(i_deg)
    src_f = phi.cat_b.hom(x, y).dim(j_deg)
    out = Matrix.zeros(field, phi.values(x, z).dim(i_deg + j_deg), src_g * src_f)
    for fi in range(src_f):
        v = phi.cat_b.basis_elt(x, y, j_deg, fi)
        m = act_right(phi, v, z, i_deg)
        for (r, gi), w in m.items():
            out.add_at(r, gi * src_f + fi, w)
    return out


def _left_action_table(phi, x, y, z, i_deg, j_deg):
    field = phi.cat_a.field
    src_g = phi.cat_a.hom(y, z).dim(i_deg)
    src_f = phi.values(x, y).dim(j_deg)
    out = Matrix.zeros(field, phi.values(x, z).dim(i_deg + j_deg), src_g * src_f)
    for gi in range(src_g):
        u = phi.cat_a.basis_elt(y, z, i_deg, gi)
        m = act_left(phi, u, x, j_deg)
        for (r, fi), w in m.items():
            out.add_at(r, gi * src_f + fi, w)
    return out


def h0_category(cat):
    field = cat.field
    reps = {}
    projs = {}
    cycles = {}
    for a in cat.objects:
        for b in cat.objects:
            r, p, z = cohomology_basis(cat.hom(a, b), 0)
            reps[(a, b)] = r
            projs[(a, b)] = p
            cycles[(a, b)] = z
    hom_dims = {pair: reps[pair].ncols for pair in reps}
    rep_cols = {pair: reps[pair].columns() for pair in reps}

    def to_h0(pair, vec):
        coords = cycles[pair].solve(Matrix.column(field, vec))
        if coords is None:
            raise DgError("element is not a cocycle")
        return (projs[pair] @ coords).columns()[0]

    comp = {}
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                nbc, nab = hom_dims[(b, c)], hom_dims[(a, b)]
                nac = hom_dims[(a, c)]
                m = Matrix.zeros(field, nac, nbc * nab)
                for gi in range(nbc):
                    g = HomElt(b, c, 0, rep_cols[(b, c)][gi])
                    for fi in range(nab):
                        f = HomElt(a, b, 0, rep_cols[(a, b)][fi])
                        gf = cat.compose(g, f)
                        for r, v in enumerate(to_h0((a, c), gf.vec)):
                            if not field.is_zero(v):
                                m.add_at(r, gi * nab + fi, v)
                comp[(a, b, c)] = m
    ids = {a: to_h0((a, a), cat.id_elt(a).vec) for a in cat.objects}
    return H0Category(cat.objects, hom_dims, comp, ids)


# -- glue -------------------------------------------------------------------


def gac(cube):
    n = cube.n
    field = cube.field
    comp_objs = {i: cube.vertices[frozenset({i})].objects for i in range(n)}
    labels = [(i, x) for i in range(n) for x in comp_objs[i]]
    objects = [_label(i, x) for i, x in labels]

    pair_cubes = {}
    hom = {}
    for i, x in labels:
        for j, y in labels:
            if i > j:
                continue
            la, lb = _label(i, x), _label(j, y)
            shape = interval_shape({i, j}, set(range(i, j + 1)))
            pc = bimodule_cube(cube, x, y, shape=shape,
                               a_vertex={i}, b_vertex={j},
                               top=set(range(i, j + 1)))
            pair_cubes[(la, lb)] = pc
            hom[(la, lb)] = totalize(pc)

    out = GacCategory(cube, None, pair_cubes)

    def comp_fn(la, lb, lc, deg_i, deg_j):
        i = out.component_of(la)
        j = out.component_of(lb)
        rows = hom.get((la, lc), None)
        rows = rows.dim(deg_i + deg_j) if rows is not None else 0
        nbc = hom.get((lb, lc))
        nbc = nbc.dim(deg_i) if nbc is not None else 0
        nab = hom.get((la, lb))
        nab = nab.dim(deg_j) if nab is not None else 0
        mat = Matrix.zeros(field, rows, nbc * nab)
        if rows == 0 or nbc == 0 or nab == 0:
            return mat
        g_layout = out.layout(lb, lc, deg_i)
        f_layout = out.layout(la, lb, deg_j)
        tgt_layout = out.layout(la, lc, deg_i + deg_j)
        tgt_off = {(I, a): off for I, a, d, off in tgt_layout}
        for Ig, ag, dg, offg in g_layout:
            for If, af, df, offf in f_layout:
                J = Ig | If
                key = (J, ag + af)
                if key not in tgt_off:
                    continue
                # Koszul sign: g passes the X-word of f
                word_f = frozenset(range(i, j + 1)) - If
                sgn_exp = ag * len(word_f)
                sgn = field.one if sgn_exp % 2 == 0 else field.neg(field.one)
                push_g = cube.push_functor(Ig, J)
                push_f = cube.push_functor(If, J)
                amb = cube.vertices[J]
                base = tgt_off[key]
                xg, yg = _pair_objs(cube, lb, lc, Ig)
                xf, yf = _pair_objs(cube, la, lb, If)
                for gi in range(dg):
                    vecg = [field.zero] * dg
                    vecg[gi] = field.one
                    ge = HomElt(xg, yg, ag, tuple(vecg))
                    ge_p = push_g.apply(ge) if J != Ig else ge
                    for fi in range(df):
                        vecf = [field.zero] * df
                        vecf[fi] = field.one
                        fe = HomElt(xf, yf, af, tuple(vecf))
                        fe_p = push_f.apply(fe) if J != If else fe
                        prod = amb.compose(ge_p, fe_p)
                        col = (offg + gi) * nab + (offf + fi)
                        for r, v in enumerate(prod.vec):
                            if not field.is_zero(v):
                                mat.add_at(base + r, col, field.mul(sgn, v))
        return mat

    ids = {}
    for i, x in labels:
        comp_cat = cube.vertices[frozenset({i})]
        ids[_label(i, x)] = tuple(comp_cat.ids[x])
    out.category = DgCategory(field, objects, hom, comp_fn, ids)
    return out


def pi_comparison_map(g, a, b):
    cube = g.cube
    init = cube.initial()
    src = init.hom(a, b)
    pia, pib = pi_object(g, a), pi_object(g, b)
    tgt = tw_hom(pia, pib)
    field = cube.field
    comps = {}
    for m in src.degrees():
        mat = Matrix.zeros(field, tgt.dim(m), src.dim(m))
        for idx in range(src.dim(m)):
            f = init.basis_elt(a, b, m, idx)
            vec = tw_morphism_to_vec(pi_morphism(g, f, pia, pib))
            for r, v in enumerate(vec):
                if not field.is_zero(v):
                    mat.set(r, idx, v)
        comps[m] = mat
    return GradedMap(src, tgt, 0, comps)


def hom_iso_check(cube, a, b, g):
    n = cube.n
    field = cube.field
    init = cube.initial()
    punct = bimodule_cube(cube, a, b, shape=punctured_shape(cube.top))
    T = totalize(punct)
    pia, pib = pi_object(g, a), pi_object(g, b)
    H = tw_hom(pia, pib)
    T1 = T.shift(1)
    Hn = H.shift(n)

    def tw_block_offsets(m):
        out = {}
        off = 0
        for (q, p), a_deg, d, _ in _hom_layout(pia, pib, m):
            out[(q, p, a_deg)] = off
            off += d
        return out

    comps = {}
    for k in T1.degrees():
        mat = Matrix.zeros(field, Hn.dim(k), T1.dim(k))
        tw_off = tw_block_offsets(k + n)
        src_off = 0
        for I, a_deg, d in t_layout(punct, k + 1):
            i, j = min(I), max(I)
            p, q = n - 1 - i, n - 1 - j
            gac_deg = (k + n) + q - p
            base = tw_off.get((q, p, gac_deg))
            if base is None:
                raise GlueError("internal: missing tw block in comparison map")
            inner = None
            for J, a2, d2, off2 in g.layout(pia.terms[p][0], pib.terms[q][0],
                                            gac_deg):
                if J == I and a2 == a_deg:
                    inner = off2
                    break
            if inner is None:
                raise GlueError("internal: missing Gac summand in comparison map")
            exp = (n - i - 1) * a_deg + (n - 1) * len(I) - i
            sgn = field.one if exp % 2 == 0 else field.neg(field.one)
            for r in range(d):
                mat.set(base + inner + r, src_off + r, sgn)
            src_off += d
        comps[k] = mat
    iso = GradedMap(T1, Hn, 0, comps)
    if not (iso.is_closed() and iso.is_iso()):
        return False

    hom_ab = init.hom(a, b)
    for m in hom_ab.degrees():
        for idx in range(hom_ab.dim(m)):
            f = init.basis_elt(a, b, m, idx)
            t_deg = m - (n - 1)
            vec = [field.zero] * T.dim(t_deg)
            off = 0
            for I, a_deg, d, in t_layout(punct, t_deg):
                if len(I) == 1 and a_deg == m:
                    i = min(I)
                    push = cube.push_functor(frozenset(), I)
                    vf = push.apply(f)
                    sgn = field.one if (n - 1 - i) % 2 == 0 else field.neg(field.one)
                    for r, v in enumerate(vf.vec):
                        vec[off + r] = field.mul(sgn, v)
                off += d
            lhs = iso.comp(t_deg - 1).apply(vec)
            rhs = tw_morphism_to_vec(pi_morphism(g, f, pia, pib))
            if tuple(lhs) != tuple(rhs):
                return False
    return True


# -- twisted ----------------------------------------------------------------


def tw_category(cat, objs):
    names = sorted(objs)
    tws = dict(objs)
    hom = {(n1, n2): tw_hom(tws[n1], tws[n2]) for n1 in names for n2 in names}

    def comp_fn(a, b, c, i_deg, j_deg):
        field = cat.field
        rows = hom[(a, c)].dim(i_deg + j_deg)
        nbc = hom[(b, c)].dim(i_deg)
        nab = hom[(a, b)].dim(j_deg)
        out = Matrix.zeros(field, rows, nbc * nab)
        for gi in range(nbc):
            gvec = [field.zero] * nbc
            gvec[gi] = field.one
            g = vec_to_tw_morphism(tws[b], tws[c], i_deg, gvec)
            for fi in range(nab):
                fvec = [field.zero] * nab
                fvec[fi] = field.one
                fm = vec_to_tw_morphism(tws[a], tws[b], j_deg, fvec)
                prod = tw_morphism_to_vec(tw_compose(g, fm))
                for r, v in enumerate(prod):
                    if not field.is_zero(v):
                        out.add_at(r, gi * nab + fi, v)
        return out

    ids = {n: tw_morphism_to_vec(tw_identity(tws[n])) for n in names}
    return DgCategory(cat.field, names, hom, comp_fn, ids)
