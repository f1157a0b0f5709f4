"""Reference graded-module constructions for differential tests of
`dgglue.filtlab`.

These are the module functions the package shipped while each action
`act[(j, k)]` was a list of matrices, one per F^{-j} basis vector: every
construction calls `act_deg` once per basis or unit vector, the three
subquotients (`truncate`, `module_cokernel`, `tensor_n`) and the two
equivariance systems (`module_hom`, `auslander_module_hom`) are written out
separately, and `validate_module` checks its laws element by element.  They
are kept verbatim in behaviour, so every module document, hom basis and
violation list of the matrix path must equal theirs exactly.
"""

from dataclasses import dataclass

from dgglue.filtlab import (AuslanderAlgebra, FiltError, FilteredAlgebra,
                            free_hom_map)
from dgglue.io import matrix_out
from dgglue.linalg import Matrix, mul_kron, quotient_maps
from dgglue.samples import random_scalar


class GradedModule:
    """A length-L graded module over the Rees algebra of a filtered algebra.

    dims[k] is the dimension of the component in degree -k (k = 0..L-1);
    tau[k]: degree -k -> degree -k+1 for k = 1..L-1; act[(j, k)] is the list,
    over the F^{-j} basis, of action matrices degree -k -> degree -k-j.
    """

    def __init__(self, alg: FilteredAlgebra, length: int, dims, tau: dict,
                 act: dict):
        self.alg = alg
        self.length = length
        self.dims = list(dims)
        if len(self.dims) != length:
            raise FiltError("need one component dimension per window degree")
        self.tau = dict(tau)
        self.act = dict(act)

    def dim_at(self, d: int) -> int:
        """Dimension of the degree-d component (canonical copies above 0)."""
        if d > 0:
            d = 0
        k = -d
        if k >= self.length:
            return 0
        return self.dims[k]

    def tau_at(self, d: int) -> Matrix:
        """Transition map from degree d to degree d+1."""
        if d >= 0:
            return Matrix.identity(self.alg.field, self.dim_at(0))
        k = -d
        if k >= self.length:
            return Matrix.zeros(self.alg.field, self.dim_at(d + 1), 0)
        m = self.tau.get(k)
        if m is None:
            return Matrix.zeros(self.alg.field, self.dim_at(d + 1), self.dims[k])
        return m

    def act_basis(self, j: int, k: int, s: int) -> Matrix:
        """Action of the s-th F^{-j} basis vector: degree -k -> degree -k-j."""
        field = self.alg.field
        if k + j >= self.length:
            return Matrix.zeros(field, 0, self.dims[k] if k < self.length else 0)
        mats = self.act.get((j, k))
        if mats is None:
            return Matrix.zeros(field, self.dims[k + j], self.dims[k])
        return mats[s]

    def act_elem(self, j: int, k: int, ambient_vec) -> Matrix:
        """Action of an ambient vector lying in F^{-j}: degree -k -> -k-j."""
        alg = self.alg
        key = (-j, tuple(ambient_vec))
        # the package's per-algebra cache of vector coordinates, kept here
        cache = alg.__dict__.setdefault("_ref_vec_coords", {})
        coords = cache.get(key)
        if coords is None:
            x = alg.fil_coords(-j, Matrix.column(alg.field, ambient_vec))
            coords = cache[key] = [
                (s, row[0]) for s, row in enumerate(x.rows) if row]
        rows = self.dims[k + j] if k + j < self.length else 0
        out = Matrix.zeros(alg.field, rows, self.dims[k] if k < self.length else 0)
        for s, c in coords:
            out = out + self.act_basis(j, k, s).scaled(c)
        return out

    def act_deg(self, ambient_vec, deg: int, d_src: int) -> Matrix:
        """Action of the Rees element (vec, deg): degree d_src -> d_src + deg.

        Requires vec in F^{min(deg, 0)}.  Routes through the stored window
        and climbs with transition maps; identifications above degree zero
        are the canonical ones.
        """
        field = self.alg.field
        d_tgt = d_src + deg
        if self.dim_at(d_src) == 0 or self.dim_at(d_tgt) == 0:
            return Matrix.zeros(field, self.dim_at(d_tgt), self.dim_at(d_src))
        j = max(0, -deg)
        base = min(d_src, 0)
        k = -base
        m = self.act_elem(j, k, ambient_vec)
        cur = base - j
        if m.nrows == 0 and self.dim_at(d_tgt) != 0:
            # action factored through a vanishing component
            return Matrix.zeros(field, self.dim_at(d_tgt), self.dim_at(d_src))
        while cur < d_tgt:
            m = self.tau_at(cur) @ m
            cur += 1
        return m


def validate_module(m: GradedModule, max_report: int = 20) -> list:
    bad = []
    alg = m.alg
    field = alg.field

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    # unit acts as identity on every component
    for k in range(m.length):
        if m.act_elem(0, k, alg.unit) != Matrix.identity(field, m.dims[k]):
            report(f"unit does not act as identity at degree {-k}")
    # associativity: (f g) m = f (g m) for filtration basis vectors
    for a in range(alg.length):
        fa = alg.fil(-a)
        for b in range(alg.length):
            fb = alg.fil(-b)
            for ca in fa.columns():
                for cb in fb.columns():
                    prod = alg.mul_vec(ca, cb)
                    for k in range(m.length):
                        if k + a + b >= m.length:
                            continue
                        lhs = m.act_elem(a + b, k, prod)
                        rhs = m.act_elem(a, k + b, ca) @ m.act_elem(b, k, cb)
                        if lhs != rhs:
                            report(f"action associativity fails at "
                                   f"(F^{-a},F^{-b},deg {-k})")
    # transition equivariance: f t^{-j+1} = t (f t^{-j}) and t-centrality
    for j in range(1, alg.length):
        fj = alg.fil(-j)
        for cj in fj.columns():
            for k in range(m.length):
                if k + j < m.length:
                    lhs = m.act_elem(j - 1, k, cj)
                    rhs = m.tau_at(-k - j) @ m.act_elem(j, k, cj)
                    if lhs != rhs:
                        report(f"transition equivariance fails (j={j}, k={k})")
                elif k + j == m.length and k + j - 1 < m.length:
                    if not m.act_elem(j - 1, k, cj).is_zero():
                        report(f"boundary action not killed (j={j}, k={k})")
                if 0 < k and k + j < m.length:
                    lhs = m.act_elem(j, k - 1, cj) @ m.tau_at(-k)
                    rhs = m.tau_at(-k - j) @ m.act_elem(j, k, cj)
                    if lhs != rhs:
                        report(f"t-centrality fails (j={j}, k={k})")
    # degree-zero action commutes with transitions
    for k in range(1, m.length):
        for i in range(alg.dim):
            e = [field.zero] * alg.dim
            e[i] = field.one
            lhs = m.act_elem(0, k - 1, e) @ m.tau_at(-k)
            rhs = m.tau_at(-k) @ m.act_elem(0, k, e)
            if lhs != rhs:
                report(f"degree-zero action not t-central (k={k}, basis {i})")
    return bad


def truncated_free(alg: FilteredAlgebra, i: int) -> GradedModule:
    """P_i: the truncated free module with components F^{i-k} / F^{i-n}."""
    n = alg.length
    if not (0 <= i < n):
        raise FiltError("generator index out of range")
    quots = [alg.quot(i - k, i - n) for k in range(n)]
    dims = [q.dim for q in quots]
    tau = {k: quots[k - 1].from_ambient(quots[k].ambient) for k in range(1, n)}
    act = {}
    for j in range(n):
        fj = alg.fil(-j)
        for k in range(n - j):
            # column s * d + c: the s-th F^{-j} basis vector times class c
            src, tgt, d = quots[k], quots[k + j], quots[k].dim
            both = tgt.from_ambient(mul_kron(alg.table, fj, src.ambient))
            act[(j, k)] = [both.submatrix((0, tgt.dim), (s * d, s * d + d))
                           for s in range(fj.ncols)]
    return GradedModule(alg, n, dims, tau, act)


def zero_module(alg: FilteredAlgebra, length=None) -> GradedModule:
    length = alg.length if length is None else length
    return GradedModule(alg, length, [0] * length, {}, {})


def direct_sum_modules(mods) -> GradedModule:
    mods = list(mods)
    alg = mods[0].alg
    field = alg.field
    length = mods[0].length
    if any(m.length != length for m in mods):
        raise FiltError("direct sum needs equal lengths")
    dims = [sum(m.dims[k] for m in mods) for k in range(length)]
    tau = {}
    for k in range(1, length):
        tau[k] = Matrix.block(field, [m.dims[k - 1] for m in mods],
                              [m.dims[k] for m in mods],
                              {(i, i): m.tau_at(-k) for i, m in enumerate(mods)})
    act = {}
    for j in range(alg.length):
        nj = alg.fil(-j).ncols
        for k in range(length - j):
            mats = []
            for s in range(nj):
                mats.append(Matrix.block(
                    field, [m.dims[k + j] for m in mods],
                    [m.dims[k] for m in mods],
                    {(i, i): m.act_basis(j, k, s) for i, m in enumerate(mods)}))
            act[(j, k)] = mats
    return GradedModule(alg, length, dims, tau, act)


def module_hom(m1: GradedModule, m2: GradedModule):
    """Degree-zero Rees-linear maps m1 -> m2: (dimension, basis).

    Each basis element is a tuple of per-component matrices.  Solved as one
    exact linear system over the equivariance conditions.
    """
    if m1.alg is not m2.alg and m1.alg != m2.alg:
        raise FiltError("modules over different algebras")
    if m1.length != m2.length:
        raise FiltError("modules of different lengths")
    alg = m1.alg
    field = alg.field
    L = m1.length
    sizes = [m2.dims[k] * m1.dims[k] for k in range(L)]
    offsets = []
    acc = 0
    for s in sizes:
        offsets.append(acc)
        acc += s
    total = acc

    def unknown_index(k, r, c):
        return offsets[k] + r * m1.dims[k] + c

    rows = []

    def add_equation(coeffs):
        row = {i: v for i, v in coeffs.items() if not field.is_zero(v)}
        if row:
            rows.append(row)

    def equivariance(map_src: Matrix, map_tgt: Matrix, k_src: int, k_tgt: int):
        # phi_{k_tgt} o map_src - map_tgt o phi_{k_src} = 0, entrywise
        for r in range(map_tgt.nrows):
            for c in range(m1.dims[k_src]):
                eq = {}
                for (mrow, mcol), v in map_src.items():
                    if mcol == c:
                        idx = unknown_index(k_tgt, r, mrow)
                        eq[idx] = field.add(eq.get(idx, field.zero), v)
                for (mrow, mcol), v in map_tgt.items():
                    if mrow == r:
                        idx = unknown_index(k_src, mcol, c)
                        eq[idx] = field.sub(eq.get(idx, field.zero), v)
                add_equation(eq)

    for k in range(1, L):
        equivariance(m1.tau_at(-k), m2.tau_at(-k), k, k - 1)
    for j in range(alg.length):
        nj = alg.fil(-j).ncols
        for k in range(L - j):
            for s in range(nj):
                equivariance(m1.act_basis(j, k, s), m2.act_basis(j, k, s),
                             k, k + j)
    if total == 0:
        return 0, []
    mat = Matrix.zeros(field, len(rows), total)
    for r, row in enumerate(rows):
        for c, v in row.items():
            mat.set(r, c, v)
    if len(rows) == 0:
        basis = Matrix.identity(field, total)
    else:
        basis = mat.kernel_basis()
    out = []
    for col in basis.columns():
        mats = []
        for k in range(L):
            m = Matrix.zeros(field, m2.dims[k], m1.dims[k])
            for r in range(m2.dims[k]):
                for c in range(m1.dims[k]):
                    v = col[unknown_index(k, r, c)]
                    if not field.is_zero(v):
                        m.set(r, c, v)
            mats.append(m)
        out.append(tuple(mats))
    return basis.ncols, out


@dataclass
class AuslanderModule:
    """A right module over the Auslander algebra: the row (M^0 ... M^{-n+1})."""

    aus: AuslanderAlgebra
    dims: list          # dims[i] = dim of row slot i (= M^{-i})
    action: dict        # basis triple (i, j, s) -> Matrix slot i -> slot j


def auslander_E(aus: AuslanderAlgebra, m: GradedModule) -> AuslanderModule:
    """The row-module image of a graded module under the Morita equivalence."""
    if m.length != aus.n:
        raise FiltError("module length must match the algebra length")
    action = {}
    for (i, j, s) in aus.basis:
        q = aus.blocks[(i, j)]
        e = [aus.field.zero] * q.dim
        e[s] = aus.field.one
        amb = q.to_ambient(e)
        action[(i, j, s)] = m.act_deg(amb, i - j, -i)
    return AuslanderModule(aus, list(m.dims), action)


def auslander_module_hom(m1: AuslanderModule, m2: AuslanderModule):
    """Right-module maps between row modules: (dimension, basis).

    Independent of `module_hom`: solves the equivariance system over the
    Auslander basis directly.
    """
    aus = m1.aus
    field = aus.field
    n = aus.n
    sizes = [m2.dims[i] * m1.dims[i] for i in range(n)]
    offsets = []
    acc = 0
    for s in sizes:
        offsets.append(acc)
        acc += s
    total = acc

    def unknown_index(i, r, c):
        return offsets[i] + r * m1.dims[i] + c

    rows = []
    for (i, j, s) in aus.basis:
        a1 = m1.action[(i, j, s)]
        a2 = m2.action[(i, j, s)]
        for r in range(m2.dims[j]):
            for c in range(m1.dims[i]):
                eq = {}
                for (mr, mc), v in a1.items():
                    if mc == c:
                        idx = unknown_index(j, r, mr)
                        eq[idx] = field.add(eq.get(idx, field.zero), v)
                for (mr, mc), v in a2.items():
                    if mr == r:
                        idx = unknown_index(i, mc, c)
                        eq[idx] = field.sub(eq.get(idx, field.zero), v)
                eq = {k: v for k, v in eq.items() if not field.is_zero(v)}
                if eq:
                    rows.append(eq)
    if total == 0:
        return 0, []
    mat = Matrix.zeros(field, len(rows), total)
    for r, row in enumerate(rows):
        for c, v in row.items():
            mat.set(r, c, v)
    basis = mat.kernel_basis() if rows else Matrix.identity(field, total)
    return basis.ncols, basis


def shift_module(m: GradedModule, i: int) -> GradedModule:
    """M(i) for i >= 0, as a module of length (length + i)."""
    if i < 0:
        raise FiltError("only nonnegative shifts are materialized")
    alg = m.alg
    L = m.length + i
    dims = [m.dim_at(i - k) for k in range(L)]
    tau = {k: m.tau_at(i - k) for k in range(1, L)}
    act = {}
    for j in range(alg.length):
        nj = alg.fil(-j).ncols
        for k in range(L - j):
            mats = []
            for s in range(nj):
                col = alg.fil(-j).columns()[s]
                mats.append(m.act_deg(col, -j, i - k))
            act[(j, k)] = mats
    return GradedModule(alg, L, dims, tau, act)


def truncate(m: GradedModule, n: int) -> GradedModule:
    """The left truncation to length n: components M^{-k} / tau^{n-k}(M^{-n})."""
    if m.length < n:
        raise FiltError("module is shorter than the truncation length")
    alg = m.alg
    field = alg.field
    projs = []
    lifts = []
    dims = []
    for k in range(n):
        if m.length <= n:
            sub = Matrix.zeros(field, m.dims[k], 0)
        else:
            # image of M^{-n} under the chain of transitions up to degree -k
            mat = Matrix.identity(field, m.dims[n])
            cur = -n
            while cur < -k:
                mat = m.tau_at(cur) @ mat
                cur += 1
            sub = mat
        proj, lift = quotient_maps(field, m.dims[k], sub)
        projs.append(proj)
        lifts.append(lift)
        dims.append(proj.nrows)
    tau = {}
    for k in range(1, n):
        tau[k] = projs[k - 1] @ (m.tau_at(-k) @ lifts[k])
    act = {}
    for j in range(alg.length):
        nj = alg.fil(-j).ncols
        for k in range(n - j):
            mats = []
            for s in range(nj):
                mats.append(projs[k + j] @ (m.act_basis(j, k, s) @ lifts[k]))
            act[(j, k)] = mats
    out = GradedModule(alg, n, dims, tau, act)
    out.trunc_proj = projs
    out.trunc_lift = lifts
    return out


def veronese(m: GradedModule, d: int, target_alg: FilteredAlgebra) -> GradedModule:
    """The d-th Veronese: components M^{d i}, over the coarse algebra.

    `m` lives over a d-refinement of `target_alg` (same underlying algebra,
    filtration G with G^{di} = F^i)."""
    alg = m.alg
    if m.length != d * target_alg.length:
        raise FiltError("length mismatch in Veronese")
    L = target_alg.length
    field = alg.field
    dims = [m.dim_at(-d * k) for k in range(L)]
    tau = {}
    for k in range(1, L):
        mat = Matrix.identity(field, m.dim_at(-d * k))
        cur = -d * k
        for _ in range(d):
            mat = m.tau_at(cur) @ mat
            cur += 1
        tau[k] = mat
    act = {}
    for j in range(L):
        fj = target_alg.fil(-j)
        for k in range(L - j):
            mats = []
            for col in fj.columns():
                mats.append(m.act_deg(col, -d * j, -d * k))
            act[(j, k)] = mats
    return GradedModule(target_alg, L, dims, tau, act)


def epsilon(m: GradedModule, d: int, target_alg: FilteredAlgebra) -> GradedModule:
    """The left adjoint of the Veronese: components M^{floor(i/d)}.

    `target_alg` must be the floor refinement of m's algebra."""
    alg = m.alg
    L = d * m.length
    field = alg.field
    if target_alg.length != L:
        raise FiltError("epsilon target must have length d * length")
    dims = [m.dim_at(-((k + d - 1) // d)) for k in range(L)]

    def floor_deg(i):
        # floor(i / d) for the (possibly negative) degree i
        return i // d

    tau = {}
    for k in range(1, L):
        lo, hi = floor_deg(-k), floor_deg(-k + 1)
        if lo == hi:
            tau[k] = Matrix.identity(field, m.dim_at(lo))
        else:
            tau[k] = m.tau_at(lo)
    act = {}
    for j in range(target_alg.length):
        fj = target_alg.fil(-j)
        jf = -floor_deg(-j)
        for k in range(L - j):
            mats = []
            src_deg = floor_deg(-k)
            tgt_deg = floor_deg(-k - j)
            for col in fj.columns():
                base = m.act_deg(col, -jf, src_deg)
                cur = src_deg - jf
                while cur < tgt_deg:
                    base = m.tau_at(cur) @ base
                    cur += 1
                # tgt_deg <= src_deg - jf always; climb handled, now descend:
                mats.append(base)
            act[(j, k)] = mats
    return GradedModule(target_alg, L, dims, tau, act)


def module_cokernel(src: GradedModule, tgt: GradedModule, mats) -> GradedModule:
    """The cokernel of a module map given by per-component matrices."""
    alg = tgt.alg
    field = alg.field
    L = tgt.length
    projs = []
    lifts = []
    dims = []
    for c in range(L):
        proj, lift = quotient_maps(field, tgt.dims[c], mats[c])
        projs.append(proj)
        lifts.append(lift)
        dims.append(proj.nrows)
    tau = {}
    for k in range(1, L):
        tau[k] = projs[k - 1] @ (tgt.tau_at(-k) @ lifts[k])
    act = {}
    for j in range(alg.length):
        nj = alg.fil(-j).ncols
        for k in range(L - j):
            row = []
            for s in range(nj):
                row.append(projs[k + j] @ (tgt.act_basis(j, k, s) @ lifts[k]))
            act[(j, k)] = row
    return GradedModule(alg, L, dims, tau, act)


def greedy_presentation(m: GradedModule):
    """Two steps of the greedy resolution by truncated frees.

    Returns (gens0, gens1, phi) where gens0/gens1 list generator degrees
    k (one P_k per entry) and phi[(r, s)] is the quotient-coordinate vector
    in F^{k_r - k_s} / F^{k_r - n} describing the block P_{k_s} -> P_{k_r}
    of the relation map.  The cokernel of phi is m.
    """
    alg = m.alg
    field = alg.field
    n = alg.length
    if m.length != n:
        raise FiltError("presentations need module length = algebra length")
    gens0 = []
    for k in range(n):
        gens0.extend([(k, tuple(col))
                      for col in Matrix.identity(field, m.dims[k]).columns()])

    # the surjection P0 = (+)_r P_{k_r} -> m, componentwise
    quots0 = {}
    for r, (k, v) in enumerate(gens0):
        quots0[r] = [alg.quot(k - c, k - n) for c in range(n)]

    def surjection_matrix(c):
        blocks = []
        for r, (k, vvec) in enumerate(gens0):
            q = quots0[r][c]
            mat = Matrix.zeros(field, m.dims[c], q.dim)
            for t in range(q.dim):
                unit = [field.zero] * q.dim
                unit[t] = field.one
                f_amb = q.to_ambient(unit)
                img = m.act_deg(f_amb, k - c, -k).apply(vvec)
                for rr, v in enumerate(img):
                    if not field.is_zero(v):
                        mat.set(rr, t, v)
            blocks.append(mat)
        return Matrix.hstack(blocks) if blocks else Matrix.zeros(field, m.dims[c], 0)

    kernels = {c: surjection_matrix(c).kernel_basis() for c in range(n)}
    gens1 = []
    phi = {}
    for c in range(n):
        kb = kernels[c]
        for col_idx, col in enumerate(kb.columns()):
            s = len(gens1)
            gens1.append((c, None))
            off = 0
            for r, (k, _) in enumerate(gens0):
                q = quots0[r][c]
                chunk = tuple(col[off:off + q.dim])
                off += q.dim
                if any(not field.is_zero(x) for x in chunk):
                    phi[(r, s)] = chunk
    return gens0, gens1, phi


def tensor_with_free(alg: FilteredAlgebra, i: int, m: GradedModule) -> GradedModule:
    """P_i (x)_n m = l^n(m(i)), with the truncation quotient data attached."""
    return truncate(shift_module(m, i), alg.length)


def induced_tensor_map(alg: FilteredAlgebra, a: int, b: int, coords,
                       m: GradedModule, ta: GradedModule, tb: GradedModule):
    """The map l^n(m(a)) -> l^n(m(b)) induced by a hom P_a -> P_b.

    `coords` are quotient coordinates in F^{b-a} / F^{b-n}; `ta`, `tb` the
    attached truncations of m(a), m(b).  Returns per-component matrices.
    """
    field = alg.field
    n = alg.length
    q = alg.quot(b - a, b - n)
    f_amb = q.to_ambient(coords)
    out = []
    for c in range(n):
        raw = m.act_deg(f_amb, b - a, a - c)
        out.append(tb.trunc_proj[c] @ (raw @ ta.trunc_lift[c]))
    return out


def tensor_n(m1: GradedModule, m2: GradedModule) -> GradedModule:
    """The truncated tensor product l^n(m1 (x) m2), via a presentation of m1."""
    alg = m1.alg
    field = alg.field
    n = alg.length
    gens0, gens1, phi = greedy_presentation(m1)
    t0 = {r: tensor_with_free(alg, k, m2) for r, (k, _) in enumerate(gens0)}
    t1 = {s: tensor_with_free(alg, c, m2) for s, (c, _) in enumerate(gens1)}
    # assemble the big map (+)_s T1_s -> (+)_r T0_r and take cokernels
    sum0 = direct_sum_modules([t0[r] for r in range(len(gens0))]) if gens0 else \
        zero_module(alg)
    comp_maps = {}
    for (r, s), coords in phi.items():
        a = gens1[s][0]
        b = gens0[r][0]
        comp_maps[(r, s)] = induced_tensor_map(alg, a, b, coords, m2,
                                               t1[s], t0[r])
    projs = []
    lifts = []
    dims = []
    for c in range(n):
        rows = sum(t0[r].dims[c] for r in range(len(gens0)))
        cols = sum(t1[s].dims[c] for s in range(len(gens1)))
        img = Matrix.zeros(field, rows, cols)
        coff = 0
        for s in range(len(gens1)):
            roff = 0
            for r in range(len(gens0)):
                blk = comp_maps.get((r, s))
                if blk is not None and not blk[c].is_zero():
                    for (rr, cc), v in blk[c].items():
                        img.set(roff + rr, coff + cc, v)
                roff += t0[r].dims[c]
            coff += t1[s].dims[c]
        proj, lift = quotient_maps(field, rows, img)
        projs.append(proj)
        lifts.append(lift)
        dims.append(proj.nrows)
    tau = {}
    for k in range(1, n):
        tau[k] = projs[k - 1] @ (sum0.tau_at(-k) @ lifts[k])
    act = {}
    for j in range(alg.length):
        nj = alg.fil(-j).ncols
        for k in range(n - j):
            mats = []
            for s in range(nj):
                mats.append(projs[k + j] @ (sum0.act_basis(j, k, s) @ lifts[k]))
            act[(j, k)] = mats
    out = GradedModule(alg, n, dims, tau, act)
    out.tensor_proj = projs
    out.tensor_parts = (gens0, t0)
    return out


def tensor_unit_map(m: GradedModule):
    """The canonical comparison P_0 (x)_n m -> m; returns (tensor, matrices).

    Evaluation sends the generator of each presentation summand to its image
    in m; well-definedness on the cokernel follows from functoriality.
    """
    alg = m.alg
    field = alg.field
    n = alg.length
    p0 = truncated_free(alg, 0)
    t = tensor_n(p0, m)
    gens0, t0 = t.tensor_parts
    maps = []
    for c in range(n):
        rows = m.dims[c]
        cols_total = sum(t0[r].dims[c] for r in range(len(gens0)))
        mat = Matrix.zeros(field, rows, cols_total)
        coff = 0
        for r, (k, vvec) in enumerate(gens0):
            # generator r is a quotient class of P_0 at degree -k: lift it
            q0 = alg.quot(-k, -n)
            gen_amb = q0.to_ambient(vvec)
            tr = t0[r]
            for tcol in range(tr.dims[c]):
                unit = [field.zero] * tr.dims[c]
                unit[tcol] = field.one
                lifted = tr.trunc_lift[c].apply(unit)   # element of m(k)^{-c}
                img = m.act_deg(gen_amb, -k, k - c).apply(lifted)
                for rr, v in enumerate(img):
                    if not field.is_zero(v):
                        mat.set(rr, coff + tcol, v)
            coff += tr.dims[c]
        # descend to the cokernel coordinates through a section
        sec = Matrix.zeros(field, cols_total, t.dims[c])
        # the cokernel projection has a right inverse given by lifting
        proj = t.tensor_proj[c]
        sol = proj.solve(Matrix.identity(field, t.dims[c]))
        if sol is None:
            raise FiltError("internal: cokernel projection not surjective")
        maps.append(mat @ sol)
    return t, maps


def module_out(m: GradedModule):
    alg = m.alg
    act = {}
    for (j, k), mats in sorted(m.act.items()):
        act[f"{j},{k}"] = [matrix_out(alg.field, mat) for mat in mats]
    return {
        "length": m.length,
        "dims": list(m.dims),
        "tau": {str(k): matrix_out(alg.field, m.tau_at(-k))
                for k in range(1, m.length)},
        "act": act,
    }


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
