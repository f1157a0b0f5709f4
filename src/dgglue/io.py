"""JSON (de)serialization of every entity kind, plus the Document container.

Scalars: rationals as "a/b" strings (plain integers accepted on input),
prime-field elements as canonical integers in [0, p).  Subsets of cube
coordinates are comma-joined sorted integers with "" for the empty set; edge
keys are "I|l".  Every encoder/decoder pair round-trips structurally.

Reports and documents are written by `dump_json`, whose bytes are exactly
`json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)`: str-keyed
dicts and non-empty lists are walked in Python, all-int and all-str lists are
joined at C speed, and every other value falls back to `json.dumps` itself.
"""

from __future__ import annotations

import copy
import json
from functools import lru_cache
from itertools import compress

from .complexes import Complex, GradedMap
from .dgcat import DgCategory, DgFunctor
from .fields import field_from_config
from .filtlab import AlgebraMap, FilteredAlgebra, GradedModule
from .hypercube import ComplexCube, DgCube, full_shape
from .linalg import Matrix
from .twisted import TwistedComplex


class DocumentError(ValueError):
    pass


def scalar_out(field, x):
    return field.format(x) if field.name == "Q" else x


def scalar_in(field, s):
    return field.parse(s)


def matrix_out(field, m: Matrix):
    """Dense rows of `m`, written from its row dicts: one store per nonzero."""
    fmt, zero = (field.format, "0") if field.name == "Q" else (None, 0)
    out = []
    for row in m.rows:
        dense = [zero] * m.ncols
        for j, v in row.items():
            dense[j] = fmt(v) if fmt else v
        out.append(dense)
    return out


# Rows shorter than this read faster through the comprehension: the calls
# that set up the C-speed read cost more than they save on a few entries.
WIDE_ROW = 32


def matrix_in(field, rows, shape=None) -> Matrix:
    """Build a matrix from JSON rows in one pass, storing nonzeros only.

    Over F_p a row of at least WIDE_ROW plain ints, all in [0, p), is read at
    C speed; other exact ints are reduced inline.  Every other scalar goes
    through `field.parse`, whose values are false exactly when zero: canonical
    ints over F_p, and over Q an int when integral and a Fraction otherwise.
    """
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DocumentError("a matrix must be a list of rows, each a list")
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise DocumentError("ragged rows")
    p, parse = field.modulus, field.parse
    wide, cols, out = p and ncols >= WIDE_ROW, range(ncols), []
    for row in rows:
        if wide and set(map(type, row)) == {int}:
            idx = list(compress(cols, row))
            vals = list(map(row.__getitem__, idx))
            if not vals or 0 < min(vals) and max(vals) < p:
                out.append(dict(zip(idx, vals)))
                continue
        out.append({j: x for j, v in enumerate(row)
                    if (x := v % p if p and type(v) is int else parse(v))})
    m = Matrix(field, len(rows), ncols, out)
    if shape is not None and m.shape != shape and m.nrows * m.ncols == 0:
        m = Matrix.zeros(field, *shape)
    if shape is not None and m.shape != shape:
        raise DocumentError(f"matrix shape {m.shape} != expected {shape}")
    return m


def _get(data, key, kind, default=None):
    """data[key] as a JSON object or array (kind dict or list), or `default`."""
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, kind):
        raise DocumentError(f"{key!r} must be a JSON "
                            f"{'object' if kind is dict else 'array'}")
    return value


def _items(data, key, kind, default=None):
    """The (name, value) pairs of the object data[key], each value of `kind`."""
    table = _get(data, key, dict, default)
    return [(name, _get(table, name, kind)) for name in table]


def _int(x) -> int:
    """An integer field or key part of a document, or DocumentError."""
    try:
        return int(x)
    except (TypeError, ValueError):
        raise DocumentError(f"expected an integer, not {x!r}") from None


# Keys repeat across the tables and categories of a document, so their
# parses are cached, as rational scalars are in `fields`.
@lru_cache(maxsize=1024)
def _split(key, sep, n) -> tuple:
    """The n parts of a key joined by `sep`, or DocumentError."""
    parts = tuple(key.split(sep))
    if len(parts) != n:
        raise DocumentError(f"key {key!r} must be {n} parts joined by {sep!r}")
    return parts


@lru_cache(maxsize=1024)
def _ints(key, n) -> tuple:
    """The n integers of a comma-joined key such as a degree pair "i,j"."""
    return tuple(_int(x) for x in _split(key, ",", n))


def subset_out(I) -> str:
    return ",".join(str(x) for x in sorted(I))


def subset_in(s) -> frozenset:
    if not isinstance(s, str):
        raise DocumentError(f"a coordinate subset must be a string, not {s!r}")
    if s == "":
        return frozenset()
    return frozenset(_int(x) for x in s.split(","))


# -- complexes ---------------------------------------------------------------


def complex_out(c: Complex):
    return {
        "window": [c.lo, c.hi],
        "dims": {str(k): d for k, d in sorted(c.dims.items())},
        "diff": {str(k): matrix_out(c.field, m)
                 for k, m in sorted(c.diffs.items())},
    }


def complex_in(field, data) -> Complex:
    dims = {_int(k): _int(d) for k, d in _get(data, "dims", dict, {}).items()}
    diffs = {}
    for k, rows in _get(data, "diff", dict, {}).items():
        k = _int(k)
        diffs[k] = matrix_in(field, rows,
                             shape=(dims.get(k + 1, 0), dims.get(k, 0)))
    return Complex(field, dims, diffs)


def graded_map_out(f: GradedMap):
    return {
        "degree": f.degree,
        "comps": {str(k): matrix_out(f.source.field, m)
                  for k, m in sorted(f.comps.items())},
    }


def graded_map_in(field, data, source: Complex, target: Complex) -> GradedMap:
    degree = _int(data.get("degree", 0))
    comps = {}
    for k, rows in _get(data, "comps", dict, {}).items():
        k = _int(k)
        comps[k] = matrix_in(field, rows,
                             shape=(target.dim(k + degree), source.dim(k)))
    return GradedMap(source, target, degree, comps)


# -- dg categories -----------------------------------------------------------


def category_out(cat: DgCategory):
    hom = {}
    comp = {}
    for a in cat.objects:
        for b in cat.objects:
            h = cat.hom(a, b)
            if h.dims:
                hom[f"{a}->{b}"] = complex_out(h)
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                tables = {}
                for i in cat.hom(b, c).degrees():
                    for j in cat.hom(a, b).degrees():
                        m = cat.comp_matrix(a, b, c, i, j)
                        if not m.is_zero():
                            tables[f"{i},{j}"] = matrix_out(cat.field, m)
                if tables:
                    comp[f"{a}|{b}|{c}"] = tables
    return {
        "objects": list(cat.objects),
        "hom": hom,
        "comp": comp,
        "ids": {a: [scalar_out(cat.field, v) for v in cat.ids[a]]
                for a in cat.objects},
    }


def category_in(field, data) -> DgCategory:
    objects = list(_get(data, "objects", list))
    hom = {}
    for key, cdata in _items(data, "hom", dict, {}):
        a, b = _split(key, "->", 2)
        hom[(a, b)] = complex_in(field, cdata)
    comp = {}
    for key, tables in _items(data, "comp", dict, {}):
        a, b, c = _split(key, "|", 3)
        comp[(a, b, c)] = {}
        for dkey, rows in tables.items():
            i, j = _ints(dkey, 2)
            comp[(a, b, c)][(i, j)] = matrix_in(field, rows)
    ids = {a: tuple(scalar_in(field, v) for v in vec)
           for a, vec in _items(data, "ids", list)}
    return DgCategory(field, objects, hom, comp, ids)


def functor_out(f: DgFunctor, src_name: str, tgt_name: str):
    hom_maps = {}
    for a in f.source.objects:
        for b in f.source.objects:
            h = f.source.hom(a, b)
            maps = {str(k): matrix_out(f.source.field, f.hom_matrix(a, b, k))
                    for k in h.degrees()}
            if maps:
                hom_maps[f"{a}->{b}"] = maps
    return {"source": src_name, "target": tgt_name,
            "obj_map": dict(f.obj_map), "hom_maps": hom_maps}


def functor_in(field, data, src: DgCategory, tgt: DgCategory) -> DgFunctor:
    obj_map = dict(_get(data, "obj_map", dict))
    hom_maps = {}
    for key, maps in _items(data, "hom_maps", dict, {}):
        a, b = _split(key, "->", 2)
        hom_maps[(a, b)] = {}
        for k, rows in maps.items():
            k = _int(k)
            hom_maps[(a, b)][k] = matrix_in(
                field, rows,
                shape=(tgt.hom(obj_map[a], obj_map[b]).dim(k),
                       src.hom(a, b).dim(k)))
    return DgFunctor(src, tgt, obj_map, hom_maps)


# -- cubes --------------------------------------------------------------------


def complex_cube_out(cube: ComplexCube, names: dict):
    """`names` maps id(complex) -> name for vertex reuse; inline otherwise."""
    vertices = {}
    for I, v in cube.vertices.items():
        vertices[subset_out(I)] = complex_out(v)
    edges = {}
    for (I, l), e in cube.edges.items():
        edges[f"{subset_out(I)}|{l}"] = graded_map_out(e)
    return {"top": sorted(cube.top),
            "shape": [subset_out(I) for I in
                      sorted(cube.shape, key=lambda s: (len(s), sorted(s)))],
            "vertices": vertices, "edges": edges}


def complex_cube_in(field, data) -> ComplexCube:
    top = frozenset(_int(x) for x in _get(data, "top", list))
    if "shape" in data:
        shape = frozenset(subset_in(s) for s in _get(data, "shape", list))
    else:
        shape = full_shape(top)
    vertices = {subset_in(k): complex_in(field, v)
                for k, v in _items(data, "vertices", dict)}
    edges = {}
    for key, e in _items(data, "edges", dict):
        ikey, l = _split(key, "|", 2)
        I = subset_in(ikey)
        l = _int(l)
        edges[(I, l)] = graded_map_in(field, e, vertices[I], vertices[I | {l}])
    return ComplexCube(field, top, shape, vertices, edges)


def dg_cube_out(cube: DgCube, cat_names: dict, fun_names: dict):
    return {"n": cube.n,
            "vertices": {subset_out(I): cat_names[id(v)]
                         for I, v in cube.vertices.items()},
            "edges": {f"{subset_out(I)}|{l}": fun_names[id(e)]
                      for (I, l), e in cube.edges.items()}}


def dg_cube_in(field, data, categories: dict, functors: dict) -> DgCube:
    n = _int(data["n"])
    vertices = {subset_in(k): categories[v]
                for k, v in _get(data, "vertices", dict).items()}
    edges = {}
    for key, fname in _get(data, "edges", dict).items():
        ikey, l = _split(key, "|", 2)
        edges[(subset_in(ikey), _int(l))] = functors[fname]
    return DgCube(field, n, vertices, edges, validate=True, deep_validate=False)


# -- filtered algebras and modules --------------------------------------------


def algebra_out(alg: FilteredAlgebra):
    mult = {}
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            vec = alg.mul_basis(i, j)
            if any(not alg.field.is_zero(v) for v in vec):
                mult[f"{i},{j}"] = [scalar_out(alg.field, v) for v in vec]
    return {
        "basis": list(alg.basis_names),
        "unit": [scalar_out(alg.field, v) for v in alg.unit],
        "mult": mult,
        "length": alg.length,
        "filtration": {str(k): matrix_out(alg.field, alg.filtration[k])
                       for k in range(1, alg.length + 1)},
    }


def algebra_in(field, data) -> FilteredAlgebra:
    basis = list(_get(data, "basis", list))
    dim = len(basis)
    unit = tuple(scalar_in(field, v) for v in _get(data, "unit", list))
    raw = {}
    for key, vec in _items(data, "mult", list):
        i, j = _ints(key, 2)
        raw[(i, j)] = tuple(scalar_in(field, v) for v in vec)

    def mult(i, j):
        if (i, j) in raw:
            return raw[(i, j)]
        if (j, i) in raw:
            return raw[(j, i)]
        return tuple(field.zero for _ in range(dim))

    length = _int(data["length"])
    filtration = [Matrix.identity(field, dim)]
    for k in range(1, length + 1):
        rows = _get(data, "filtration", dict).get(str(k), [])
        if rows:
            filtration.append(matrix_in(field, rows))
        else:
            filtration.append(Matrix.zeros(field, dim, 0))
    return FilteredAlgebra(field, dim, mult, unit, length, filtration, basis)


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


def module_in(field, data, alg: FilteredAlgebra) -> GradedModule:
    length = _int(data.get("length", alg.length))
    dims = [_int(d) for d in _get(data, "dims", list)]
    tau = {}
    for k, rows in _get(data, "tau", dict, {}).items():
        k = _int(k)
        tau[k] = matrix_in(field, rows, shape=(dims[k - 1], dims[k]))
    act = {}
    for key, mats in _items(data, "act", list, {}):
        j, k = _ints(key, 2)
        nj = alg.fil(-j).ncols
        if len(mats) != nj:
            raise DocumentError(f"action ({j},{k}) needs {nj} matrices")
        act[(j, k)] = [matrix_in(field, rows,
                                 shape=(dims[k + j] if k + j < length else 0,
                                        dims[k]))
                       for rows in mats]
    return GradedModule(alg, length, dims, tau, act)


def algebra_map_in(field, data, src: FilteredAlgebra,
                   tgt: FilteredAlgebra) -> AlgebraMap:
    return AlgebraMap(src, tgt, matrix_in(field, _get(data, "matrix", list),
                                          shape=(tgt.dim, src.dim)))


def twisted_in(field, data, cat: DgCategory) -> TwistedComplex:
    terms = []
    for term in _get(data, "terms", list):
        if isinstance(term, dict):
            terms.append((term["obj"], _int(term.get("shift", 0))))
        else:
            terms.append((term[0], _int(term[1])))
    delta = {}
    for key, vec in _items(data, "delta", list, {}):
        i, j = _ints(key, 2)
        delta[(i, j)] = tuple(scalar_in(field, v) for v in vec)
    return TwistedComplex(cat, terms, delta)


# -- documents ----------------------------------------------------------------


class Document:
    """A parsed input document: one field, named entities, command params."""

    def __init__(self, field, params=None):
        self.field = field
        self.params = params or {}
        self.complexes = {}
        self.graded_maps = {}
        self.categories = {}
        self.functors = {}
        self.complex_cubes = {}
        self.dg_cubes = {}
        self.filtered_algebras = {}
        self.modules = {}
        self.twisted_complexes = {}
        self.algebra_maps = {}


def _parse_once(items, parse) -> dict:
    """{name: parse(raw)} over (name, raw) items, parsing equal raw JSON once.

    Identity-extended cubes repeat a vertex category or an edge functor under
    several names, and `==` on decoded JSON runs at C speed.  A functor's
    JSON names its endpoints, so equal JSON means equal endpoints.  Each name
    still gets its own (shallow-copied) object over the shared tables, which
    nothing mutates: a cube written back out by `cli._dg_cube_document` names
    its vertices and edges by object identity.
    """
    out = {}
    parsed = []
    for name, raw in items:
        value = next((v for r, v in parsed if r == raw), None)
        if value is None:
            value = parse(raw)
            parsed.append((raw, value))
        else:
            value = copy.copy(value)
        out[name] = value
    return out


def parse_document(data, default_field=None) -> Document:
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    cfg = data.get("field", default_field)
    if cfg is None:
        raise DocumentError("document does not declare a field")
    if default_field is not None and data.get("field") is not None \
            and data["field"] != default_field:
        raise DocumentError("field flag conflicts with the document")
    field = field_from_config(cfg)
    doc = Document(field, _get(data, "params", dict, {}))
    for name, cdata in _items(data, "complexes", dict, {}):
        doc.complexes[name] = complex_in(field, cdata)
    # repeats share parsed tables, but every name keeps its own object
    doc.categories = _parse_once(_items(data, "categories", dict, {}),
                                 lambda c: category_in(field, c))
    doc.functors = _parse_once(
        _items(data, "functors", dict, {}),
        lambda f: functor_in(field, f, doc.categories[f["source"]],
                             doc.categories[f["target"]]))
    for name, mdata in _items(data, "graded_maps", dict, {}):
        src = doc.complexes[mdata["source"]]
        tgt = doc.complexes[mdata["target"]]
        doc.graded_maps[name] = graded_map_in(field, mdata, src, tgt)
    for name, cdata in _items(data, "complex_cubes", dict, {}):
        doc.complex_cubes[name] = complex_cube_in(field, cdata)
    for name, cdata in _items(data, "dg_cubes", dict, {}):
        doc.dg_cubes[name] = dg_cube_in(field, cdata, doc.categories,
                                        doc.functors)
    for name, adata in _items(data, "filtered_algebras", dict, {}):
        doc.filtered_algebras[name] = algebra_in(field, adata)
    for name, mdata in _items(data, "modules", dict, {}):
        alg = doc.filtered_algebras[mdata["algebra"]]
        doc.modules[name] = module_in(field, mdata, alg)
    for name, fdata in _items(data, "algebra_maps", dict, {}):
        src = doc.filtered_algebras[fdata["source"]]
        tgt = doc.filtered_algebras[fdata["target"]]
        doc.algebra_maps[name] = algebra_map_in(field, fdata, src, tgt)
    # twisted complexes may live over constructed categories (e.g. the
    # generalized arrow category of a named cube), so they stay raw here and
    # are resolved by the consumer
    doc.twisted_complexes = dict(_items(data, "twisted_complexes", dict, {}))
    return doc


def dump_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)`.

    The bytes are exactly those, written mostly at C speed: dicts with only
    `str` keys are walked here with sorted keys, non-empty lists element by
    element, and a list holding only `int`s or only `str`s (never `bool`) is
    one join of `int.__repr__` or `encode_basestring_ascii`.  Every other
    value (floats, `bool`, `None`, empty containers, dicts with other keys)
    is a `json.dumps` call re-indented to its depth.
    """
    return _dump(obj, "\n")


_escape = json.encoder.encode_basestring_ascii


def _dump(o, indent):
    """`o` as `dump_json` writes it at the depth whose line break is `indent`."""
    inner = indent + " "
    if type(o) is dict and o and all(type(k) is str for k in o):
        body = ("," + inner).join([_escape(k) + ": " + _dump(o[k], inner)
                                   for k in sorted(o)])
        return "{" + inner + body + indent + "}"
    if type(o) is list and o:
        kinds = set(map(type, o))
        if kinds == {int}:
            body = ("," + inner).join(map(int.__repr__, o))
        elif kinds == {str}:
            body = ("," + inner).join(map(_escape, o))
        else:
            body = ("," + inner).join([_dump(x, inner) for x in o])
        return "[" + inner + body + indent + "]"
    # a JSON string never holds a raw newline, so only layout is re-indented
    return json.dumps(o, sort_keys=True, separators=(",", ": "),
                      indent=1).replace("\n", indent)
