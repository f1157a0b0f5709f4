"""Seeded inputs for the dgglue benchmark: documents and one pass's commands.

Run from the repository root as

    PYTHONPATH=src python3 perfbench/inputs.py --workload W --seed N --out DIR

It writes the workload's documents into DIR together with `manifest.json`,
the fixed command list of one pass and what the oracle expects of each
command.  Documents are built only with `dgglue.samples`, `dgglue.filtlab`
and `cli._dg_cube_document` (plus `dgglue.io` to serialize them), so the
program under test sees nothing but ordinary CLI documents.

The seed picks instances from finite pools (collapse squares, catalogued
tensor cubes, the corrupted entry); every document any seed can produce has
a report pinned in `pins.json` (see `pin.py`).
"""

from __future__ import annotations

# dgglue is imported inside the functions that use it: run.py imports this
# module for WORKLOADS in an interpreter without src/ on its path.

import argparse
import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

WORKLOADS = ("glue-ladder", "complex-cubes", "build-validate",
             "glue-ladder-par2")

FIELDS = {"F7": {"Fp": 7}, "Q": "Q"}

# glue-ladder: per field, (m, n) rungs of refinement squares
# k[x]/x^m -> k[x]/x^(m-2), x-adic filtration, ideal (x), d = 2, extended by
# identities to n.  glue-ladder-par2 keeps the smallest rung over F_7 only:
# with --parallel 2 each of its commands costs 5-10 times the serial one.
RUNGS = ((4, 3), (4, 4), (5, 3))
LADDER = {"F7": RUNGS, "Q": RUNGS}
PAR2_LADDER = {"F7": ((4, 3),)}
# Collapse squares (never acyclic): per field, BAD_PICKS picks out of the
# first BAD_POOL sub-seeds, each extended to n = 3 and n = 4.  Only squares
# whose algebra has dimension BAD_DIM (the commonest, 33 of the 64) are in
# the pool, so that a pick changes the instance but not its cost.
BAD_PICKS = 1
BAD_POOL = 64
BAD_DIM = 3

# complex-cubes: F_7 tensor 3-cubes, CUBE_PICKS per class (acyclic or not)
# out of the class's catalogue in pins.json, whose cubes are large enough
# for elimination to be their largest layer (see pin.py).
CUBE_N = 3
CUBE_PARAMS = {"lo": -1, "hi": 0, "max_dim": 4}
CUBE_PICKS = 3

# build-validate: refine-square inputs, then validate targets in the
# squares' documents: over F_7 every vertex category, over Q only the
# unrefined one (the axiom loops on the refined ones take longer than a
# whole pass may), and one edge functor and the cube (deep) over both.
REFINE = (("Q", 4), ("F7", 5))
VALIDATE = {("F7", 4): ("cat_o", "cat_0", "cat_1", "cat_0,1", "edge_o_0",
                        "square"),
            ("Q", 4): ("cat_o", "edge_o_0", "square")}
AUSLANDER = (("Q", 3),)
CORRUPT = ("F7", 4, "cat_0")        # field, m, category with one bad entry
CORRUPT_PICKS = 3


def _field(tag):
    from dgglue.fields import field_from_config
    return field_from_config(FIELDS[tag])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pin_key(doc_sha, command, params=()):
    """Key of a pinned report: document, command and --param overrides."""
    return " ".join([f"{doc_sha}:{command}", *params])


class Inputs:
    """Collects documents (written to `out_dir`) and the pass's commands."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.docs = {}
        self.commands = []

    def add_doc(self, name, doc):
        from dgglue import io as dio
        data = (dio.dump_json(doc) + "\n").encode()
        with open(os.path.join(self.out_dir, name), "wb") as fh:
            fh.write(data)
        self.docs[name] = sha256(data)
        return name

    def add_command(self, command, doc, params=(), parallel=1, **expect):
        argv = [command, "--in", doc]
        for p in params:
            argv += ["--param", p]
        if parallel > 1:
            argv += ["--parallel", str(parallel)]
        self.commands.append({
            "id": f"{command}:{doc}" + "".join(f":{p}" for p in params),
            "argv": argv, "doc": doc,
            "pin": pin_key(self.docs[doc], command, params), **expect})


def ladder_square(field, m):
    """Refinement square of k[x]/x^m -> k[x]/x^(m-2), ideal (x), d = 2."""
    from dgglue import filtlab
    src, tgt, quot, ideal = ladder_algebras(field, m)
    return filtlab.refinement_square(src, tgt, quot,
                                     filtlab.generated_ideal(src, [ideal]), 2)


def ladder_algebras(field, m):
    from dgglue import filtlab
    from dgglue.linalg import Matrix
    src = filtlab.truncated_polynomial_algebra(field, m)
    tgt = filtlab.truncated_polynomial_algebra(field, m - 2, length=src.length)
    mat = Matrix.zeros(field, m - 2, m)
    for t in range(m - 2):
        mat.set(t, t, field.one)
    x = [field.zero] * m
    x[1] = field.one
    return src, tgt, filtlab.AlgebraMap(src, tgt, mat), tuple(x)


def _dg_cube_doc(cube):
    from dgglue import cli
    return cli._dg_cube_document(cube, params={"cube": f"cube{cube.n}"})


def _add_dg_cube(inp, name, cube, verdict, parallel):
    doc = inp.add_doc(name, _dg_cube_doc(cube))
    for command in ("check-acyclic", "check-qff"):
        inp.add_command(command, doc, parallel=parallel, verdict=verdict,
                        group=doc)


def glue_ladder(inp, choose, ladder=LADDER, parallel=1):
    from dgglue import samples
    for tag in FIELDS:
        field = _field(tag)
        rungs = ladder.get(tag, ())
        for m in sorted({m for m, _ in rungs}):
            cube = ladder_square(field, m)
            top = max(n for mm, n in rungs if mm == m)
            while cube.n < top:
                cube = samples._extend_by_identity(cube)
                if (m, cube.n) in rungs:
                    _add_dg_cube(inp, f"ladder-{tag}-m{m}-n{cube.n}.json",
                                 cube, True, parallel)
        for sub in choose(collapse_pool(field), BAD_PICKS):
            cube = samples.random_bad_square(field, samples.rng(sub))
            for n in (3, 4):
                cube = samples._extend_by_identity(cube)
                _add_dg_cube(inp, f"collapse-{tag}-s{sub}-n{n}.json", cube,
                             False, parallel)


def collapse_pool(field):
    """Sub-seeds whose collapse square's algebra has dimension BAD_DIM."""
    from dgglue import samples
    pool = []
    for sub in range(BAD_POOL):
        acat = samples.random_bad_square(field, samples.rng(sub)).vertices[
            frozenset({0})]
        obj = acat.objects[0]
        if acat.hom(obj, obj).dim(0) == BAD_DIM:
            pool.append(sub)
    return pool


def tensor_cube(acyclic, sub):
    from dgglue import samples
    return samples.random_tensor_cube(_field("F7"), samples.rng(sub), CUBE_N,
                                      acyclic=acyclic, **CUBE_PARAMS)


def tensor_cube_doc(cube):
    from dgglue import io as dio
    return {"field": FIELDS["F7"],
            "complex_cubes": {"cube": dio.complex_cube_out(cube, {})},
            "params": {"cube": "cube"}}


def catalogue_key(acyclic):
    return f"n{CUBE_N}-{'acyclic' if acyclic else 'cohomology'}"


def complex_cubes(inp, choose, catalogue):
    for acyclic in (True, False):
        for sub in choose(catalogue[catalogue_key(acyclic)], CUBE_PICKS):
            doc = inp.add_doc(f"tensor-F7-n{CUBE_N}-s{sub}.json",
                              tensor_cube_doc(tensor_cube(acyclic, sub)))
            inp.add_command("check-acyclic", doc, verdict=acyclic)


def refine_input_doc(tag, m):
    from dgglue import io as dio
    field = _field(tag)
    src, tgt, quot, x = ladder_algebras(field, m)
    return {"field": FIELDS[tag],
            "filtered_algebras": {"src": dio.algebra_out(src),
                                  "tgt": dio.algebra_out(tgt)},
            "algebra_maps": {"quot": {"source": "src", "target": "tgt",
                                      "matrix": dio.matrix_out(field,
                                                               quot.matrix)}},
            "params": {"algebra": "src", "algebra2": "tgt", "map": "quot",
                       "d": 2, "ideal": [[dio.scalar_out(field, v)
                                          for v in x]]}}


def square_doc(tag, m):
    """What refine-square must report as its document, built by the library."""
    from dgglue import cli
    return cli._dg_cube_document(ladder_square(_field(tag), m),
                                 params={"cube": "square"})


def corruption_sites(doc, category):
    """Entries of `category`'s composition tables that the unit law fixes.

    In the table of hom(b,c)^i (x) hom(a,b)^j -> hom(a,c)^(i+j) the column
    of (g, id_a), with a = b and id_a a basis vector, must be the unit
    vector of g; likewise for (id_c, f) with b = c.  Changing any entry of
    such a column breaks a unit law, so `validate` must report it.
    """
    cat = doc["categories"][category]
    units = {obj: vec.index(1) for obj, vec in cat["ids"].items()
             if sorted(vec) == [0] * (len(vec) - 1) + [1]}
    sites = []
    for key in sorted(cat["comp"]):
        a, b, c = key.split("|")
        for dkey in sorted(cat["comp"][key]):
            i, j = (int(x) for x in dkey.split(","))
            rows = cat["comp"][key][dkey]
            n_ab = _dim(cat, a, b, j)
            cols = set()
            if a == b and j == 0 and a in units:
                cols.update(g * n_ab + units[a]
                            for g in range(_dim(cat, b, c, i)))
            if b == c and i == 0 and c in units:
                cols.update(units[c] * n_ab + f for f in range(n_ab))
            sites += [(key, dkey, r, col) for col in sorted(cols)
                      for r in range(len(rows))]
    return sites


def _dim(cat, a, b, k):
    hom = cat["hom"].get(f"{a}->{b}")
    return int(hom["dims"].get(str(k), 0)) if hom else 0


def corrupt(doc, category, site):
    """Copy of `doc` with one F_7 composition entry of `category` changed."""
    key, dkey, r, c = site
    bad = json.loads(json.dumps(doc))
    row = bad["categories"][category]["comp"][key][dkey][r]
    row[c] = (row[c] + 1) % 7
    return bad


def build_validate(inp, choose):
    from dgglue import filtlab
    from dgglue import io as dio
    squares = {key: square_doc(*key)
               for key in {*REFINE, *VALIDATE, CORRUPT[:2]}}
    for tag, m in REFINE:
        doc = inp.add_doc(f"refine-input-{tag}-m{m}.json",
                          refine_input_doc(tag, m))
        expected = sha256(dio.dump_json(squares[(tag, m)]).encode())
        inp.add_command("refine-square", doc, document=expected)
    for (tag, m), targets in VALIDATE.items():
        doc = inp.add_doc(f"square-{tag}-m{m}.json", squares[(tag, m)])
        for target in targets:
            inp.add_command("validate", doc, params=(f"target={target}",),
                            verdict=True)
    for tag, m in AUSLANDER:
        alg = filtlab.truncated_polynomial_algebra(_field(tag), m)
        doc = inp.add_doc(f"auslander-{tag}-m{m}.json",
                          {"field": FIELDS[tag],
                           "filtered_algebras": {"a": dio.algebra_out(alg)},
                           "params": {"algebra": "a"}})
        inp.add_command("auslander", doc)
    tag, m, category = CORRUPT
    clean = squares[(tag, m)]
    sites = corruption_sites(clean, category)
    for i in choose(range(len(sites)), CORRUPT_PICKS):
        doc = inp.add_doc(f"corrupt-{tag}-m{m}-{i}.json",
                          corrupt(clean, category, sites[i]))
        inp.add_command("validate", doc, params=(f"target={category}",),
                        verdict=False, violations=True)


def load_catalogue():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["catalogue"]


def build(workload, choose, out_dir, catalogue=None):
    """Write `workload`'s documents to out_dir; return the Inputs."""
    inp = Inputs(out_dir)
    if workload == "glue-ladder":
        glue_ladder(inp, choose)
    elif workload == "glue-ladder-par2":
        glue_ladder(inp, choose, PAR2_LADDER, parallel=2)
    elif workload == "complex-cubes":
        complex_cubes(inp, choose,
                      catalogue if catalogue is not None else load_catalogue())
    elif workload == "build-validate":
        build_validate(inp, choose)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp


def seeded_choice(seed):
    """Picks from each pool, reproducible for a seed; in construction order."""
    rnd = random.Random(seed)

    def choose(pool, k):
        return sorted(rnd.sample(list(pool), k))
    return choose


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    import dgglue.cli  # noqa: F401  (cold import, reported as cli.import_s)
    import_s = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    inp = build(args.workload, seeded_choice(args.seed), args.out)
    manifest = {"workload": args.workload, "seed": args.seed,
                "import_s": import_s, "docs": inp.docs,
                "commands": inp.commands}
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
