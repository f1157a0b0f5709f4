"""Command-line front end.

Reads a JSON document (stdin or --in), runs one command, writes a JSON report
(stdout or --out).  Reports are deterministic for a fixed document and
package version: keys are sorted, object pairs are ordered lexicographically,
and wall-clock timing is only included when --timing is passed.

Exit codes: 0 = verdict computed (even when the verdict is "false"),
1 = malformed input (parse error, unresolved reference, field mismatch,
resource guard), 2 = internal invariant violation.

Document schema (see also README.md): a document declares one scalar field
("Q" or {"Fp": p}) and named entities under "complexes", "graded_maps",
"categories", "functors", "complex_cubes", "dg_cubes", "filtered_algebras",
"modules", "algebra_maps" and "twisted_complexes"; command parameters live
under "params" and can be overridden with --param KEY=VALUE.  Rationals are
"a/b" strings, prime-field scalars integers in [0, p); matrices are row-major
nested lists; coordinate subsets are comma-joined sorted integers with "" for
the empty set; cube edge keys are "I|l".
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import io as dio
from .complexes import ComplexError
from .dgcat import DgError, ext_table, validate_category, validate_functor
from .fields import FieldError, field_to_config, parse_prime
from .filtlab import (FiltError, auslander, generated_ideal, proj_dgcat,
                      refine, refinement_square, validate_algebra_map,
                      validate_filtration, validate_module)
from .glue import (GlueError, InternalError, cube_verdict, decide_cube, gac,
                   glue, hom_iso_check, pair_result)
from .hypercube import (CubeError, category_key, check_acyclic_complexcube,
                        extend, extend_dg, stack, stack_dg, totalize)
from .linalg import LinAlgError
from .twisted import TwError
from .io import DocumentError, lookup

CUBE_DIMENSION_CAP = 4

COMMANDS = ["validate", "cohomology", "totalize", "check-acyclic", "stack",
            "extend", "gac-hom", "glue", "check-qff", "hom-iso", "ext-table",
            "auslander", "refine", "refine-square", "proj-dgcat"]


class InputError(ValueError):
    pass


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off, then restore
    the caller's collector state, whatever the exit path.

    A command allocates millions of short-lived containers and almost no
    reference cycles, so each automatic full collection would re-walk the
    parsed document and the Gac for nothing; the counts that parsing builds
    up would trigger such collections later, during the decision, so the
    collector stays off for the whole command rather than for parsing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _command(argv)
    finally:
        if enabled:
            gc.enable()


def _command(argv):
    parser = argparse.ArgumentParser(
        prog="dgglue",
        description="exact computations with glued hypercubes of dg categories")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="infile", default=None,
                        help="input document (default: stdin)")
    parser.add_argument("--out", dest="outfile", default=None,
                        help="report destination (default: stdout)")
    parser.add_argument("--field", default=None,
                        help='field when the document omits it: Q or Fp:<p>')
    parser.add_argument("--parallel", type=int, default=1, metavar="K",
                        help="object-pair level parallelism")
    parser.add_argument("--max-dim", type=int, default=64,
                        help="cap on vertex hom-complex dimensions")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="override document params")
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    try:
        if args.parallel < 1:
            raise InputError(f"--parallel must be at least 1, "
                             f"not {args.parallel}")
        raw = _read_input(args.infile)
        default_field = _field_flag(args.field)
        doc = dio.parse_document(raw, default_field=default_field)
        for kv in args.param:
            if "=" not in kv:
                raise InputError(f"bad --param {kv!r}")
            k, v = kv.split("=", 1)
            doc.params[k] = v
        report = run(args.command, doc, parallel=args.parallel,
                     max_dim=args.max_dim)
    except (InputError, DocumentError, FieldError, json.JSONDecodeError,
            FiltError, DgError, TwError, CubeError, ComplexError, LinAlgError,
            GlueError) as exc:
        _emit({"command": args.command, "error": str(exc) or repr(exc)},
              args.outfile)
        return 1
    except InternalError as exc:
        _emit({"command": args.command, "internal_error": str(exc)},
              args.outfile)
        return 2
    except Exception as exc:  # any other failure is ours, not the input's
        _emit({"command": args.command,
               "internal_error": f"{type(exc).__name__}: {exc}"}, args.outfile)
        return 2
    if args.timing:
        report["timing"] = {"seconds": round(time.monotonic() - t_start, 6)}
    _emit(report, args.outfile)
    return 0


def _read_input(path):
    try:
        if path is None:
            return dio.load_json(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return dio.load_json(fh.read())
    except json.JSONDecodeError:
        raise
    except (OSError, ValueError) as exc:
        # ValueError: undecodable bytes, or an integer of more digits than
        # int() converts
        where = "stdin" if path is None else f"--in {path!r}"
        raise InputError(f"cannot read {where}: {exc}") from exc


def _field_flag(flag):
    if flag is None:
        return None
    if flag == "Q":
        return "Q"
    if flag.startswith("Fp:"):
        return {"Fp": parse_prime(flag.split(":", 1)[1])}
    raise InputError(f"bad --field {flag!r}")


def _emit(report, outfile):
    text = dio.dump_json(report) + "\n"
    if outfile is None:
        sys.stdout.write(text)
    else:
        with open(outfile, "w", encoding="utf-8") as fh:
            fh.write(text)


def _param(doc, key, default=None):
    v = doc.params.get(key, default)
    if v is None:
        raise InputError(f"missing parameter {key!r}")
    return v


def _int_param(doc, key):
    v = _param(doc, key)
    try:
        return int(v)
    except (TypeError, ValueError):
        raise InputError(f"parameter {key!r} must be an integer, "
                         f"not {v!r}") from None


def _guard_dg_cube(cube, max_dim):
    if cube.n > CUBE_DIMENSION_CAP:
        raise InputError(f"cube dimension {cube.n} exceeds the cap "
                         f"{CUBE_DIMENSION_CAP}")
    for I, cat in cube.vertices.items():
        for a in cat.objects:
            for b in cat.objects:
                total = cat.hom(a, b).total_dim()
                if total > max_dim:
                    raise InputError(
                        f"hom dimension {total} at vertex {sorted(I)} exceeds "
                        f"--max-dim {max_dim}")


def run(command, doc, parallel=1, max_dim=64):
    """Dispatch one CLI command against a parsed document."""
    field = doc.field
    report = {"command": command, "field": field_to_config(field),
              "params": {k: doc.params[k] for k in sorted(doc.params)}}

    if command == "validate":
        target = _param(doc, "target")
        kind, violations = _validate_target(doc, target, max_dim)
        report.update({"target": target, "kind": kind,
                       "violations": violations,
                       "verdict": not violations})
        return report

    if command == "cohomology":
        name = _param(doc, "complex")
        c = lookup(doc.complexes, name, "complex")
        report["table"] = _table(c.cohomology())
        return report

    if command == "totalize":
        name = _param(doc, "cube")
        cube = lookup(doc.complex_cubes, name, "complex cube")
        t = totalize(cube)
        report["complex"] = dio.complex_out(t)
        report["cohomology"] = _table(coh := t.cohomology())
        report["acyclic"] = not coh
        return report

    if command == "check-acyclic":
        name = _param(doc, "cube")
        if name in doc.complex_cubes:
            verdict = check_acyclic_complexcube(doc.complex_cubes[name])
            report.update({"kind": "complex_cube", "verdict": verdict})
            return report
        cube = lookup(doc.dg_cubes, name, "cube")
        _guard_dg_cube(cube, max_dim)
        ok, pairs = _cube_pairs("acyclic", doc, name, cube, parallel)
        report.update({"kind": "dg_cube", "verdict": ok, "pairs": pairs})
        return report

    if command in ("stack", "extend"):
        first = _param(doc, "first")
        second = _param(doc, "second")
        if first in doc.complex_cubes:
            a = doc.complex_cubes[first]
            b = lookup(doc.complex_cubes, second, "complex cube")
            out = stack(a, b) if command == "stack" else extend(a, b)
            report["cube"] = dio.complex_cube_out(out, {})
            return report
        a = lookup(doc.dg_cubes, first, "cube")
        b = lookup(doc.dg_cubes, second, "cube")
        out = stack_dg(a, b) if command == "stack" else extend_dg(a, b)
        report["cube"] = _dg_cube_document(out)
        return report

    if command == "gac-hom":
        cube = lookup(doc.dg_cubes, _param(doc, "cube"), "cube")
        _guard_dg_cube(cube, max_dim)
        g = gac(cube)
        src = _param(doc, "source")
        tgt = _param(doc, "target")
        if src not in g.category.objects or tgt not in g.category.objects:
            raise InputError("gac-hom source/target must be 'i:object' labels")
        h = g.category.hom(src, tgt)
        report["hom"] = dio.complex_out(h)
        report["cohomology"] = _table(h.cohomology())
        return report

    if command == "glue":
        cube = lookup(doc.dg_cubes, _param(doc, "cube"), "cube")
        _guard_dg_cube(cube, max_dim)
        g = gac(cube)
        names = [s for s in str(_param(doc, "objects")).split(",") if s]
        tws = {}
        for name in names:
            tdata = lookup(doc.twisted_complexes, name, "twisted complex")
            tws[name] = dio.twisted_in(field, tdata, g.category)
        cat = glue(g, tws)
        report["category"] = dio.category_out(cat)
        return report

    if command == "check-qff":
        name = _param(doc, "cube")
        cube = lookup(doc.dg_cubes, name, "cube")
        _guard_dg_cube(cube, max_dim)
        ok, pairs = _cube_pairs("qff", doc, name, cube, parallel)
        report.update({"verdict": ok, "pairs": pairs})
        return report

    if command == "hom-iso":
        name = _param(doc, "cube")
        cube = lookup(doc.dg_cubes, name, "cube")
        _guard_dg_cube(cube, max_dim)
        init = cube.initial()
        pairs = {}
        ok = True
        src = doc.params.get("source")
        tgt = doc.params.get("target")
        todo = [(src, tgt)] if src is not None and tgt is not None else \
            [(a, b) for a in init.objects for b in init.objects]
        if any(x not in init.objects for pair in todo for x in pair):
            raise InputError("hom-iso source/target must be objects of the "
                             "initial vertex")
        # after the check: a source or target from the document may be any
        # JSON value, and an unhashable one must exit 1, not 2
        g = gac(cube, {x for pair in todo for x in pair})
        for a, b in sorted(todo):
            res = hom_iso_check(cube, a, b, g)
            pairs[f"{a}|{b}"] = res
            ok = ok and res
        report.update({"verdict": ok, "pairs": pairs})
        return report

    if command == "ext-table":
        cat = lookup(doc.categories, _param(doc, "category"), "category")
        table = {}
        for (a, b), coh in sorted(ext_table(cat).items()):
            table[f"{a}|{b}"] = _table(coh)
        report["table"] = table
        return report

    if command == "auslander":
        alg = lookup(doc.filtered_algebras, _param(doc, "algebra"), "algebra")
        bad = validate_filtration(alg, max_report=1)
        if bad:
            raise InputError(f"algebra is not a filtered algebra: {bad[0]}")
        aus = auslander(alg)
        bad = aus.validate()
        if bad:
            raise InternalError(f"Auslander algebra invalid: {bad[0]}")
        report["total_dim"] = aus.total_dim()
        report["blocks"] = {f"{i},{j}": aus.block_dim(i, j)
                            for i in range(aus.n) for j in range(aus.n)}
        mult = {}
        for t1 in range(aus.dim):
            for t2 in range(aus.dim):
                vec = aus.mul_basis(t1, t2)
                if any(not field.is_zero(v) for v in vec):
                    mult[f"{t1},{t2}"] = [dio.scalar_out(field, v) for v in vec]
        report["algebra"] = {
            "basis": [f"{i},{j},{s}" for (i, j, s) in aus.basis],
            "unit": [dio.scalar_out(field, v) for v in aus.unit_vec()],
            "mult": mult,
        }
        return report

    if command == "refine":
        alg = lookup(doc.filtered_algebras, _param(doc, "algebra"), "algebra")
        d = _int_param(doc, "d")
        ideal = _ideal_from_params(doc, alg)
        refined = refine(alg, ideal, d)
        report["algebra"] = dio.algebra_out(refined)
        report["length"] = refined.length
        return report

    if command == "refine-square":
        alg = lookup(doc.filtered_algebras, _param(doc, "algebra"), "algebra")
        alg2 = lookup(doc.filtered_algebras, _param(doc, "algebra2"), "algebra")
        fmap = lookup(doc.algebra_maps, _param(doc, "map"), "algebra map")
        d = _int_param(doc, "d")
        ideal = _ideal_from_params(doc, alg)
        cube = refinement_square(alg, alg2, fmap, ideal, d)
        report["document"] = _dg_cube_document(cube, params={"cube": "square"})
        return report

    if command == "proj-dgcat":
        alg = lookup(doc.filtered_algebras, _param(doc, "algebra"), "algebra")
        cat = proj_dgcat(alg)
        report["category"] = dio.category_out(cat)
        return report

    raise InputError(f"unknown command {command!r}")


def _ideal_from_params(doc, alg):
    cols = _param(doc, "ideal")
    if isinstance(cols, str):
        try:
            cols = json.loads(cols)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:   # an integer of more digits than int() converts
            raise InputError(f"cannot read ideal: {exc}") from exc
    if not isinstance(cols, list) or not all(isinstance(c, list) for c in cols):
        raise InputError("ideal must be a list of generators, each a list")
    vectors = [tuple(dio.scalar_in(doc.field, v) for v in col) for col in cols]
    for v in vectors:
        if len(v) != alg.dim:
            raise InputError("ideal generator has wrong length")
    return generated_ideal(alg, vectors)


def _validate_target(doc, target, max_dim):
    if target in doc.complexes:
        return "complex", []          # construction already enforces d^2 = 0
    if target in doc.categories:
        return "category", validate_category(doc.categories[target])
    if target in doc.functors:
        return "functor", validate_functor(doc.functors[target])
    if target in doc.complex_cubes:
        d = doc.complex_cubes[target].defect()
        return "complex_cube", [d] if d else []
    if target in doc.dg_cubes:
        d = doc.dg_cubes[target].defect(deep=True)
        return "dg_cube", [d] if d else []
    if target.startswith("gac:") and target[4:] in doc.dg_cubes:
        cube = doc.dg_cubes[target[4:]]
        _guard_dg_cube(cube, max_dim)
        return "gac", validate_category(gac(cube).category)
    if target in doc.filtered_algebras:
        return "filtered_algebra", validate_filtration(doc.filtered_algebras[target])
    if target in doc.modules:
        return "module", validate_module(doc.modules[target])
    if target in doc.algebra_maps:
        return "algebra_map", validate_algebra_map(doc.algebra_maps[target])
    if target in doc.twisted_complexes:
        tdata = doc.twisted_complexes[target]
        cat_ref = tdata.get("category", "")
        if cat_ref in doc.categories:
            cat = doc.categories[cat_ref]
        elif cat_ref.startswith("gac:") and cat_ref[4:] in doc.dg_cubes:
            cat = gac(doc.dg_cubes[cat_ref[4:]]).category
        else:
            raise InputError(f"twisted complex {target!r} has an unresolved "
                             f"category {cat_ref!r}")
        try:
            dio.twisted_in(doc.field, tdata, cat)
        except TwError as exc:
            return "twisted_complex", [str(exc)]
        return "twisted_complex", []
    raise InputError(f"unresolved reference {target!r}")


def _dg_cube_document(cube, params=None):
    """A self-contained document fragment for a dg cube.

    A vertex category repeated under several names (one object, or the
    copies `io` makes of it, which share its tables) is written once, and
    the names share that dict: pickling sends it once, and `io._parse_once`
    finds it by identity.
    """
    cat_names = {}
    fun_names = {}
    categories = {}
    functors = {}
    written = {}
    for I in sorted(cube.vertices, key=lambda s: (len(s), sorted(s))):
        name = f"cat_{dio.subset_out(I) or 'o'}"
        cat = cube.vertices[I]
        cat_names[id(cat)] = name
        key = category_key(cat)
        if key not in written:
            written[key] = dio.category_out(cat)
        categories[name] = written[key]
    for (I, l), e in sorted(cube.edges.items(),
                            key=lambda kv: (sorted(kv[0][0]), kv[0][1])):
        name = f"edge_{dio.subset_out(I) or 'o'}_{l}"
        fun_names[id(e)] = name
        functors[name] = dio.functor_out(
            e, cat_names[id(cube.vertices[I])],
            cat_names[id(cube.vertices[I | frozenset({l})])])
    out = {
        "field": field_to_config(cube.field),
        "categories": categories,
        "functors": functors,
        "dg_cubes": {"square" if cube.n == 2 else f"cube{cube.n}":
                     dio.dg_cube_out(cube, cat_names, fun_names)},
    }
    if params:
        out["params"] = params
    return out


# -- pairwise work, optionally in parallel ------------------------------------


_worker = {}     # a pool worker's cube, and its Gac once a qff pair needs it


def _cube_pairs(kind, doc, cube_name, cube, parallel):
    """Decide every object pair of the initial vertex through `pair_result`,
    by `decide_cube` in this process or in a pool whose workers each parse
    the cube once."""
    if parallel > 1:
        init = cube.initial()
        pairs = sorted((a, b) for a in init.objects for b in init.objects)
        raw = _document_roundtrip(doc, cube_name)
        with ProcessPoolExecutor(max_workers=parallel, initializer=_worker_init,
                                 initargs=(raw,)) as pool:
            results = dict(zip(pairs, pool.map(
                _worker_pair, [(kind, a, b) for a, b in pairs])))
        ok = cube_verdict(kind, results.values())
    else:
        ok, results = decide_cube(kind, cube)
    return ok, {f"{a}|{b}": _pair_out(kind, res)
                for (a, b), res in results.items()}


def _pair_out(kind, res):
    """The report entry of one pair's `pair_result`."""
    if kind == "acyclic":
        return _table(res)
    return {"source": _table(res["source"]), "glue": _table(res["glue"]),
            "isomorphism": res["isomorphism"]}


def _table(coh):
    return {str(k): v for k, v in sorted(coh.items())}


def _worker_init(raw):
    gc.disable()            # as in `main`; spawned workers do not inherit it
    _worker["cube"] = dio.parse_document(raw).dg_cubes["cube"]


def _worker_pair(task):
    """One pair's `pair_result` in a pool worker, which builds its Gac, on
    the pushes of the initial objects, for its first qff pair."""
    kind, a, b = task
    cube = _worker["cube"]
    if kind == "qff" and "gac" not in _worker:
        _worker["gac"] = gac(cube, cube.initial().objects)
    return pair_result(kind, cube, a, b, _worker.get("gac"))


def _document_roundtrip(doc, cube_name):
    """The cube as a JSON document for the pool: a parsed DgCube holds
    closures and does not pickle."""
    frag = _dg_cube_document(doc.dg_cubes[cube_name])
    frag["dg_cubes"] = {"cube": list(frag["dg_cubes"].values())[0]}
    return frag


if __name__ == "__main__":
    sys.exit(main())
