"""The graded-module constructions on action matrices against their
per-basis-vector reference (`reference_modules.py`): the same module
documents, hom bases and violation lists."""

from hypothesis import given, settings, strategies as st

import reference_modules as ref
from conftest import F7
from dgglue import io as dio
from dgglue.fields import QQ
from dgglue.filtlab import (auslander, auslander_E, auslander_module_hom,
                            direct_sum_modules, epsilon, floor_refinement,
                            module_hom, shift_module, tensor_n,
                            tensor_unit_map, truncate, truncated_free,
                            validate_module, veronese)
from dgglue.linalg import Matrix
from dgglue.samples import random_filtered_algebra, random_module, rng


def text(m):
    """The module document of either representation, as written."""
    out = ref.module_out if isinstance(m, ref.GradedModule) else dio.module_out
    return dio.dump_json(out(m))


def corrupted(new, old, r):
    """Both modules with the same action entry raised by one, or None when
    every action is empty."""
    keys = sorted(key for key, mat in new.act.items() if mat.nrows and mat.ncols)
    if not keys:
        return None
    j, k = r.choice(keys)
    mat = new.act[(j, k)]
    row, col = r.randrange(mat.nrows), r.randrange(mat.ncols)
    s, c = divmod(col, new.dims[k])
    field = mat.field

    def bumped(m, i, jj):
        out = Matrix(field, m.nrows, m.ncols, [dict(x) for x in m.rows])
        out.set(i, jj, field.add(out.get(i, jj), field.one))
        return out

    new_act = dict(new.act)
    new_act[(j, k)] = bumped(mat, row, col)
    old_act = dict(old.act)
    old_act[(j, k)] = list(old.act[(j, k)])
    old_act[(j, k)][s] = bumped(old_act[(j, k)][s], row, c)
    return (type(new)(new.alg, new.length, new.dims, new.tau, new_act),
            ref.GradedModule(old.alg, old.length, old.dims, old.tau, old_act))


def assert_validates_alike(new, old, r):
    assert validate_module(new) == ref.validate_module(old) == []
    bad = corrupted(new, old, r)
    if bad is not None:
        for cut in (3, 20):
            assert validate_module(bad[0], cut) == \
                ref.validate_module(bad[1], cut)


@settings(max_examples=40)
@given(st.sampled_from(["Q", "F7"]), st.integers(0, 10 ** 6))
def test_module_constructions_match_reference(field_name, seed):
    field = QQ if field_name == "Q" else F7
    alg = random_filtered_algebra(field, rng(seed), max_dim=5)
    n = alg.length
    r = rng(seed + 1)
    # truncated frees, direct sums and cokernels (inside random_module)
    for i in range(n):
        assert text(truncated_free(alg, i)) == text(ref.truncated_free(alg, i))
    m1 = random_module(alg, rng(seed + 2), max_gens=2)
    old1 = ref.random_module(alg, rng(seed + 2), max_gens=2)
    m2 = random_module(alg, rng(seed + 3), max_gens=2)
    old2 = ref.random_module(alg, rng(seed + 3), max_gens=2)
    assert text(m1) == text(old1) and text(m2) == text(old2)
    assert text(direct_sum_modules([m1, m2])) == \
        text(ref.direct_sum_modules([old1, old2]))
    # shifts and truncations; the laws on clean and corrupted modules
    i = r.randrange(n + 1)
    shifted, old_shifted = shift_module(m1, i), ref.shift_module(old1, i)
    assert text(shifted) == text(old_shifted)
    ln = r.randrange(1, n + i + 1)
    assert text(truncate(shifted, ln)) == text(ref.truncate(old_shifted, ln))
    assert_validates_alike(m1, old1, r)
    assert_validates_alike(shifted, old_shifted, r)
    # the Veronese of epsilon on the floor refinement
    d = r.choice([1, 2])
    fine = floor_refinement(alg, d)
    eps, old_eps = epsilon(m1, d, fine), ref.epsilon(old1, d, fine)
    assert text(eps) == text(old_eps)
    assert text(veronese(eps, d, alg)) == text(ref.veronese(old_eps, d, alg))
    # truncated tensor products and the unit map
    assert text(tensor_n(m1, m2)) == text(ref.tensor_n(old1, old2))
    t, maps = tensor_unit_map(m2)
    old_t, old_maps = ref.tensor_unit_map(old2)
    assert text(t) == text(old_t) and maps == old_maps
    # hom bases, graded and over the Auslander algebra
    assert module_hom(m1, m2) == ref.module_hom(old1, old2)
    aus = auslander(alg)
    assert auslander_module_hom(auslander_E(aus, m1), auslander_E(aus, m2)) \
        == ref.auslander_module_hom(ref.auslander_E(aus, old1),
                                    ref.auslander_E(aus, old2))
