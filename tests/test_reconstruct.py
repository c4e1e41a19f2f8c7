from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from qhspace import reconstruct, tensorcat
from qhspace.grouprep import Subgroup, cyclic_group, dihedral_group, extract_irreps
from qhspace.modcat import module_from_pointed, module_from_subgroup
from qhspace.numkit import NumericalRankError, max_residual
from qhspace.reconstruct import (
    ReconstructionError,
    StarAlgebra,
    _assoc_residual,
    basis_triples,
    block_algebra,
    block_consistency,
    block_structure_tensor,
    build_algebra,
    build_bimodule,
    classical_roundtrip,
    cp_certificate,
    gram_closed_form,
    spectral_offsets,
    star_matrix,
    structure_tensor,
    verify_algebra,
    verify_bimodule,
)
from qhspace.tensorcat import UNIT_LABEL

from support import EPS, assert_caught, corner_blocks, dense_tensor, traced_peak, with_rescaled_conjugates
from test_oracles import invariant_dimension_by_characters


def test_algebra_dims_match_character_oracle(s3_table, s3_subgroups, s3_modules):
    for name, sub in s3_subgroups.items():
        alg = build_algebra(s3_modules[name], base=0)
        assert alg.dim == invariant_dimension_by_characters(s3_table, sub), name


def test_star_algebra_axioms(s3_modules, z4_pointed_module, z4_coset_module):
    mods = list(s3_modules.values()) + [z4_pointed_module, z4_coset_module]
    for f in mods:
        for base in range(f.n_base):
            cert = verify_algebra(build_algebra(f, base))
            assert cert.passed, cert.to_text()


def test_pointed_algebra_dim_is_stabilizer_order(z4_pointed_module, z4_coset_module):
    assert build_algebra(z4_pointed_module, 0).dim == 1
    assert build_algebra(z4_coset_module, 0).dim == 2


def test_unit_structure_constants_exact(s3_modules):
    alg = build_algebra(s3_modules["order2"], 0)
    o = basis_triples(s3_modules["order2"], 0, 0).index((UNIT_LABEL, 0, 0))
    eye = np.eye(alg.dim)
    assert np.array_equal(alg.tensor[o, :, :], eye)
    assert np.array_equal(alg.tensor[:, o, :], eye)


def test_gram_routes_agree(s3_modules, z4_coset_module):
    for f in (s3_modules["order2"], s3_modules["trivial"], z4_coset_module):
        assert max_residual(build_algebra(f, 0).gram_from_product(), gram_closed_form(f, 0)) < 1e-12


def test_cp_certificates(s3_modules, z4_pointed_module, z4_coset_module):
    mods = list(s3_modules.values()) + [z4_pointed_module, z4_coset_module]
    for f in mods:
        cert = cp_certificate(build_algebra(f, 0), gram_closed_form(f, 0))
        assert cert.passed, cert.to_text()


def test_classical_roundtrip_function_algebras(s3_modules, z4_cat, z4):
    cases = [build_algebra(s3_modules["trivial"], 0)]
    for n in (2, 4):
        g = cyclic_group(n)
        cat = tensorcat.from_group(extract_irreps(g, seed=0))
        f = module_from_subgroup(cat, Subgroup.generated(g, []))
        cases.append(build_algebra(f, 0))
    for alg, order in zip(cases, (6, 2, 4)):
        cert = classical_roundtrip(alg)
        assert cert.passed, cert.to_text()
        assert alg.dim == order


def test_function_algebra_commutative(s3_modules):
    # functions on G commute even for nonabelian G
    alg = build_algebra(s3_modules["trivial"], 0)
    t = alg.tensor
    assert float(np.max(np.abs(t - np.einsum("qpr->pqr", t)))) < 1e-9


def test_structure_constants_bitwise_under_rescaling(s3, s3_table, s3_subgroups):
    cat = tensorcat.from_group(s3_table)
    sub = s3_subgroups["order2"]
    ref = build_algebra(module_from_subgroup(cat, sub), 0)
    for lam in (2.0, 1j, 0.5 + 0.5j):
        cat2 = with_rescaled_conjugates(cat, lam)
        alg2 = build_algebra(module_from_subgroup(cat2, sub), 0)
        assert np.array_equal(ref.tensor, alg2.tensor)
        assert np.array_equal(ref.star_mat, alg2.star_mat)


def test_bimodule_all_corners(s3_modules):
    f = s3_modules["order2"]
    for x in range(f.n_base):
        for y in range(f.n_base):
            cert = verify_bimodule(build_bimodule(f, x, y))
            assert cert.passed, f"corner ({x},{y}): {cert.to_text()}"


def test_block_consistency(s3_modules):
    cert = block_consistency(s3_modules["order2"], 0, 1)
    assert cert.passed, cert.to_text()


def test_build_algebra_rejects_bad_base(s3_modules):
    with pytest.raises(ReconstructionError):
        build_algebra(s3_modules["order2"], base=7)


def test_invariant_state_is_unital(s3_modules):
    alg = build_algebra(s3_modules["order2"], 0)
    unit = basis_triples(s3_modules["order2"], 0, 0).index((UNIT_LABEL, 0, 0))
    assert alg.unit[unit] == pytest.approx(1.0)
    # the state kills every nonunit basis element
    for p, t in enumerate(basis_triples(s3_modules["order2"], 0, 0)):
        want = 1.0 if t == (UNIT_LABEL, 0, 0) else 0.0
        e = np.zeros(alg.dim, dtype=np.complex128)
        e[p] = 1.0
        assert e[unit] == pytest.approx(want)


def test_star_is_involutive_on_random_elements(s3_modules):
    rng = np.random.default_rng(7)
    for f in s3_modules.values():
        alg = build_algebra(f, 0)
        v = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        star = alg.star[0]
        assert max_residual(star @ np.conj(star @ np.conj(v)), v) < 1e-9


# Fault injection on the associativity checks.  Each fault adds 1e-3 to one
# zero entry of a copied tensor: in a unit row (or right-unit column) for the
# four checks that pair the fault with that unit, where the residual is
# exactly the fault, and in the right-unit column of an off-diagonal corner
# for commuting_actions.  Checks that do not read the copied tensor keep
# their values.
def _bumped(t, idx):
    bad = t.copy()
    assert bad[idx] == 0.0
    bad[idx] += EPS
    return bad


def _with_memo(f, key, value):
    """A copy of f whose memo holds ``value`` at ``key`` and nothing else."""
    g = replace(f)
    g.memo[key] = value
    return g


def test_associativity_fault_caught(s3_modules):
    f = s3_modules["full"]  # base dims (1, 1, 2): the algebra at base 2 has dimension 4
    alg = build_algebra(f, 2)
    alg = replace(alg, blocks={(0, 0, 0): _bumped(alg.tensor, (0, 1, 2))})
    assert_caught(verify_algebra(build_algebra(f, 2)), verify_algebra(alg), "associativity",
                  ("right_unit", "involution", "unit_star"))


def test_star_fault_caught_by_antimultiplicative(s3_modules):
    # every basis pair is checked, so no sample of elements can see more
    f = s3_modules["trivial"]
    alg = build_algebra(f, 0)
    alg = replace(alg, star=[_bumped(alg.star_mat, (0, 1))])
    assert_caught(verify_algebra(build_algebra(f, 0)), verify_algebra(alg), "antimultiplicative",
                  ("left_unit", "right_unit", "associativity", "unit_star"))


def test_negated_star_caught_by_gram_psd(s3_modules):
    # c^dagger G c is positive whenever G is, so the Gram matrix itself is the whole check
    f = s3_modules["trivial"]
    clean, gram = build_algebra(f, 0), gram_closed_form(f, 0)
    alg = replace(clean, star=[-clean.star_mat])
    assert_caught(cp_certificate(clean, gram), cp_certificate(alg, gram), "gram_psd", ("gram_hermitian",))


def test_unit_state_fault_caught_by_state_unit(s3_modules):
    # 1* scaled by 1 - EPS: E(1* 1), the Gram entry [0, 0], moves by EPS, so the product route leaves the
    # closed form there too; the Gram matrix stays Hermitian and positive
    f = s3_modules["order2"]
    clean, gram = build_algebra(f, 0), gram_closed_form(f, 0)
    star = clean.star_mat.copy()
    star[0, 0] -= EPS
    assert_caught(cp_certificate(clean, gram), cp_certificate(replace(clean, star=[star]), gram), "state_unit",
                  ("gram_hermitian",), failing=("gram_routes", "state_unit"))


def test_nan_tensor_entry_fails_positivity_and_roundtrip(s3_modules):
    # eigvalsh may raise on a NaN or leave it out of the smallest eigenvalue, and so may the eigh calls of
    # joint_projections: each check that reads the entry fails with the value NaN instead
    alg = build_algebra(s3_modules["order2"], 0)
    t = alg.tensor.copy()
    t[1, 1, 0] = np.nan
    alg, gram = replace(alg, blocks={(0, 0, 0): t}), gram_closed_form(s3_modules["order2"], 0)
    classical = {"commutativity", "idempotents", "orthogonality", "partition_of_unit", "self_adjoint", "point_count"}
    for cert, failing in ((cp_certificate(alg, gram), {"gram_routes", "gram_hermitian", "gram_psd"}),
                          (classical_roundtrip(alg), classical)):
        assert {c.name for c in cert.checks if not c.passed} == failing, cert.to_text()
        assert all(np.isnan(c.value) for c in cert.checks if c.name in failing)


def _function_algebra(n: int) -> StarAlgebra:
    g = cyclic_group(n)
    cat = tensorcat.from_group(extract_irreps(g, seed=0))
    return build_algebra(module_from_subgroup(cat, Subgroup.generated(g, [])), 0)


@pytest.mark.parametrize("check, algebra, entry, delta, failing", [
    # the one projection of a one-dimensional algebra is its unit: 1 * 1 = 1 - EPS breaks only its square
    ("idempotents", "point", ("tensor", (0, 0, 0)), -EPS, {"idempotents"}),
    ("self_adjoint", "point", ("star", (0, 0)), -EPS, {"self_adjoint"}),
    # e_1 e_1 = 0 in C(Z2): C[x]/x^2 has one character, and the Gram matrix loses e_1
    ("point_count", 2, ("tensor", (1, 1, 0)), -1.0, {"point_count"}),
    # 1 * 1 = 0 in C(Z2): the state no longer sees the unit, so the one projection left is zero
    ("partition_of_unit", 2, ("tensor", (0, 0, 0)), -1.0, {"partition_of_unit", "point_count"}),
    # e_2 e_3 = e_3 e_2 = (1 + 10 EPS) 1 in C(Z4) breaks associativity; a fault of EPS moves the residuals by EPS / 8
    ("orthogonality", 4, ("tensor", (2, 3, 0), (3, 2, 0)), 10 * EPS, {"idempotents", "orthogonality"}),
])
def test_classical_fault_caught(s3_modules, check, algebra, entry, delta, failing):
    # orthogonality cannot fail alone: self-adjoint idempotents that sum to the unit of a C*-algebra are
    # orthogonal, and partition_of_unit fails only where the Gram matrix loses a dimension, and then so does
    # point_count
    clean = build_algebra(s3_modules["full"], 0) if algebra == "point" else _function_algebra(algebra)
    field, *keys = entry
    arr = (clean.tensor if field == "tensor" else clean.star_mat).copy()
    for key in keys:
        arr[key] += delta
    bad = replace(clean, blocks={(0, 0, 0): arr}) if field == "tensor" else replace(clean, star=[arr])
    assert_caught(classical_roundtrip(clean), classical_roundtrip(bad), check, failing=failing)


@pytest.mark.parametrize("gap", [0.0, 1e-2, 1e-6])
def test_classical_roundtrip_refuses_a_gap_at_the_cut(gap):
    # C^3 with the unit, f = (1, 1 + gap, -2 - gap) and a third function orthogonal to both: values of f
    # that coincide or stand 1e-2 apart are split by the next element or by f; 1e-6 apart is at the cut
    f = np.array([1.0, 1.0 + gap, -2.0 - gap])
    values = np.stack([np.ones(3), f, np.cross(np.ones(3), f)], axis=1)  # values[x, p] = e_p(x)
    products = (values[:, :, None] * values[:, None, :]).reshape(3, 9)  # [x, (p, q)]
    t = np.linalg.solve(values, products).reshape(3, 3, 3).transpose(1, 2, 0)
    alg = StarAlgebra("three points", {(0, 0, 0): t.astype(np.complex128)}, [np.eye(3, dtype=np.complex128)],
                      np.eye(3, dtype=np.complex128)[0], np.array([0, 3]))
    if gap == 1e-6:
        with pytest.raises(NumericalRankError):
            classical_roundtrip(alg)
    else:
        assert classical_roundtrip(alg).passed, classical_roundtrip(alg).to_text()


@pytest.mark.parametrize("check, corner, side, unchanged", [
    ("left_associativity", (0, 2), "left_tensor",
     ("right_unit", "right_associativity", "star_involutive")),
    ("right_associativity", (2, 0), "right_tensor",
     ("left_unit", "left_associativity", "star_involutive", "star_exchanges_actions")),
    ("commuting_actions", (2, 1), "right_tensor",
     ("left_unit", "left_associativity", "star_involutive", "star_exchanges_actions")),
])
def test_bimodule_associativity_fault_caught(s3_modules, check, corner, side, unchanged):
    # corners between a one-dimensional and a four-dimensional algebra, so
    # that index (0, 0, 1) sits in the unit row of the left action or the
    # unit column of the right action
    f, (x, y) = s3_modules["full"], corner
    key = {"left_tensor": (x, x, y), "right_tensor": (x, y, y)}[side]
    bad = build_bimodule(_with_memo(f, key, _bumped(getattr(build_bimodule(f, x, y), side), (0, 0, 1))), x, y)
    assert_caught(verify_bimodule(build_bimodule(f, x, y)), verify_bimodule(bad), check, unchanged)


def test_block_associativity_fault_caught(s3_modules, monkeypatch):
    f = s3_modules["full"]
    clean = block_consistency(f, 0, 2)
    (basis, corners), off = block_structure_tensor(f, (0, 2)), block_algebra(f, 0, 2).offsets
    # index 0 is the unit of corner (0, 0), indices 1 and 2 span corner (0, 2)
    bad = corner_blocks(_bumped(dense_tensor(corners, off), (0, 1, 2)), off)
    monkeypatch.setattr(reconstruct, "block_structure_tensor", lambda f, blocks: (basis, bad))
    assert_caught(clean, block_consistency(f, 0, 2), "associativity", ("right_unit",))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_fails_associativity(s3_modules, monkeypatch, bad):
    # Python's max(worst, x) keeps worst when x is NaN, so a NaN row residual was dropped
    f = s3_modules["full"]
    t = build_algebra(f, 2).tensor.copy()
    t[0, 1, 2] = bad
    (basis, corners), off = block_structure_tensor(f, (0, 2)), block_algebra(f, 0, 2).offsets
    block_t = dense_tensor(corners, off)
    # p in corner (0, 0), q in corner (1, 1): the block algebra never forms this product
    assert basis[0][:2] == (0, 0) and basis[-1][:2] == (1, 1)
    block_t[0, -1, 0] = bad
    faulted = corner_blocks(block_t, off)
    assert set(faulted) - set(corners) == {(0, 3, 0)}
    monkeypatch.setattr(reconstruct, "block_structure_tensor", lambda f, blocks: (basis, faulted))
    # inf - inf and 0 * inf raise numpy's invalid-value warning, which the library leaves alone
    with np.errstate(invalid="ignore"):
        plain = _assoc_residual(*[{(0, 0, 0): t}] * 4)
        check = next(c for c in block_consistency(f, 0, 2).checks if c.name == "associativity")
    assert not np.isfinite(plain)
    assert not np.isfinite(check.value) and not check.passed


def test_block_consistency_memory_is_cubic(s4_over_s3):
    # the block algebras of S4 > S3 at base labels (0, 2) and of D12 > <flip> at (0, 1) have dimension
    # 36 and 48: a dense block tensor would take 0.75 and 1.77 MB, an n^4 tensor 27 and 85 MB.  The
    # record keeps the memo's corner tensors, and the memo is filled first, so the peak is
    # block_consistency's own: 0.34 and 0.26 MB.  A star check formed densely reaches 3.77 and 8.91 MB
    d12 = dihedral_group(12)
    flip = module_from_subgroup(tensorcat.from_group(extract_irreps(d12, seed=0)), Subgroup.generated(d12, [12]))
    for f, blocks, n, bound in ((s4_over_s3, (0, 2), 36, 0.6e6), (flip, (0, 1), 48, 0.6e6)):
        assert len(block_structure_tensor(f, blocks)[0]) == n
        block_consistency(f, *blocks)
        cert, peak = traced_peak(block_consistency, f, *blocks)
        assert cert.passed, cert.to_text()
        assert peak < bound, (f.name, peak)


def test_records_keep_the_memo_arrays(s3_modules, s4_over_s3):
    # a block algebra holds the memo's corner tensors and stars themselves, and a base algebra its one of each
    for f, x, y in ((s3_modules["full"], 0, 2), (s4_over_s3, 0, 2), (s4_over_s3, 1, 2)):
        _, corners = block_structure_tensor(f, (x, y))
        labels = (x, y)
        assert len(corners) == 8
        for (i, j, k), t in corners.items():
            assert t is structure_tensor(f, labels[i // 2], labels[j // 2], labels[k % 2]), (i, j, k)
        assert all(a is b for a, b in zip(block_algebra(f, x, y).blocks.values(), corners.values()))
        for base in (x, y):
            alg = build_algebra(f, base)
            assert alg.tensor is structure_tensor(f, base, base, base) and list(alg.blocks) == [(0, 0, 0)]
            assert alg.star_mat is star_matrix(f, base, base)
            one = block_algebra(f, base)
            assert list(one.blocks) == list(alg.blocks) and one.tensor is alg.tensor
            assert len(one.star) == 1 and one.star_mat is alg.star_mat
            assert np.array_equal(one.unit, alg.unit) and np.array_equal(one.offsets, alg.offsets)
    # the star of corner (u, v) is the memo's star matrix of (labels[u], labels[v]), for one, two and all labels
    for f in (s3_modules["full"], s4_over_s3):
        for labels in ((1,), (0, 2), tuple(range(f.n_base))):
            pairs = list(product(labels, repeat=2))
            alg = block_algebra(f, *labels)
            assert len(alg.star) == len(pairs) == len(alg.offsets) - 1, labels
            assert all(s is star_matrix(f, x, y) for s, (x, y) in zip(alg.star, pairs)), labels
    with pytest.raises(ReconstructionError):
        block_algebra(s4_over_s3, 0, 2).tensor
    with pytest.raises(ReconstructionError):
        block_algebra(s4_over_s3, 0, 2).star_mat


@pytest.mark.parametrize("call, label", [(block_algebra, 1), (block_consistency, -1)])
def test_block_records_refuse_a_bad_base_label(s3_modules, call, label):
    # S3 over its trivial subgroup has one base label: 1 read past the end, and -1 wrapped around
    with pytest.raises(ReconstructionError, match=f"base label {label} out of range"):
        call(s3_modules["trivial"], 0, label)


def _cyclic_over_trivial(data):
    """The pointed category of ``data`` over its trivial subgroup: one base label per group element."""
    return module_from_pointed(tensorcat.from_pointed(data), Subgroup.generated(data.group, []))


def test_linking_records_are_star_algebras(s3_modules, s4_over_s3):
    # every corner B_xy in one record; S4 > S3 has J = 3, so its triples (x, y, z) of distinct labels are read
    z8 = _cyclic_over_trivial(tensorcat.PointedFusionData(cyclic_group(8), np.ones((8, 8, 8))))
    for f, j in ((s3_modules["order2"], 2), (s4_over_s3, 3), (z8, 8)):
        assert f.n_base == j
        alg = block_algebra(f, *range(j))
        assert len(alg.offsets) - 1 == j * j
        cert = verify_algebra(alg)
        assert cert.passed, cert.to_text()


def test_linking_record_fails_under_a_nontrivial_cocycle():
    # with [omega] != 0 there is no fibre functor, and the corners of Z4 over 1 cannot form a *-algebra
    f = _cyclic_over_trivial(tensorcat.standard_cyclic_cocycle(4))
    cert = verify_algebra(block_algebra(f, *range(f.n_base)))
    assert {c.name for c in cert.checks if not c.passed} == {"associativity", "involution", "antimultiplicative"}


def test_block_star_fault_caught_by_antimultiplicative(s3_modules):
    # one entry of the star of off-diagonal corner (0, 2), which maps it onto corner (2, 0)
    f = s3_modules["full"]
    star = star_matrix(f, 0, 2).copy()
    star[0, 1] += EPS
    assert_caught(block_consistency(f, 0, 2), block_consistency(_with_memo(f, (0, 2), star), 0, 2),
                  "antimultiplicative", ("left_unit", "right_unit", "associativity", "unit_star"),
                  failing=("involution", "antimultiplicative"))
    # a NaN reaches every check that multiplies by the star, 1* = S conj(1) too
    star[0, 1] = np.nan
    cert = block_consistency(_with_memo(f, (0, 2), star), 0, 2)
    failed = {c.name: c.value for c in cert.checks if not c.passed}
    assert set(failed) == {"involution", "unit_star", "antimultiplicative"}, failed
    assert all(map(np.isnan, failed.values())), failed


# The memo: each corner structure tensor and star matrix is built once per module.


def _corner_sweep(f):
    """Every bimodule corner and every block algebra of f, as the ``corners`` benchmark checks them."""
    for x, y in product(range(f.n_base), repeat=2):
        cert = verify_bimodule(build_bimodule(f, x, y))
        assert cert.passed, cert.to_text()
        if x < y:
            cert = block_consistency(f, x, y)
            assert cert.passed, cert.to_text()


def test_corner_sweep_builds_each_key_once(s4_over_s3, monkeypatch):
    f = replace(s4_over_s3)  # a copy with an empty memo
    built = Counter()
    for name in ("_structure_tensor", "_star_matrix"):
        def counting(g, *key, build=getattr(reconstruct, name)):
            built[key] += 1
            return build(g, *key)
        monkeypatch.setattr(reconstruct, name, counting)
    _corner_sweep(f)
    assert set(built.values()) == {1}, built
    assert set(built) == set(f.memo)
    # base labels (0, 1, 2): every triple with at most two distinct labels, and every pair
    assert sorted(len(key) for key in built) == [2] * 9 + [3] * 21


def test_memo_arrays_are_read_only_and_exact(s4_over_s3):
    f = replace(s4_over_s3)
    for key in product(range(f.n_base), repeat=3):
        t = structure_tensor(f, *key)
        assert t is f.memo[key] and t is structure_tensor(f, *key)
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0, 0] = 1.0
        ref = reconstruct._structure_tensor(f, *key)
        assert ref.flags.writeable and ref.dtype == t.dtype and ref.shape == t.shape
        assert ref.tobytes() == t.tobytes(), key
    for key in product(range(f.n_base), repeat=2):
        s = star_matrix(f, *key)
        assert s is f.memo[key] and not s.flags.writeable
        assert reconstruct._star_matrix(f, *key).tobytes() == s.tobytes(), key


def test_replaced_copy_starts_empty_and_sees_its_own_fault(s3_cat, s3_modules):
    f = s3_modules["order2"]
    assert verify_algebra(build_algebra(f, 0)).passed
    assert (0, 0, 0) in f.memo
    g = replace(f, coherence=f.coherence.copy())
    assert g.memo == {} and g.memo is not f.memo
    # criterion 10's fault 4: a coherence entry the base-0 product reads
    two = next(a for a in s3_cat.labels if s3_cat.dim(a) == 2)
    g.coherence_channel(two, two, 0, 0, two)[0, 0, 0] += 1e-3
    assert not verify_algebra(build_algebra(g, 0)).passed
    assert verify_algebra(build_algebra(f, 0)).passed


def test_memo_holds_cube_of_group_order(s4_over_s3, z4_coset_module):
    # n_xy n_yz n_xz summed over all triples is |G|^3 for subgroup and coset modules
    for f, order in ((s4_over_s3, 24), (z4_coset_module, 4)):
        f = replace(f)
        n = [[spectral_offsets(f, x, y)[-1] for y in range(f.n_base)] for x in range(f.n_base)]
        _corner_sweep(f)
        swept = [key for key in f.memo if len(key) == 3]
        assert sum(f.memo[key].nbytes for key in swept) == sum(16 * n[x][y] * n[y][z] * n[x][z]
                                                               for x, y, z in swept)
        for key in product(range(f.n_base), repeat=3):
            structure_tensor(f, *key)
        assert sum(t.nbytes for key, t in f.memo.items() if len(key) == 3) == 16 * order**3
