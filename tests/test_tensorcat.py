import copy
import re
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest

from qhspace import grouprep, tensorcat
from qhspace.grouprep import (IrrepTable, UnitaryRep, cyclic_group, dihedral_group, extract_irreps,
                              group_from_permutations, intertwiner_basis, symmetric_group, tensor_rep)
from qhspace.tensorcat import (
    UNIT_LABEL,
    CocycleError,
    PointedFusionData,
    PresentationError,
    from_pointed,
    standard_cyclic_cocycle,
    verify_presentation,
)

from support import EPS, assert_caught, traced_peak, with_rescaled_conjugates
from test_grouprep import _quaternion_group


def test_s3_presentation_passes(s3_cat):
    cert = verify_presentation(s3_cat)
    assert cert.passed, cert.to_text()


def test_z4_presentation_passes(z4_cat):
    assert verify_presentation(z4_cat).passed


def test_pointed_z4_presentation_passes(z4_pointed_cat):
    assert verify_presentation(z4_pointed_cat).passed


def test_snake_residuals_small(s3_cat, z4_cat, z4_pointed_cat):
    for cat in (s3_cat, z4_cat, z4_pointed_cat):
        for a in cat.labels:
            s1, s2 = cat.snake_residuals(a)
            assert s1 < 1e-9 and s2 < 1e-9


def test_qdim_matches_dimension_for_groups(s3_cat):
    for a in s3_cat.labels:
        assert s3_cat.qdim[a] == pytest.approx(s3_cat.dim(a))


def test_fusion_counting(s3_cat):
    # dimensions add up channel by channel
    for a in s3_cat.labels:
        for b in s3_cat.labels:
            total = sum(s3_cat.mult(a, b, c) * s3_cat.dim(c)
                        for c in s3_cat.channels(a, b))
            assert total == s3_cat.dim(a) * s3_cat.dim(b)


def test_unit_fusion_is_exact_identity(s3_cat):
    for a in s3_cat.labels:
        isos = s3_cat.isometries(UNIT_LABEL, a, a)
        assert len(isos) == 1
        assert np.array_equal(isos[0], np.eye(s3_cat.dim(a)))


def test_rescaling_preserves_snakes(s3_cat):
    for lam in (2.0, 1j, 0.5 + 0.5j):
        cat2 = with_rescaled_conjugates(s3_cat, lam)
        for a in cat2.labels:
            s1, s2 = cat2.snake_residuals(a)
            assert s1 < 1e-9 and s2 < 1e-9


def test_rescaling_zero_rejected(s3_cat):
    with pytest.raises(ValueError):
        with_rescaled_conjugates(s3_cat, 0.0)


def test_cocycle_identity_enforced():
    z4 = cyclic_group(4)
    bad = np.ones((4, 4, 4), dtype=np.complex128)
    bad[1, 1, 1] = -1.0  # breaks normalization-compatible closure
    with pytest.raises(CocycleError, match=r"quadruple \(1,1,1,2\)"):
        PointedFusionData(z4, bad)
    bad = np.ones((4, 4, 4), dtype=np.complex128)
    bad[2, 3, 1] = -1.0
    with pytest.raises(CocycleError, match=r"quadruple \(1,1,3,1\)"):
        PointedFusionData(z4, bad)


def test_cocycle_check_keeps_its_message_in_n_cubed_memory():
    # one flipped entry of the standard cocycle: the first failing quadruple in (g, h, k, l)
    # order, as the check over all n^4 quadruples at once reported it
    for n, entry, quadruple in ((6, (2, 3, 4), "(1,1,3,4)"), (24, (5, 17, 9), "(1,4,17,9)"),
                                (24, (23, 23, 1), "(1,22,23,1)")):
        om = standard_cyclic_cocycle(n).cocycle.copy()
        om[entry] *= -1.0
        with pytest.raises(CocycleError) as err:
            PointedFusionData(cyclic_group(n), om)
        assert str(err.value) == f"cocycle identity fails at quadruple {quadruple}"
    # and a normalization failure names the first offending triple in the same order
    for entry in ((0, 3, 4), (3, 0, 4), (3, 4, 0), (2, 0, 0)):
        om = standard_cyclic_cocycle(6).cocycle.copy()
        om[entry] = -1.0
        with pytest.raises(CocycleError) as err:
            PointedFusionData(cyclic_group(6), om)
        assert str(err.value) == f"cocycle not normalized at {entry}"
    # Z24: the check holds a few n^3 slices (0.9 MB traced); all n^4 quadruples at once peaked at 18.6 MB
    om, z24 = standard_cyclic_cocycle(24).cocycle, cyclic_group(24)
    _, peak = traced_peak(PointedFusionData, z24, om)
    assert peak < 2.5e6, peak


def test_cocycle_with_a_nan_entry_is_refused():
    om = standard_cyclic_cocycle(6).cocycle.copy()
    om[1, 2, 3] = np.nan
    with pytest.raises(CocycleError, match="unit modulus"):
        PointedFusionData(cyclic_group(6), om)


def test_standard_cocycle_nontrivial():
    data = standard_cyclic_cocycle(4)
    assert abs(data.cocycle[2, 2, 2] + 1.0) < 1e-12  # equals -1


def test_canonical_conjugates_deterministic(s3_cat):
    for a in s3_cat.labels:
        r1, rb1 = s3_cat.canonical_conjugates(a)
        r2, rb2 = s3_cat.canonical_conjugates(a)
        assert np.array_equal(r1, r2) and np.array_equal(rb1, rb2)


def test_canonical_conjugates_read_only_and_kept_by_rescaled_copies(s3_cat, z4_pointed_cat):
    for cat in (s3_cat, z4_pointed_cat):
        copy = with_rescaled_conjugates(cat, 2.0 + 1j)
        for a in cat.labels:
            r, rb = cat.canonical_conjugates(a)
            with pytest.raises(ValueError):
                r[0, 0] = 0.0
            with pytest.raises(ValueError):
                rb[0, 0] = 0.0
            r2, rb2 = copy.canonical_conjugates(a)
            assert np.array_equal(r, r2) and np.array_equal(rb, rb2)
            assert not np.array_equal(copy.conj_solutions[a][0], r)


def test_stored_conjugates_are_canonical(s3_cat, z4_cat, z4_pointed_cat):
    # before any rescaling the stored pair is the canonical one, so a star
    # matrix built from either pair is the same
    for cat in (s3_cat, z4_cat, z4_pointed_cat):
        for a in cat.labels:
            r, rb = cat.conj_solutions[a]
            r_canon, rb_canon = cat.canonical_conjugates(a)
            assert np.array_equal(r, r_canon) and np.array_equal(rb, rb_canon)


def test_conjugate_norm_product(s3_cat, z4_pointed_cat):
    for cat in (s3_cat, z4_pointed_cat):
        for a in cat.labels:
            r, rb = cat.conj_solutions[a]
            prod = np.linalg.norm(r) * np.linalg.norm(rb)
            assert prod == pytest.approx(cat.qdim[a], abs=1e-9)


def test_nan_fusion_isometry_fails():
    # a max(worst, x) fold keeps worst when x is NaN; both isometry checks must report it
    cat = tensorcat.from_pointed(standard_cyclic_cocycle(4))
    assert verify_presentation(cat).passed
    cat.fusion[(1, 2)][3] = (np.full((1, 1), np.nan, dtype=np.complex128),)
    failed = {c.name: c.value for c in verify_presentation(cat).checks if not c.passed}
    assert np.isnan(failed["isometry_orthogonality"]) and np.isnan(failed["isometry_completeness"])


def test_recoupling_unitarity_catches_a_scaled_associator():
    # the modulus of one cocycle value of Z4 moved by EPS: the recoupling matrix of the cases that read
    # it is no longer unitary (w^dagger w = (1 + EPS)^2), and no other check reads the associator there
    clean, cat = (tensorcat.from_pointed(standard_cyclic_cocycle(4)) for _ in range(2))
    cat.pointed.cocycle[1, 2, 3] *= 1 + EPS
    assert_caught(verify_presentation(clean), verify_presentation(cat), "recoupling_unitarity",
                  failing=("recoupling_unitarity",))


def test_qdim_integer_catches_one_ulp(s3_cat):
    # the check compares each quantum dimension with its space dimension exactly, so one ulp above 2 fails
    # it; the conjugate pairs' norms differ from it by 4e-16, far below the tolerance of every other check
    a = s3_cat.obj_dim.index(2)
    qdim = tuple(float(np.nextafter(q, np.inf)) if b == a else q for b, q in enumerate(s3_cat.qdim))
    assert verify_presentation(s3_cat).passed
    cert = verify_presentation(replace(s3_cat, qdim=qdim))
    assert {c.name for c in cert.checks if not c.passed} == {"qdim_integer"}, cert.to_text()


def test_pointed_group_law_catches_another_group(z4_trivial_pointed_cat):
    # Z4's fusion rules read against the group law of Z2 x Z2 on the same labels; with the trivial
    # cocycle no other check reads the group
    v4 = grouprep.group_from_permutations([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])
    cat = replace(z4_trivial_pointed_cat, pointed=PointedFusionData(v4, z4_trivial_pointed_cat.pointed.cocycle))
    assert verify_presentation(z4_trivial_pointed_cat).passed
    cert = verify_presentation(cat)
    assert {c.name for c in cert.checks if not c.passed} == {"pointed_group_law"}, cert.to_text()


def test_nan_conjugate_entry_fails(s3_cat):
    # kron carries the NaN into the snake residuals: the certificate fails, it does not raise
    two = next(a for a in s3_cat.labels if s3_cat.dim(a) == 2)
    r, rbar = s3_cat.conj_solutions[two]
    r = r.copy()
    r[1, 0] = np.nan
    cert = verify_presentation(replace(s3_cat, conj_solutions={**s3_cat.conj_solutions, two: (r, rbar)}))
    failing = {"conjugate_snakes", "conjugate_normalization", "conjugate_membership"}
    assert {c.name for c in cert.checks if not c.passed} == failing, cert.to_text()
    assert all(np.isnan(c.value) for c in cert.checks if c.name in failing)


# The character oracle of from_group: N_ab^c = <chi_a chi_b, chi_c> names the channels to solve
# (grouprep.decompose decides it, and its solves are counted at grouprep.intertwiner_basis).

EVEN4 = [p for p in permutations(range(4))
         if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]


@pytest.mark.parametrize("group, solved", [
    (symmetric_group(3), 6), (symmetric_group(4), 34), (group_from_permutations(EVEN4), 12),
    (_quaternion_group(), 19), (dihedral_group(12), 99),
], ids=["S3", "S4", "A4", "Q8", "D12"])
def test_from_group_solves_exactly_the_nonempty_channels(group, solved, monkeypatch):
    table = extract_irreps(group, seed=0)
    reps = table.irreps
    calls = []

    def counting(u, v, tol):
        calls.append((u, v))
        return intertwiner_basis(u, v, tol)

    monkeypatch.setattr(grouprep, "intertwiner_basis", counting)
    cat = tensorcat.from_group(table)
    assert len(calls) == solved
    # the channels and isometries of solving every triple (a, b, c), empty ones included
    nonempty = 0
    for a, b in product(range(1, len(reps)), repeat=2):
        prod = tensor_rep(reps[a], reps[b])
        bases = {c: basis for c in range(len(reps)) if len(basis := intertwiner_basis(reps[c], prod))}
        assert cat.channels(a, b) == tuple(bases), (a, b)
        nonempty += len(bases)
        for c, basis in bases.items():
            assert np.array_equal(np.stack(cat.isometries(a, b, c)), np.sqrt(reps[c].dim) * basis), (a, b, c)
    assert nonempty == solved


def test_from_group_refuses_a_short_intertwiner_space(s3_table, s3_cat, monkeypatch):
    monkeypatch.setattr(grouprep, "intertwiner_basis", lambda u, v, tol: intertwiner_basis(u, v, tol)[:-1])
    c = s3_cat.channels(1, 1)[0]
    message = f"in 1 (x) 1: intertwiner space of irreducible {c} has dimension 0, characters give 1"
    with pytest.raises(PresentationError, match=re.escape(message)):
        tensorcat.from_group(s3_table)


def test_from_group_refuses_characters_off_a_count(s3_table):
    sign, two = (next(a for a in s3_table.labels if a != UNIT_LABEL and s3_table.dim(a) == d) for d in (1, 2))
    # scaling the 2-dimensional irrep moves N_{sign,2,2} to 1 + 2e-6 (the unit rows keep exact
    # identities; the first product that holds the label refuses); negating the sign
    # representation keeps every N_ab^c an integer but makes N_{sign,2,2} = -1
    for label, change in ((two, lambda m: (1 + 1e-6) * m), (sign, np.negative)):
        irreps = list(s3_table.irreps)
        irreps[label] = UnitaryRep(s3_table.group, change(irreps[label].mats))
        message = re.escape(f"in {sign} (x) {two}: multiplicity of irreducible {two} is ")
        with pytest.raises(PresentationError, match=message + ".*not a nonnegative integer"):
            tensorcat.from_group(IrrepTable(s3_table.group, tuple(irreps), s3_table.dual_map))


def _fault_rows(s3_cat):
    """One smallest fault per presentation check that no other test names, with its exact failing set."""
    one = np.ones((1, 1), dtype=np.complex128)
    z1, z2, z3 = (from_pointed(PointedFusionData(cyclic_group(n), np.ones((n, n, n)))) for n in (1, 2, 3))
    unit2 = copy.copy(z1)  # the unit label of Vec_1 said to be two-dimensional
    unit2.obj_dim = (2,)
    std = s3_cat.fusion[(1, 2)][2][0]
    s3_short = {c: isos for c, isos in s3_cat.fusion[(2, 2)].items() if c != 1}
    return {
        "unit_dim": (unit2, {"unit_dim", "unit_isometries", "fusion_dim_count", "recoupling_unitarity"}),
        # unit (x) 1 fuses into 2, and 1 (x) 1 into the unit: the group law fails with each
        "unit_channels": (replace(z3, fusion={**z3.fusion, (0, 1): {2: (one,)}}),
                          {"unit_channels", "pointed_group_law", "recoupling_unitarity"}),
        "unit_isometries": (replace(z2, fusion={**z2.fusion, (0, 1): {1: (-one,)}}), {"unit_isometries"}),
        "dual_channels": (replace(z3, fusion={**z3.fusion, (1, 1): {0: (one,)}}),
                          {"dual_channels", "pointed_group_law", "recoupling_unitarity"}),
        # S3's 2 (x) 2 without its sign channel
        "fusion_dim_count": (replace(s3_cat, fusion={**s3_cat.fusion, (2, 2): s3_short}),
                             {"fusion_dim_count", "isometry_completeness", "recoupling_unitarity"}),
        # sign (x) std into std with the columns of its isometry swapped: still an isometry, not an intertwiner
        "fusion_equivariance": (replace(s3_cat, fusion={**s3_cat.fusion, (1, 2): {2: (std[:, ::-1].copy(),)}}),
                                {"fusion_equivariance", "recoupling_unitarity"}),
        "qdim_bound": (replace(z2, qdim=(1.0, 1.0 - 1e-8)), {"qdim_bound", "conjugate_normalization"}),
    }


@pytest.mark.parametrize("check", ["unit_dim", "unit_channels", "unit_isometries", "dual_channels",
                                   "fusion_dim_count", "fusion_equivariance", "qdim_bound"])
def test_presentation_fault_rows(s3_cat, check):
    cat, failing = _fault_rows(s3_cat)[check]
    assert {c.name for c in verify_presentation(cat).checks if not c.passed} == failing
