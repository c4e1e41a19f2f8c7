import numpy as np
import pytest

from qhspace import tensorcat
from qhspace.grouprep import cyclic_group
from qhspace.tensorcat import (
    UNIT_LABEL,
    CocycleError,
    PointedFusionData,
    standard_cyclic_cocycle,
    verify_presentation,
)


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
        cat2 = s3_cat.with_rescaled_conjugates(lam)
        for a in cat2.labels:
            s1, s2 = cat2.snake_residuals(a)
            assert s1 < 1e-9 and s2 < 1e-9


def test_rescaling_zero_rejected(s3_cat):
    with pytest.raises(ValueError):
        s3_cat.with_rescaled_conjugates(0.0)


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
        copy = cat.with_rescaled_conjugates(2.0 + 1j)
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
