from dataclasses import replace

import numpy as np
import pytest

from qhspace.grouprep import Subgroup
from qhspace.modcat import module_from_subgroup
from qhspace.reconstruct import (
    ReconstructionError,
    algebra_map,
    eigenvector_test,
    restriction_morphism,
    validate_morphism,
    verify_algebra_map,
)

from support import assert_caught, gauge_transform, random_gauge


@pytest.fixture(scope="module")
def s3_restriction(s3_modules):
    return restriction_morphism(s3_modules["order2"], s3_modules["trivial"])


def test_restriction_morphism_validates(s3_restriction):
    cert = validate_morphism(s3_restriction)
    assert cert.passed, cert.to_text()


def test_restriction_fdims(s3_restriction):
    # both irreps of the order-2 subgroup become trivial once restricted
    assert s3_restriction.fdims.tolist() == [[1, 1]]


def test_algebra_map_is_unital_star_hom(s3_restriction):
    cert = verify_algebra_map(s3_restriction)
    assert cert.passed, cert.to_text()


def test_algebra_map_image_dimension(s3_restriction):
    th = algebra_map(s3_restriction)
    assert th.shape == (6, 3)
    assert np.linalg.matrix_rank(th) == 3


def test_eigenvector_residual_exact_zero(s3_restriction, s3_cat):
    for a in s3_cat.labels:
        assert eigenvector_test(s3_restriction, a) == 0.0


def test_perron_eigenvector_of_action_matrix(s3_restriction, s3_cat):
    # the std-label action matrix [[1,1],[1,1]] has eigenvector (1,1) at 2
    two = [a for a in s3_cat.labels if s3_cat.dim(a) == 2][0]
    mx = s3_restriction.source.dims[two]
    fd = s3_restriction.fdims
    assert mx.tolist() == [[1, 1], [1, 1]]
    assert np.array_equal(fd @ mx, 2 * fd)


def test_gauge_transform_preserves_algebra_map(s3_restriction):
    mor2 = gauge_transform(s3_restriction, random_gauge(s3_restriction, 3))
    assert validate_morphism(mor2).passed
    assert np.array_equal(algebra_map(s3_restriction), algebra_map(mor2))


def test_gauge_must_fix_base_block(s3_restriction):
    key = (s3_restriction.y_base, s3_restriction.x_base)
    with pytest.raises(ReconstructionError):
        gauge_transform(s3_restriction, {key: np.array([[1j]])})


def test_gauge_rejects_wrong_shape(s3_restriction):
    # (0, 1) is one-dimensional; a 2x2 swap used to be read at its top-left entry
    with pytest.raises(ReconstructionError, match=r"\(0, 1\) has shape \(2, 2\)"):
        gauge_transform(s3_restriction, {(0, 1): np.array([[0.0, 1.0], [1.0, 0.0]])})


def test_gauge_rejects_non_unitary(s3_restriction):
    with pytest.raises(ReconstructionError, match=r"\(0, 1\) is not unitary"):
        gauge_transform(s3_restriction, {(0, 1): 3 * np.eye(1)})


def test_restriction_requires_nesting(s3_modules):
    with pytest.raises(ReconstructionError):
        restriction_morphism(s3_modules["order2"], s3_modules["order3"])


def test_identity_restriction_is_trivial(s3_modules):
    mor = restriction_morphism(s3_modules["order2"], s3_modules["order2"])
    assert np.array_equal(mor.fdims, np.eye(2, dtype=np.int64))
    assert validate_morphism(mor).passed
    th = algebra_map(mor)
    assert th.shape == (3, 3)
    assert np.linalg.matrix_rank(th) == 3


@pytest.mark.parametrize("case, key, failing", [
    # theta reads psi[(a, 0, 0)] only for the labels a with a channel at base 0;
    # S4 > S3 has none for label 1, the sign
    ("S4>S3>1", (1, 0, 0), {"blocks_unitary", "hexagon"}),
    ("S4>S3>1", (0, 0, 0), {"unit_block", "blocks_unitary", "hexagon",
                            "map.unital", "map.multiplicative", "map.star_compatible", "map.injective"}),
    # each hexagon residual this entry feeds comes after finite residuals from earlier
    # (p, r): only a NaN-propagating fold reports it
    ("S3>Z2", (1, 1, 2), {"blocks_unitary", "hexagon"}),
])
def test_nan_exchange_entry_fails(s4_over_s3, s3_modules, case, key, failing):
    # Python's max(worst, x) keeps worst when x is NaN: each residual that reads the
    # NaN entry must report it, or the certificate passes.  The rank of a NaN theta
    # fails injectivity instead of raising out of the SVD
    if case == "S3>Z2":
        mor = restriction_morphism(s3_modules["full"], s3_modules["order2"])
    else:
        triv = module_from_subgroup(s4_over_s3.cat, Subgroup.generated(s4_over_s3.subgroup.parent, []))
        mor = restriction_morphism(s4_over_s3, triv)
    assert validate_morphism(mor).passed
    blk = mor.psi[key].copy()
    blk[0, 0] = np.nan
    faulted = replace(mor, psi={**mor.psi, key: blk})
    cert = validate_morphism(faulted)
    cert.merge(verify_algebra_map(faulted), prefix="map.")
    assert {c.name for c in cert.checks if not c.passed} == failing, cert.to_text()
    assert all(np.isnan(c.value) for c in cert.checks if c.name in failing)


def test_base_normalization_and_blocks_square_catch_their_faults(s3_modules):
    # S3 > Z2: fdims [[1, 0, 1], [0, 1, 1]], and psi[(1, 0, 0)] is the empty block of an empty pair
    mor = restriction_morphism(s3_modules["full"], s3_modules["order2"])
    clean = validate_morphism(mor)
    assert clean.passed, clean.to_text()
    # the target's other base label: X_0 maps to it with multiplicity 0.  No other check reads the bases
    moved = validate_morphism(replace(mor, y_base=1))
    assert {c.name for c in moved.checks if not c.passed} == {"base_normalization"}, moved.to_text()
    assert [(c.name, c.value) for c in moved.checks[1:]] == [(c.name, c.value) for c in clean.checks[1:]]
    # a zero row on the empty block, and on a 2 x 2 one: the hexagon reads each block at the shape its
    # offsets give, so it fails with inf instead of raising out of a product of mismatched shapes
    for key in ((1, 0, 0), (2, 0, 2)):
        blk = mor.psi[key]
        bad = validate_morphism(replace(mor, psi={**mor.psi, key: np.vstack([blk, np.zeros((1, blk.shape[1]))])}))
        failed = {c.name: c.value for c in bad.checks if not c.passed}
        assert failed == {"blocks_square": 0.0, "hexagon": np.inf}, (key, bad.to_text())


def _with_zero_row(mor, key):
    blk = mor.psi[key]
    return replace(mor, psi={**mor.psi, key: np.vstack([blk, np.zeros((1, blk.shape[1]))])})


@pytest.mark.parametrize("key", [(0, 0, 2), (0, 0, 0)])
def test_unit_block_of_another_shape_fails_with_inf(s3_modules, key):
    # S3 > 1: fdims [[1, 1, 2]].  A zero row on the 2 x 2 unit block raised out of a broadcast of (3, 2)
    # against (2, 2), and one on the 1 x 1 block broadcast to the value 1.0; both now fail with inf
    mor = restriction_morphism(s3_modules["full"], s3_modules["trivial"])
    bad = validate_morphism(_with_zero_row(mor, key))
    assert_caught(validate_morphism(mor), bad, "unit_block", failing=("unit_block", "blocks_square", "hexagon"))
    assert {c.name: c.value for c in bad.checks if not c.passed} == \
        {"unit_block": np.inf, "blocks_square": 0.0, "hexagon": np.inf}


def test_multiplicity_intertwining_catches_a_changed_dimension(s3_modules):
    # S3 > 1 with fdims[0, 1] raised from 1 to 2: F M_a != M'_a F for the sign, by 2.  Every block of
    # the exchange data keeps its shape, so the unit block and the hexagon fail with inf
    mor = restriction_morphism(s3_modules["full"], s3_modules["trivial"])
    fdims = mor.fdims.copy()
    fdims[0, 1] += 1
    bad = validate_morphism(replace(mor, fdims=fdims))
    assert_caught(validate_morphism(mor), bad, "multiplicity_intertwining",
                  ("blocks_unitary",),
                  failing=("unit_block", "hexagon", "multiplicity_intertwining"))
    assert next(c.value for c in bad.checks if c.name == "multiplicity_intertwining") == 2.0
