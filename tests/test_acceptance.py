"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Every test prints its verdict line itself so the log reads as a checklist;
a failed assertion leaves the criterion marked FAIL.
"""

from dataclasses import replace

import numpy as np

from qhspace import tensorcat
from qhspace.grouprep import Subgroup, cyclic_group, extract_irreps, symmetric_group
from qhspace.modcat import module_from_subgroup, validate_module
from qhspace.numkit import max_residual
from qhspace.reconstruct import (
    algebra_map,
    basis_triples,
    build_algebra,
    classical_roundtrip,
    cp_certificate,
    eigenvector_test,
    gram_closed_form,
    restriction_morphism,
    validate_morphism,
    verify_algebra,
    verify_algebra_map,
)
from qhspace.tensorcat import UNIT_LABEL, verify_presentation

from support import gauge_transform, random_gauge, with_rescaled_conjugates
from test_oracles import invariant_dimension_by_characters


def verdict(n, desc, ok):
    print(f"criterion {n} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n}: {desc}"


def all_example_modules(s3_modules, z4_pointed_module, z4_coset_module):
    return list(s3_modules.values()) + [z4_pointed_module, z4_coset_module]


def test_criterion_01_snake_identities(s3_cat, z4_cat, z4_pointed_cat):
    worst = 0.0
    for cat in (s3_cat, z4_cat, z4_pointed_cat):
        for a in cat.labels:
            worst = max(worst, *cat.snake_residuals(a))
    verdict(1, "snake identities < 1e-9 on every irreducible", worst < 1e-9)


def test_criterion_02_algebra_dimensions(s3_table, s3_subgroups, s3_modules):
    ok = True
    for name, sub in s3_subgroups.items():
        alg = build_algebra(s3_modules[name], 0)
        oracle = invariant_dimension_by_characters(s3_table, sub)
        ok = ok and alg.dim == oracle == 6 // sub.order
    verdict(2, "algebra dimension |G|/|H| for every S3 subgroup class", ok)


def test_criterion_03_classical_roundtrip():
    ok = True
    for g, order in ((cyclic_group(2), 2), (cyclic_group(4), 4),
                     (symmetric_group(3), 6)):
        cat = tensorcat.from_group(extract_irreps(g, seed=0))
        f = module_from_subgroup(cat, Subgroup.generated(g, []))
        alg = build_algebra(f, 0)
        cert = classical_roundtrip(alg)
        ok = ok and cert.passed and alg.dim == order
    verdict(3, "function algebras diagonalize into |G| idempotents", ok)


def test_criterion_04_star_axioms(s3_modules, z4_pointed_module, z4_coset_module):
    ok = True
    for f in all_example_modules(s3_modules, z4_pointed_module, z4_coset_module):
        for base in range(f.n_base):
            cert = verify_algebra(build_algebra(f, base), tol=1e-8)
            ok = ok and cert.passed
    verdict(4, "*-algebra axioms < 1e-8 on every built algebra", ok)


def test_criterion_05_complete_positivity(s3_modules, z4_pointed_module,
                                          z4_coset_module):
    ok = True
    for f in all_example_modules(s3_modules, z4_pointed_module, z4_coset_module):
        for base in range(f.n_base):
            alg = build_algebra(f, base)
            cert = cp_certificate(alg, gram_closed_form(f, base), tol=1e-9)
            ok = ok and cert.passed
            routes = max_residual(alg.gram_from_product(), gram_closed_form(f, base))
            ok = ok and routes < 1e-9
    verdict(5, "invariant state positive, two Gram routes agree", ok)


def test_criterion_06_fixed_point_dimensions(s3_cat, s3_modules, z4_pointed_cat,
                                             z4_pointed_module):
    ok = True
    for cat, f in ((s3_cat, s3_modules["order2"]), (s3_cat, s3_modules["trivial"]),
                   (z4_pointed_cat, z4_pointed_module)):
        for x in range(f.n_base):
            for y in range(f.n_base):
                invariant = sum(1 for (a, m, i) in basis_triples(f, x, y)
                                if a == UNIT_LABEL)
                expected = int(f.dims[UNIT_LABEL, x, y])
                ok = ok and invariant == expected == (1 if x == y else 0)
    verdict(6, "invariant corner dimensions equal base morphism-space dimensions", ok)


def test_criterion_07_restriction_algebra_map(s3_modules):
    mor = restriction_morphism(s3_modules["order2"], s3_modules["trivial"])
    ok = validate_morphism(mor, tol=1e-9).passed
    ok = ok and verify_algebra_map(mor, tol=1e-9).passed
    th = algebra_map(mor)
    ok = ok and th.shape == (6, 3) and np.linalg.matrix_rank(th) == 3
    th2 = algebra_map(gauge_transform(mor, random_gauge(mor, 3)))
    ok = ok and np.array_equal(th, th2)
    verdict(7, "restriction induces a gauge-independent unital *-embedding", ok)


def test_criterion_08_eigenvector_identity(s3_cat, s3_modules):
    mor = restriction_morphism(s3_modules["order2"], s3_modules["trivial"])
    two = [a for a in s3_cat.labels if s3_cat.dim(a) == 2][0]
    ok = mor.source.dims[two].tolist() == [[1, 1], [1, 1]]
    ok = ok and mor.fdims.tolist() == [[1, 1]]
    ok = ok and np.array_equal(mor.fdims @ mor.source.dims[two], 2 * mor.fdims)
    ok = ok and all(eigenvector_test(mor, a) == 0.0 for a in s3_cat.labels)
    verdict(8, "multiplicity vector is an exact action-matrix eigenvector", ok)


def test_criterion_09_gauge_independence_of_duality(s3_table, s3_subgroups):
    cat = tensorcat.from_group(s3_table)
    sub = s3_subgroups["order2"]
    ref = build_algebra(module_from_subgroup(cat, sub), 0)
    ok = True
    for lam in (2.0, 1j, 0.5 + 0.5j):
        alg = build_algebra(module_from_subgroup(with_rescaled_conjugates(cat, lam), sub), 0)
        ok = ok and np.array_equal(ref.tensor, alg.tensor)
        ok = ok and np.array_equal(ref.star_mat, alg.star_mat)
    verdict(9, "structure constants bit-identical under conjugate rescaling", ok)


def _fresh_s3_setup():
    g = symmetric_group(3)
    cat = tensorcat.from_group(extract_irreps(g, seed=0))
    order2 = [h for h in range(1, 6) if g.mul(h, h) == 0][0]
    f = module_from_subgroup(cat, Subgroup.generated(g, [order2]))
    return g, cat, f


def test_criterion_10_fault_injection():
    eps = 1e-3
    caught = []

    # fault 1: fusion isometry entry of the 2x2 channel
    _, cat, _ = _fresh_s3_setup()
    two = [a for a in cat.labels if cat.dim(a) == 2][0]
    isos = list(cat.fusion[(two, two)][UNIT_LABEL])
    bad = isos[0].copy()
    bad[0, 0] += eps
    cat.fusion[(two, two)][UNIT_LABEL] = (bad,) + tuple(isos[1:])
    caught.append(not verify_presentation(cat).passed)

    # fault 2: a different fusion isometry, different channel
    _, cat, _ = _fresh_s3_setup()
    chans = cat.channels(two, two)
    c = [cc for cc in chans if cc != UNIT_LABEL][0]
    isos = list(cat.fusion[(two, two)][c])
    bad = isos[0].copy()
    bad[-1, -1] += eps
    cat.fusion[(two, two)][c] = (bad,) + tuple(isos[1:])
    caught.append(not verify_presentation(cat).passed)

    # fault 3: coherence block perturbed in a copy of the module record
    _, cat, f = _fresh_s3_setup()
    key = (two, two, 0, 0)
    f = replace(f, coherence=f.coherence.copy())
    next(arr for c in cat.channels(two, two) if (arr := f.coherence_channel(*key, c)).size).flat[0] += eps
    caught.append(not validate_module(f).passed)

    # fault 4: the same kind of copy must also break the algebra axioms;
    # perturb the column the base-0 product actually reads (intermediate s=0)
    _, cat, f = _fresh_s3_setup()
    f = replace(f, coherence=f.coherence.copy())
    f.coherence_channel(*key, two)[0, 0, 0] += eps
    caught.append(not verify_algebra(build_algebra(f, 0)).passed)

    # fault 5: exchange block of a morphism
    g = symmetric_group(3)
    cat = tensorcat.from_group(extract_irreps(g, seed=0))
    order2 = [h for h in range(1, 6) if g.mul(h, h) == 0][0]
    fx = module_from_subgroup(cat, Subgroup.generated(g, [order2]))
    fy = module_from_subgroup(cat, Subgroup.generated(g, []))
    mor = restriction_morphism(fx, fy)
    key = max(mor.psi, key=lambda k: mor.psi[k].size)
    mor.psi[key] = mor.psi[key].copy()
    mor.psi[key].flat[0] += eps
    caught.append(not validate_morphism(mor).passed)

    verdict(10, "each injected 1e-3 fault fails at least one certificate",
            all(caught) and len(caught) == 5)
