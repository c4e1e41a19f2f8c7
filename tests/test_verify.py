from dataclasses import replace

import numpy as np
import pytest

from qhspace import tensorcat
from qhspace.certificate import Certificate
from qhspace.cli import main
from qhspace.grouprep import Subgroup, cyclic_group
from qhspace.modcat import module_from_pointed, module_from_subgroup
from qhspace.reconstruct import (
    block_consistency,
    build_bimodule,
    restriction_morphism,
    validate_morphism,
    verify_bimodule,
)
from qhspace.verify import ALL_SUITES, report, run_suite

from test_io_cli import project_path


def test_full_suite_passes(s3_cat, s3_modules):
    cert = run_suite(s3_cat, s3_modules["order2"])
    assert cert.passed, cert.to_text()
    names = [c.name for c in cert.checks]
    assert "fixedpoint_dims" in names and "component_roundtrip" in names
    assert any(n.startswith("alg1.") for n in names)


def test_category_only(s3_cat):
    cert = run_suite(s3_cat, None)
    assert cert.passed
    assert all(c.name.startswith("cat.") for c in cert.checks)


def test_unknown_suite_rejected(s3_cat, s3_modules):
    with pytest.raises(ValueError):
        run_suite(s3_cat, s3_modules["order2"], suites=("presentation", "nope"))


def test_suite_subset(s3_cat, s3_modules):
    cert = run_suite(s3_cat, s3_modules["order2"], suites=("fixedpoint",))
    assert [c.name for c in cert.checks] == ["fixedpoint_dims"]
    assert cert.passed


def test_report_formats(s3_cat):
    cert = run_suite(s3_cat, None)
    assert "cat." in report(cert, "text")
    assert report(cert, "json").startswith("{")
    with pytest.raises(ValueError):
        report(cert, "yaml")


def test_all_suites_names():
    assert ALL_SUITES == ("presentation", "module", "algebra", "positivity",
                          "fixedpoint", "roundtrip")


@pytest.fixture(scope="module")
def deterministic_inputs(s4_over_s3):
    z12 = tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(12))
    z12_mod = module_from_pointed(z12, Subgroup.generated(cyclic_group(12), []))
    triv = module_from_subgroup(s4_over_s3.cat, Subgroup.generated(s4_over_s3.subgroup.parent, []))
    return [(s4_over_s3.cat, s4_over_s3), (z12, z12_mod)], restriction_morphism(s4_over_s3, triv)


def _bits(cert):
    return [(c.name, c.passed, np.float64(c.value).tobytes()) for c in cert.checks]


def test_checks_do_not_depend_on_seed(deterministic_inputs):
    suites, mor = deterministic_inputs
    for cat, mod in suites:
        assert _bits(run_suite(cat, mod, seed=0)) == _bits(run_suite(cat, mod, seed=7)), mod.name
    assert _bits(validate_morphism(mor, seed=0)) == _bits(validate_morphism(mor, seed=7))


def test_fingerprint_does_not_depend_on_seed(s3_cat, s3_modules):
    certs = [run_suite(s3_cat, s3_modules["order2"], seed=seed) for seed in (0, 7)]
    assert [c.seed for c in certs] == [0, 7] and '"seed": 7' in certs[1].to_json()
    assert certs[0].fingerprint() == certs[1].fingerprint()
    moved = Certificate.from_dict(certs[0].to_dict())
    moved.checks[3] = replace(moved.checks[3], value=moved.checks[3].value + 1.0)
    assert moved.fingerprint() != certs[0].fingerprint()


def test_checks_draw_no_random_numbers(deterministic_inputs, monkeypatch):
    suites, mor = deterministic_inputs
    mod = suites[0][1]
    bim = build_bimodule(mod, 0, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for cat, f in suites:
        assert run_suite(cat, f).passed, f.name
    assert verify_bimodule(bim).passed
    assert block_consistency(mod, 0, 2).passed
    assert validate_morphism(mor).passed


def test_cli_output_does_not_depend_on_seed(capsys):
    outputs = []
    for seed in ("0", "7"):
        assert main(["verify", project_path("s3_subgroup"), "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
