import json
import os

import numpy as np
import pytest

from qhspace.certificate import Certificate
from qhspace.cli import main
from qhspace.grouprep import GroupAxiomError
from qhspace.project_io import (
    ProjectError,
    algebra_from_dict,
    algebra_to_dict,
    decode_array,
    encode_array,
    example_projects,
    irrep_table_from_dict,
    irrep_table_to_dict,
    load_project,
    save_project,
    write_example_projects,
)
from qhspace.reconstruct import build_algebra

PROJECTS = os.path.join(os.path.dirname(__file__), "..", "projects")


def project_path(name):
    return os.path.join(PROJECTS, f"{name}.qhs.json")


def test_array_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(decode_array(encode_array(a)), a)
    v = np.array([1.0, -2.5])
    assert np.array_equal(decode_array(encode_array(v)), v)


def test_irrep_table_roundtrip(s3_table):
    t2 = irrep_table_from_dict(irrep_table_to_dict(s3_table))
    for a, b in zip(s3_table.irreps, t2.irreps):
        assert np.array_equal(a.mats, b.mats)


def _algebra_dict_loop(alg):
    """``algebra_to_dict`` with the entry-by-entry scan of the structure tensor: the reference."""
    t = alg.tensor
    triplets = []
    for p in range(alg.dim):
        for q in range(alg.dim):
            for r in range(alg.dim):
                if t[p, q, r] != 0.0:
                    z = t[p, q, r]
                    triplets.append([p, q, r, [float(f"{x:.17g}") for x in (z.real, z.imag)]])
    return {**algebra_to_dict(alg), "structure_constants": triplets}


def test_algebra_dict_roundtrip(s3_modules, tmp_path):
    alg = build_algebra(s3_modules["order2"], 0)
    d = algebra_from_dict(json.loads(json.dumps(algebra_to_dict(alg))))
    assert d["basis"] == alg.triples
    assert np.array_equal(d["tensor"], alg.tensor)
    assert np.array_equal(d["star_matrix"], alg.star_mat)
    # the ``qhs reconstruct`` file of every base of the example projects, byte
    # for byte; they are written afresh, so that their fingerprints hold on any BLAS kernel
    out = str(tmp_path / "alg.json")
    for path in write_example_projects(str(tmp_path)):
        mod = load_project(path).module
        for base in range(mod.n_base):
            assert main(["reconstruct", path, "--base", str(base), "--out", out]) == 0
            ref = json.dumps(_algebra_dict_loop(build_algebra(mod, base)), indent=2, sort_keys=True) + "\n"
            with open(out) as fh:
                assert fh.read() == ref, (path, base)


def test_certificate_roundtrip(s3_modules):
    from qhspace.modcat import validate_module

    cert = validate_module(s3_modules["order2"])
    cert2 = Certificate.from_dict(json.loads(cert.to_json()))
    assert cert2.passed == cert.passed
    assert [c.name for c in cert2.checks] == [c.name for c in cert.checks]
    assert cert2.fingerprint() == cert.fingerprint()


def test_save_load_roundtrip(tmp_path):
    sections = example_projects()["s3_subgroup"]
    path = str(tmp_path / "p.qhs.json")
    save_project(path, sections)
    project = load_project(path)
    assert project.group.order == 6
    assert project.module is not None and project.module.n_base == 2
    assert project.sections == json.loads(json.dumps(sections))


def test_shipped_projects_load():
    for name in ("s3_subgroup", "z4_pointed", "s3_morphism"):
        project = load_project(project_path(name))
        assert project.module is not None
    assert load_project(project_path("s3_morphism")).morphism is not None


def test_schema_version_gate(tmp_path):
    path = str(tmp_path / "p.qhs.json")
    save_project(path, example_projects()["s3_subgroup"])
    with open(path) as fh:
        doc = json.load(fh)
    doc["schema_version"] = "2"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ProjectError):
        load_project(path)


def test_fingerprint_tamper_detected(tmp_path):
    path = str(tmp_path / "p.qhs.json")
    save_project(path, example_projects()["s3_subgroup"])
    with open(path) as fh:
        doc = json.load(fh)
    doc["sections"]["module"]["elements"] = [0]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ProjectError):
        load_project(path)


def test_stale_category_fingerprint_detected(tmp_path):
    sections = example_projects()["s3_subgroup"]
    sections["module"]["category_fingerprint"] = "0" * 16
    path = str(tmp_path / "p.qhs.json")
    save_project(path, sections)
    with pytest.raises(ProjectError):
        load_project(path)


def test_bad_mult_table_rejected(tmp_path):
    sections = {"group": {"mult_table": [[0, 0], [0, 0]]}}
    path = str(tmp_path / "p.qhs.json")
    save_project(path, sections)
    with pytest.raises(GroupAxiomError):
        load_project(path)


def test_write_example_projects_matches_shipped(tmp_path):
    for path in write_example_projects(str(tmp_path)):
        with open(path) as fh:
            fresh = json.load(fh)
        with open(os.path.join(PROJECTS, os.path.basename(path))) as fh:
            shipped = json.load(fh)
        assert fresh == shipped


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", project_path("s3_subgroup")]) == 0
    assert main(["validate", str(tmp_path / "missing.qhs.json")]) == 2
    assert main(["validate", project_path("s3_subgroup"), "--tol", "-1"]) == 2
    # non-finite tolerances are refused up front; a tolerance the library
    # cannot work with is refused by it (IrrepExtractionError,
    # NumericalRankError), and that too is an input error
    for tol in ("nan", "inf", "1e-20", "0.5"):
        capsys.readouterr()
        assert main(["validate", project_path("s3_subgroup"), "--tol", tol]) == 2, tol
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (tol, err)
    # fingerprints that match a multiplication table that is not a group
    path = str(tmp_path / "bad_group.qhs.json")
    save_project(path, {"group": {"mult_table": [[0, 1], [1, 1]]}})
    capsys.readouterr()
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith("error: GroupAxiomError: ")


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    # each malformed file is an input error: exit 2 with one line naming what is wrong
    cert = Certificate(subject="s", tolerance=1e-9)
    cert.add("c", "a property", 0.0)
    no_property = cert.to_dict()
    del no_property["checks"][0]["property"]
    no_elements = example_projects()["s3_subgroup"]
    del no_elements["module"]["elements"]
    cases = [
        ("report", project_path("s3_subgroup"), "certificate lacks key 'subject'"),
        ("report", no_property, "check lacks key 'property'"),
        ("report", [1, 2], "certificate must be a JSON object, not list"),
        ("validate", [1, 2], "a project is a JSON object, not a list"),
        ("validate", {"group": {}}, "section 'group' lacks key 'mult_table'"),
        ("validate", no_elements, "section 'module' lacks key 'elements'"),
    ]
    for i, (command, body, message) in enumerate(cases):
        path = body if isinstance(body, str) else str(tmp_path / f"case{i}.json")
        if command == "validate" and isinstance(body, dict):
            save_project(path, body)  # fingerprinted afresh, so only the missing key is wrong
        elif not isinstance(body, str):
            with open(path, "w") as fh:
                json.dump(body, fh)
        capsys.readouterr()
        assert main([command, path]) == 2, message
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, (message, err)


def test_cli_verify_and_report(tmp_path):
    out = str(tmp_path / "cert.json")
    assert main(["verify", project_path("z4_pointed"), "--format", "json",
                 "--out", out]) == 0
    with open(out) as fh:
        names_json = [c["name"] for c in json.load(fh)["checks"]]
    txt = str(tmp_path / "cert.txt")
    assert main(["report", out, "--out", txt]) == 0
    with open(txt) as fh:
        text = fh.read()
    for name in names_json:
        assert name in text


def test_cli_verify_suite_subset(tmp_path):
    out = str(tmp_path / "cert.json")
    assert main(["verify", project_path("s3_subgroup"), "--suite", "positivity",
                 "--format", "json", "--out", out]) == 0
    with open(out) as fh:
        names = [c["name"] for c in json.load(fh)["checks"]]
    assert names and all(n.startswith("cp") for n in names)


def test_cli_reconstruct_emits_algebra(tmp_path):
    out = str(tmp_path / "alg.json")
    assert main(["reconstruct", project_path("s3_subgroup"), "--base", "0",
                 "--out", out]) == 0
    with open(out) as fh:
        d = algebra_from_dict(json.load(fh))
    assert len(d["basis"]) == 3
    assert main(["reconstruct", project_path("s3_subgroup"), "--base", "9"]) == 2


def test_cli_morphism(tmp_path):
    theta = str(tmp_path / "theta.json")
    assert main(["morphism", project_path("s3_morphism"), "--eigenvector",
                 "--theta-out", theta, "--format", "json",
                 "--out", str(tmp_path / "c.json")]) == 0
    with open(theta) as fh:
        th = decode_array(json.load(fh)["theta"])
    assert th.shape == (6, 3)
    assert main(["morphism", project_path("s3_subgroup")]) == 2
