import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import platform
import subprocess
import sys

import numpy as np
import pytest

import qhspace
from qhspace import certificate, modcat, project_io
from qhspace.certificate import Certificate
from qhspace.cli import main
from qhspace.grouprep import GroupAxiomError, IrrepExtractionError
from qhspace.modcat import validate_module
from qhspace.project_io import (
    ProjectError,
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
from qhspace.reconstruct import basis_triples, build_algebra
from qhspace.verify import run_suite

from support import algebra_from_dict

PROJECTS = os.path.join(os.path.dirname(__file__), "..", "projects")
SHIPPED = ("s3_subgroup", "z4_pointed", "s3_morphism")


def project_path(name):
    return os.path.join(PROJECTS, f"{name}.qhs.json")


def test_array_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(decode_array(encode_array(a)), a)
    v = np.array([1.0, -2.5])
    assert np.array_equal(decode_array(encode_array(v)), v)


def test_array_codec_keeps_every_bit():
    # the sign of zero, subnormals, the largest double and the stored trivial entry, through JSON text
    x = np.array([-0.0, 5e-324, 1e-310, -2.2250738585072014e-308, np.finfo(float).max, 1.0000000000000002])
    a = np.zeros(len(x), dtype=np.complex128)
    a.real, a.imag = x, x[::-1]
    assert decode_array(json.loads(json.dumps(encode_array(a)))).tobytes() == a.tobytes()
    assert json.dumps(encode_array(-0.0)) == "[-0.0, 0.0]"
    # every array stored in the shipped projects decodes and re-encodes to the same JSON
    stored = []
    for name in SHIPPED:
        with open(project_path(name)) as fh:
            sections = json.load(fh)["sections"]
        tables = [sections.get("irreps"), sections.get("module", {}).get("irreps"),
                  sections.get("morphism", {}).get("target_irreps")]
        stored += [m for table in tables if table for m in table["matrices"]]
        stored += [sections["cocycle"]["values"]] if "cocycle" in sections else []
    assert len(stored) == 12
    for data in stored:
        assert json.dumps(encode_array(decode_array(data))) == json.dumps(data)


def test_decode_array_refuses_booleans():
    with pytest.raises(ProjectError, match="holds True where a list belongs"):
        decode_array([True, 0.5])
    assert decode_array([1, 0.5]) == 1 + 0.5j


def test_irrep_table_roundtrip(s3_table):
    t2 = irrep_table_from_dict(s3_table.group, json.loads(json.dumps(irrep_table_to_dict(s3_table))))
    assert t2.group is s3_table.group and t2.dual_map == s3_table.dual_map
    for a, b in zip(s3_table.irreps, t2.irreps, strict=True):
        assert a.mats.tobytes() == b.mats.tobytes()


def _algebra_dict_loop(alg, basis):
    """``algebra_to_dict`` with the entry-by-entry scan of the structure tensor: the reference."""
    t = alg.tensor
    triplets = []
    for p in range(alg.dim):
        for q in range(alg.dim):
            for r in range(alg.dim):
                if t[p, q, r] != 0.0:
                    z = t[p, q, r]
                    triplets.append([p, q, r, [float(f"{x:.17g}") for x in (z.real, z.imag)]])
    return {**algebra_to_dict(alg, basis), "structure_constants": triplets}


def test_algebra_dict_roundtrip(s3_modules, tmp_path):
    alg = build_algebra(s3_modules["order2"], 0)
    basis = basis_triples(s3_modules["order2"], 0, 0)
    d = algebra_from_dict(json.loads(json.dumps(algebra_to_dict(alg, basis))))
    assert d["basis"] == basis
    assert np.array_equal(d["tensor"], alg.tensor)
    assert np.array_equal(d["star_matrix"], alg.star_mat)
    # the ``qhs reconstruct`` file of every base of the shipped projects, byte for byte
    out = str(tmp_path / "alg.json")
    for path in map(project_path, SHIPPED):
        mod = load_project(path).module
        for base in range(mod.n_base):
            assert main(["reconstruct", path, "--base", str(base), "--out", out]) == 0
            alg, basis = build_algebra(mod, base), basis_triples(mod, base, base)
            ref = json.dumps(_algebra_dict_loop(alg, basis), indent=2, sort_keys=True) + "\n"
            with open(out) as fh:
                assert fh.read() == ref, (path, base)


def test_certificate_roundtrip(s3_modules):
    cert = validate_module(s3_modules["order2"])
    cert2 = Certificate.from_dict(json.loads(cert.to_json()))
    assert cert2.passed == cert.passed
    assert [c.name for c in cert2.checks] == [c.name for c in cert.checks]
    assert cert2.fingerprint() == cert.fingerprint()
    # every kind of check that a certificate writes reads back unchanged, NaN and inf included
    cert = Certificate(subject="s", tolerance=1e-9)
    for value in (0.0, 1e-9, 2e-9, float("nan"), float("inf")):
        cert.add(f"r{value}", "a residual", value)
    cert.add("nan_threshold", "a residual", 0.0, float("nan"))
    cert.add("inf_threshold", "a residual", 1.0, float("inf"))
    cert.add_flag("up", "a flag", True)
    cert.add_flag("down", "a flag", False, float("nan"))
    assert Certificate.from_dict(json.loads(cert.to_json())).to_json() == cert.to_json()


def test_save_load_roundtrip(tmp_path):
    sections = example_projects()["s3_subgroup"]
    path = str(tmp_path / "p.qhs.json")
    save_project(path, sections)
    project = load_project(path)
    assert project.group.order == 6
    assert project.module is not None and project.module.n_base == 2
    assert project.sections == json.loads(json.dumps(sections))


def test_shipped_projects_load():
    for name in SHIPPED:
        project = load_project(project_path(name))
        assert project.module is not None
    assert load_project(project_path("s3_morphism")).morphism is not None


def test_loading_reads_the_stored_irreducibles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("load_project extracted the irreducibles")

    monkeypatch.setattr(project_io, "extract_irreps", refuse)
    monkeypatch.setattr(modcat, "extract_irreps", refuse)
    for name in SHIPPED:
        assert load_project(project_path(name)).module is not None, name


def test_cli_leaves_numpy_random_unimported(tmp_path):
    # the stored tables replace the seeded extraction, whose draw imports numpy.random
    script = ("import sys\nfrom qhspace.cli import main\nstatus = main(sys.argv[1:])\n"
              "print('numpy.random' in sys.modules)\nsys.exit(status)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qhspace.__file__))}
    runs = [(command, name) for name in ("s3_subgroup", "s3_morphism") for command in ("validate", "verify")]
    for command, name in runs + [("morphism", "s3_morphism")]:
        proc = subprocess.run([sys.executable, "-c", script, command, project_path(name),
                               "--out", str(tmp_path / "report.txt")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), (command, name, proc.stderr)


def test_fingerprints_leave_openssl_unloaded():
    # hashlib maps OpenSSL's libcrypto (+3.5 MB per qhs process); the builtin SHA-256 gives the same
    # digest, so every stored fingerprint of the shipped projects still matches its section
    script = ("import json, sys\nimport qhspace.cli\nfrom qhspace.project_io import fingerprint\n"
              "for path in sys.argv[1:]:\n    doc = json.load(open(path))\n"
              "    assert {k: fingerprint(v) for k, v in doc['sections'].items()} == doc['fingerprints'], path\n"
              "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qhspace.__file__))}
    proc = subprocess.run([sys.executable, "-c", script, *map(project_path, SHIPPED)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr
    body = json.dumps(example_projects()["z4_pointed"], sort_keys=True).encode()
    assert certificate.sha256(body).hexdigest() == hashlib.sha256(body).hexdigest()


def test_tampered_subgroup_irrep_refused_by_name(tmp_path, capsys):
    # one entry of a stored subgroup table, written with a fresh fingerprint: exit 2, naming the table and irrep
    module_table = example_projects()["s3_subgroup"]
    module_table["module"]["irreps"]["matrices"][1][1][0][0][0] += 0.25  # Re u_1(1)[0, 0] of Z2
    target_table = example_projects()["s3_morphism"]
    target_table["morphism"]["target_irreps"]["matrices"][0][0][0][0][0] = float("nan")
    cases = [(module_table, "module.irreps: irrep 1 fails unitarity/multiplicativity"),
             (target_table, "morphism.target_irreps: label 0 is not the trivial representation")]
    for i, (sections, message) in enumerate(cases):
        path = str(tmp_path / f"p{i}.qhs.json")
        save_project(path, sections)
        capsys.readouterr()
        assert main(["validate", path]) == 2, message
        err = capsys.readouterr().err
        assert err.startswith("error: IrrepExtractionError: ") and message in err, (message, err)


def test_stored_subgroup_table_of_wrong_shape_is_a_project_error(tmp_path):
    short = example_projects()["s3_subgroup"]
    short["module"]["irreps"]["matrices"][1] = short["module"]["irreps"]["matrices"][1][:1]
    not_a_table = example_projects()["s3_morphism"]
    not_a_table["morphism"]["target_irreps"] = [1]
    missing = example_projects()["s3_subgroup"]
    del missing["module"]["irreps"]
    cases = [(short, "module.irreps: irrep 1 has matrices of shape (1, 1, 1), not (2, d, d)"),
             (not_a_table, "morphism.target_irreps: irrep table lacks the list 'matrices'"),
             (missing, "section 'module' lacks key 'irreps'")]
    for i, (sections, message) in enumerate(cases):
        path = str(tmp_path / f"p{i}.qhs.json")
        save_project(path, sections)
        with pytest.raises(ProjectError) as err:
            load_project(path)
        assert message in str(err.value), (message, str(err.value))


def test_schema_version_gate(tmp_path):
    path = str(tmp_path / "p.qhs.json")
    save_project(path, example_projects()["s3_subgroup"])
    with open(path) as fh:
        doc = json.load(fh)
    doc["schema_version"] = "1"
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


def test_tampered_irrep_matrix_refused_by_name(tmp_path):
    # one entry of one stored matrix, written with a fresh fingerprint: the table check names the irrep
    for a, value in ((1, 0.25), (2, 0.25), (2, float("nan"))):
        sections = example_projects()["s3_subgroup"]
        sections["irreps"]["matrices"][a][1][0][0][0] += value  # Re u_a(1)[0, 0]
        path = str(tmp_path / f"p{a}.qhs.json")
        save_project(path, sections)
        with pytest.raises(IrrepExtractionError, match=f"^irrep {a} fails"):
            load_project(path)


def test_bad_mult_table_rejected(tmp_path):
    sections = {"group": {"mult_table": [[0, 0], [0, 0]]}}
    path = str(tmp_path / "p.qhs.json")
    save_project(path, sections)
    with pytest.raises(GroupAxiomError):
        load_project(path)


def _without_matrices(doc: dict) -> tuple[dict, list[np.ndarray]]:
    """The document without the matrices of its irrep tables and the fingerprints they enter, and the characters."""
    doc = json.loads(json.dumps(doc))
    chars = []
    for section, key in (("irreps", None), ("module", "irreps"), ("morphism", "target_irreps")):
        body = doc["sections"].get(section, {})
        table = body.get(key) if key else body
        if table:
            del doc["fingerprints"][section]
            chars += [np.trace(decode_array(m), axis1=1, axis2=2) for m in table.pop("matrices")]
    return doc, chars


def _verdicts(path: str) -> list[tuple[str, bool]]:
    project = load_project(path)
    return [(c.name, c.passed) for c in run_suite(project.category, project.module).checks]


def test_write_example_projects_matches_shipped(tmp_path):
    # every field but the extracted matrices is exact.  Those depend on the BLAS kernel: another
    # kernel's eigh picks another orthonormal basis of the S3 2-dimensional irrep's eigenspace
    # (entries move by up to 1.36 under Haswell), so every stored table, the subgroups' too, is
    # compared by its characters.  Even a 1-dimensional entry is not exact: Z2's is 0.9999999999999998
    for path in write_example_projects(str(tmp_path)):
        shipped_path = os.path.join(PROJECTS, os.path.basename(path))
        with open(path) as fh:
            fresh, fresh_chars = _without_matrices(json.load(fh))
        with open(shipped_path) as fh:
            shipped, shipped_chars = _without_matrices(json.load(fh))
        assert fresh == shipped, path
        assert len(fresh_chars) == len(shipped_chars)
        for a, (x, y) in enumerate(zip(fresh_chars, shipped_chars)):
            assert x.shape == y.shape and np.max(np.abs(x - y)) <= 1e-12, (path, a)
        assert _verdicts(path) == _verdicts(shipped_path), path


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
    # a JSON true is an int to Python, and a seed is an int
    bool_tolerance = {**cert.to_dict(), "tolerance": True}
    bool_value = cert.to_dict()
    bool_value["checks"][0]["value"] = False
    list_seed = {**cert.to_dict(), "seed": [1, 2]}
    # a residual check's verdict follows from its value and finite threshold
    false_pass = cert.to_dict()
    false_pass["checks"][0].update(value=5.0, passed=True)
    no_elements = example_projects()["s3_subgroup"]
    del no_elements["module"]["elements"]
    no_table = example_projects()["s3_subgroup"]
    no_table["irreps"] = {"seed": 0}  # the form of schema version 1
    short_irrep = example_projects()["s3_subgroup"]
    short_irrep["irreps"]["matrices"][1] = short_irrep["irreps"]["matrices"][1][:5]
    dual_out_of_range = example_projects()["s3_subgroup"]
    dual_out_of_range["irreps"]["dual_map"][2] = 3
    text_entry = example_projects()["s3_subgroup"]
    text_entry["irreps"]["matrices"][0][0][0][0] = "x"
    bool_entry = example_projects()["s3_subgroup"]
    bool_entry["irreps"]["matrices"][0][0][0][0] = [True, False]
    # unitary tables with the right sum of squared dimensions: one reducible, one repeating an irrep
    sign = decode_array(example_projects()["s3_subgroup"]["irreps"]["matrices"][1])[:, 0, 0]
    reducible = example_projects()["s3_subgroup"]
    reducible["irreps"]["matrices"][2] = encode_array(np.stack([np.diag([1.0, s]) for s in sign]))
    repeated = example_projects()["s3_subgroup"]
    repeated["irreps"]["matrices"][1] = repeated["irreps"]["matrices"][0]
    cocycle_off_the_unit_circle = example_projects()["z4_pointed"]
    cocycle_off_the_unit_circle["cocycle"]["values"][1][1][1] = [2.0, 0.0]
    cochain_of_wrong_shape = example_projects()["z4_pointed"]
    cochain_of_wrong_shape["module"]["mu"] = encode_array(np.ones((2, 2)))
    target_outside_source = example_projects()["s3_morphism"]  # source {0, 1}, target {0, 2}
    target_outside_source["morphism"].update(target_elements=[0, 2],
                                             target_irreps=target_outside_source["module"]["irreps"])
    bad_tables = []
    for entry in (1.9, "1", True):  # each was read as element 1
        sections = example_projects()["z4_pointed"]
        sections["group"]["mult_table"][0][1] = entry
        bad_tables.append(("validate", sections, f"group.mult_table holds {entry!r}, which is not an element index"))
    bad_elements = []
    for name, section, key, elements in (("s3_subgroup", "module", "elements", [0, 9]),
                                         ("s3_morphism", "morphism", "target_elements", 3),
                                         ("s3_subgroup", "module", "elements", [0, True]),
                                         ("s3_morphism", "morphism", "target_elements", [0, 1.0]),
                                         ("s3_subgroup", "module", "elements", [0, -1])):
        sections = example_projects()[name]
        sections[section][key] = elements
        message = f"{section}.{key} = {elements!r} is not a list of elements in 0..5"
        bad_elements.append(("validate", sections, message))
    cases = [
        ("report", project_path("s3_subgroup"), "certificate lacks key 'subject'"),
        ("report", no_property, "check lacks key 'property'"),
        ("report", [1, 2], "certificate must be a JSON object, not list"),
        ("report", bool_tolerance, "certificate key 'tolerance' holds a bool"),
        ("report", bool_value, "check key 'value' holds a bool"),
        ("report", list_seed, "certificate key 'seed' holds a list"),
        ("report", false_pass, "check 'c' is stored as passed = True, but its value 5 against 1e-09 says otherwise"),
        ("validate", [1, 2], "a project is a JSON object, not a list"),
        ("validate", {"group": {}}, "section 'group' lacks key 'mult_table'"),
        ("validate", no_elements, "section 'module' lacks key 'elements'"),
        ("validate", no_table, "irrep table lacks the list 'matrices'"),
        ("validate", short_irrep, "irrep 1 has matrices of shape (5, 1, 1), not (6, d, d)"),
        ("validate", dual_out_of_range, "dual_map [0, 1, 3] is not a list of 3 labels in 0..2"),
        ("validate", text_entry, "an encoded array holds 'x' where a list belongs"),
        ("validate", bool_entry, "an encoded array holds True where a list belongs"),
        ("validate", reducible, "IrrepExtractionError: intertwiner dimension wrong for pair (2,0)"),
        ("validate", repeated, "IrrepExtractionError: intertwiner dimension wrong for pair (1,0)"),
        ("validate", cocycle_off_the_unit_circle, "CocycleError: cocycle values must be unit modulus"),
        ("validate", cochain_of_wrong_shape, "ModuleDataError: 2-cochain shape does not match the subgroup order"),
        ("validate", target_outside_source,
         "ReconstructionError: target subgroup must be contained in the source subgroup"),
        *bad_tables,
        *bad_elements,
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


def test_every_library_error_is_a_value_error():
    # the CLI turns a ValueError into exit 2, so a refusal class on another base would end in a traceback
    errors = {cls for info in pkgutil.iter_modules(qhspace.__path__)
              for _, cls in inspect.getmembers(importlib.import_module(f"qhspace.{info.name}"), inspect.isclass)
              if issubclass(cls, BaseException) and cls.__module__.startswith("qhspace.")}
    assert len(errors) >= 8
    assert [cls.__name__ for cls in errors if not issubclass(cls, ValueError)] == []


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


def _openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    return "openblas" in json.dumps(config.get("Build Dependencies", {}).get("blas", {})).lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or not _openblas(),
                    reason="OPENBLAS_CORETYPE selects an x86-64 OpenBLAS kernel")
def test_cli_passes_on_a_second_blas_kernel():
    # Prescott runs on any x86-64 CPU; its SVD and eigh round unlike the kernel that wrote the shipped files
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.path.dirname(os.path.dirname(qhspace.__file__)))
    for threads in ("1", "2"):
        for name in SHIPPED:
            for command in ("validate", "verify"):
                proc = subprocess.run([sys.executable, "-m", "qhspace.cli", command, project_path(name)],
                                      env={**env, "OPENBLAS_NUM_THREADS": threads},
                                      capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, (threads, name, command, proc.stderr)
