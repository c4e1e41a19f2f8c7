"""Command-line front end.

Subcommands operate on project files and print reports to standard output
(or ``--out``); diagnostics go to standard error.  Exit code 0 means every
check passed, 1 that a check failed, and 2 an input error: an unreadable
file (``OSError``) or a library refusal (every one is a ``ValueError``).
The algebra that ``reconstruct`` writes has as many basis triples as the
last spectral offset says, and its ``unit_index`` is 0: the unit label's
one-dimensional block comes first.  Every check is deterministic; ``--seed``
only stamps the certificate.  The irreducibles of the group and of every
subgroup are read from the project file, so no command draws a random
number; ``irreps.seed`` and ``module.seed`` only record how the stored
tables were extracted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .certificate import Certificate
from .modcat import validate_module
from .numkit import DEFAULT_TOL
from .project_io import algebra_to_dict, encode_array, load_project
from .reconstruct import (algebra_map, basis_triples, build_algebra, eigenvector_test, validate_morphism,
                          verify_algebra_map)
from .tensorcat import verify_presentation
from .verify import ALL_SUITES, report, run_suite


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _finish(cert: Certificate, args) -> int:
    _emit(report(cert, args.format), args.out)
    return 0 if cert.passed else 1


def cmd_validate(args) -> int:
    project = load_project(args.project, tol=args.tol)
    cert = Certificate(subject=f"validate[{args.project}]", tolerance=args.tol,
                       seed=args.seed)
    cert.merge(verify_presentation(project.category, args.tol), prefix="cat.")
    if project.module is not None:
        cert.merge(validate_module(project.module, args.tol), prefix="mod.")
    return _finish(cert, args)


def cmd_reconstruct(args) -> int:
    project = load_project(args.project, tol=args.tol)
    if project.module is None:
        print("error: project has no module section", file=sys.stderr)
        return 2
    if not (0 <= args.base < project.module.n_base):
        valid = list(range(project.module.n_base))
        print(f"error: base label {args.base} not in {valid}", file=sys.stderr)
        return 2
    alg = build_algebra(project.module, args.base)
    basis = basis_triples(project.module, args.base, args.base)
    _emit(json.dumps(algebra_to_dict(alg, basis), indent=2, sort_keys=True), args.out)
    return 0


def cmd_verify(args) -> int:
    project = load_project(args.project, tol=args.tol)
    suites = tuple(args.suite) if args.suite else ALL_SUITES
    cert = run_suite(project.category, project.module, tol=args.tol,
                     seed=args.seed, suites=suites)
    return _finish(cert, args)


def cmd_morphism(args) -> int:
    project = load_project(args.project, tol=args.tol)
    if project.morphism is None:
        print("error: project has no morphism section", file=sys.stderr)
        return 2
    mor = project.morphism
    cert = Certificate(subject=f"morphism[{args.project}]", tolerance=args.tol,
                       seed=args.seed)
    cert.merge(validate_morphism(mor, args.tol, args.seed), prefix="psi.")
    cert.merge(verify_algebra_map(mor, args.tol), prefix="map.")
    if args.eigenvector:
        worst = max(eigenvector_test(mor, a) for a in mor.source.cat.labels)
        cert.add("eigenvector", "multiplicity eigenvector identity over all labels",
                 worst, threshold=0.0)
    if args.theta_out:
        with open(args.theta_out, "w") as fh:
            json.dump({"theta": encode_array(algebra_map(mor))}, fh, indent=2)
            fh.write("\n")
    return _finish(cert, args)


def cmd_report(args) -> int:
    with open(args.certificate) as fh:
        cert = Certificate.from_dict(json.load(fh))
    return _finish(cert, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhs",
        description="reconstruct and verify homogeneous-space *-algebras from module data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("validate", help="structural checks of category and module data")
    p.add_argument("project")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reconstruct", help="emit the algebra at a base label")
    p.add_argument("project")
    p.add_argument("--base", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("project")
    p.add_argument("--suite", action="append", choices=ALL_SUITES)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("morphism", help="validate the morphism section and its algebra map")
    p.add_argument("project")
    p.add_argument("--eigenvector", action="store_true")
    p.add_argument("--theta-out", default=None)
    common(p)
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("report", help="render a stored certificate")
    p.add_argument("certificate")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        print("error: tolerance must be positive and finite", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every library refusal is a ValueError
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
