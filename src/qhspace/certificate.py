"""Machine-checkable verification records.

A certificate is an ordered list of named checks, each carrying the algebraic
property it tests, the measured residual (or value), and the threshold it was
held to.  Residuals are max-norms over all checked instances, never averages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
try:  # the builtin SHA-256, since hashlib maps OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = "1"

_NUMBER = (int, float)
_CHECK_FIELDS = (("name", str), ("property", str), ("value", _NUMBER), ("threshold", _NUMBER), ("passed", bool))


def _field(d, key: str, kind, where: str):
    """d[key] when d is an object holding it with the given type, else a ValueError saying which."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{where} lacks key {key!r}")
    # a bool is an int to Python but not a number to JSON
    if not isinstance(d[key], kind) or (isinstance(d[key], bool) and kind is not bool):
        raise ValueError(f"{where} key {key!r} holds a {type(d[key]).__name__}")
    return d[key]


@dataclass(frozen=True)
class Check:
    name: str
    property: str  # the algebraic identity or invariant being tested
    value: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "property": self.property,
            "value": self.value,
            "threshold": self.threshold,
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Check":
        """The check stored in d; a finite threshold must give the stored verdict (a flag's is NaN)."""
        check = cls(*(_field(d, key, kind, "check") for key, kind in _CHECK_FIELDS))
        if math.isfinite(check.threshold) and check.passed != (check.value <= check.threshold):
            raise ValueError(f"check {check.name!r} is stored as passed = {check.passed}, "
                             f"but its value {check.value:g} against {check.threshold:g} says otherwise")
        return check


@dataclass
class Certificate:
    subject: str
    tolerance: float
    seed: int = 0
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, prop: str, value: float, threshold: float | None = None) -> Check:
        """Record a residual check: passes iff value <= threshold."""
        thr = self.tolerance if threshold is None else threshold
        check = Check(name, prop, float(value), float(thr), bool(value <= thr))
        self.checks.append(check)
        return check

    def add_flag(self, name: str, prop: str, ok: bool, value: float = 0.0) -> Check:
        """Record a boolean check; ``value`` is an optional measured quantity."""
        check = Check(name, prop, float(value), float("nan"), bool(ok))
        self.checks.append(check)
        return check

    def merge(self, other: "Certificate", prefix: str = "") -> None:
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(Check(name, c.property, c.value, c.threshold, c.passed))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "subject": self.subject,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        cert = cls(_field(d, "subject", str, "certificate"), _field(d, "tolerance", _NUMBER, "certificate"),
                   _field(d, "seed", int, "certificate") if "seed" in d else 0)
        cert.checks = [Check.from_dict(c) for c in _field(d, "checks", list, "certificate")]
        return cert

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"certificate: {self.subject}", f"tolerance: {self.tolerance:g}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            thr = "" if c.threshold != c.threshold else f" (<= {c.threshold:g})"
            lines.append(f"  [{status}] {c.name}: {c.value:.3e}{thr}  -- {c.property}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Hash of the JSON form without ``seed``, which no check reads."""
        body = {k: v for k, v in self.to_dict().items() if k != "seed"}
        return sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]
