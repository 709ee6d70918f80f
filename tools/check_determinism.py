#!/usr/bin/env python
"""Determinism lint: no ambient time or randomness in simulation code.

Fleet outcomes are pure functions of their specs: the same config must
fingerprint identically at any worker count, on any machine, at any
time of day.  The easiest way to lose that property is an innocuous
``time.time()`` or bare ``random.randint()`` deep in a simulation
module.  This checker walks the simulation packages' ASTs and rejects:

* ``import time`` / ``from time import ...`` -- wall-clock and CPU
  timing must go through :mod:`repro.obs.clock`, the one sanctioned
  (and grep-able) boundary where real time enters the process;
* ``import datetime`` / ``from datetime import ...`` -- no simulation
  quantity may depend on the calendar;
* bare module-level randomness (``random.random()``, ``from random
  import randint``) -- all randomness must flow through explicitly
  seeded ``random.Random(seed)`` instances, which remain allowed;
* unseeded generators (``random.Random()`` with no arguments) -- an
  argument-less ``Random`` seeds itself from the OS, which is ambient
  randomness with extra steps;
* in ``resilience.py`` specifically, every ``random.Random(...)`` seed
  argument must be a :func:`repro.core.seeding.derive_seed` call -- the
  retry layer's backoff jitter replays bit-identically only when its
  streams come from the SHA-256 derivation machinery;
* calendar-time readings (``clock.now`` from :mod:`repro.obs.clock`,
  the epoch clock) anywhere *except* the sanctioned callers: the
  experiment service (``src/repro/service``) legitimately needs wall
  time for lease deadlines and job timestamps, but a ``clock.now()``
  inside a simulation package would be ambient time wearing a
  sanctioned import, so the exemption is per-root, not global.

The service package is linted too -- every rule above except the
calendar-clock one applies there, so the queue/worker/server layer can
never re-import ``time`` directly or reach for ambient randomness.

Run directly (``python tools/check_determinism.py``) or through the
tier-1 suite (``tests/test_no_wallclock_in_kernel.py``).  Extra roots
may be passed as arguments (linted with the strict simulation rules);
defaults cover every package whose code executes inside a vehicle
simulation plus the service layer.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages whose code runs inside the simulation of a vehicle (or
#: produces the specs it consumes) and therefore must be deterministic.
DEFAULT_ROOTS = (
    "src/repro/fleet",
    "src/repro/can",
    "src/repro/vehicle",
    "src/repro/core",
    "src/repro/casestudy",
    "src/repro/attacks",
    "src/repro/selinux",
)

#: Sanctioned calendar-clock callers: linted with every rule *except*
#: the ``clock.now`` one.  Lease expiry, submission timestamps and job
#: latency are calendar quantities by nature -- they still must route
#: through :mod:`repro.obs.clock` (a direct ``time`` import here is as
#: forbidden as anywhere else).
SERVICE_ROOTS = ("src/repro/service",)

#: Modules that must not be imported at all in simulation code.
FORBIDDEN_MODULES = {
    "time": "route timing through repro.obs.clock",
    "datetime": "simulation state must not depend on the calendar",
}

#: ``random`` attributes that are allowed (seeded generator types).
ALLOWED_RANDOM_ATTRS = {"Random", "SystemRandom"}

#: File names whose ``random.Random`` seeds must be ``derive_seed(...)``
#: calls: the resilience layer's jitter streams must replay exactly.
DERIVED_SEED_FILES = {"resilience.py"}


class Violation:
    """One determinism violation, printable as ``path:line: message``."""

    __slots__ = ("path", "line", "message")

    def __init__(self, path: Path, line: int, message: str) -> None:
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: Path, allow_calendar_clock: bool = False) -> None:
        self.path = path
        self.allow_calendar_clock = allow_calendar_clock
        self.violations: list[Violation] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(self.path, node.lineno, message))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            reason = FORBIDDEN_MODULES.get(root)
            if reason is not None:
                self._flag(node, f"import {alias.name!r} forbidden: {reason}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if node.level == 0:  # absolute imports only; relative ones stay in-package
            reason = FORBIDDEN_MODULES.get(root)
            if reason is not None:
                self._flag(node, f"from {node.module!r} import forbidden: {reason}")
            if root == "random":
                for alias in node.names:
                    if alias.name not in ALLOWED_RANDOM_ATTRS:
                        self._flag(
                            node,
                            f"from random import {alias.name!r} forbidden: use a "
                            "seeded random.Random instance",
                        )
            if (
                not self.allow_calendar_clock
                and (node.module or "").endswith("obs.clock")
            ):
                for alias in node.names:
                    if alias.name == "now":
                        self._flag(
                            node,
                            "clock.now (calendar time) is reserved for the "
                            "service layer; simulation code may only use "
                            "clock.wall/clock.cpu durations",
                        )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Bare module-level randomness: random.<anything-but-Random>.
        # Attribute *annotations* (``rng: random.Random``) resolve to
        # allowed names, so flagging every disallowed attribute access
        # is exact -- there is no legitimate use of random.random() et
        # al. in simulation code.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "random"
            and node.attr not in ALLOWED_RANDOM_ATTRS
        ):
            self._flag(
                node,
                f"random.{node.attr} uses the shared module-level generator; "
                "use a seeded random.Random instance",
            )
        # Calendar time through the sanctioned clock module is still
        # calendar time: only the service layer may read it.
        if (
            not self.allow_calendar_clock
            and isinstance(node.value, ast.Name)
            and node.value.id == "clock"
            and node.attr == "now"
        ):
            self._flag(
                node,
                "clock.now (calendar time) is reserved for the service "
                "layer; simulation code may only use clock.wall/clock.cpu "
                "durations",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_random_ctor(func: ast.AST) -> bool:
        """Is this call expression ``random.Random(...)`` or ``Random(...)``?"""
        if isinstance(func, ast.Attribute):
            return (
                isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr == "Random"
            )
        return isinstance(func, ast.Name) and func.id == "Random"

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_random_ctor(node.func):
            if not node.args and not node.keywords:
                self._flag(
                    node,
                    "random.Random() without a seed draws from the OS; "
                    "pass an explicit seed",
                )
            elif self.path.name in DERIVED_SEED_FILES and not (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and self._is_derive_seed(node.args[0].func)
            ):
                self._flag(
                    node,
                    "resilience RNG streams must be seeded via "
                    "derive_seed(...): backoff jitter has to replay "
                    "bit-identically",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_derive_seed(func: ast.AST) -> bool:
        if isinstance(func, ast.Attribute):
            return func.attr == "derive_seed"
        return isinstance(func, ast.Name) and func.id == "derive_seed"


def check_file(path: Path, allow_calendar_clock: bool = False) -> list[Violation]:
    """Determinism violations in one Python source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    visitor = _DeterminismVisitor(path, allow_calendar_clock=allow_calendar_clock)
    visitor.visit(tree)
    return visitor.violations


def check_roots(roots: list[Path] | None = None, repo_root: Path | None = None) -> list[Violation]:
    """Violations across every ``.py`` file under the given roots.

    With no explicit *roots*, the defaults are linted: the simulation
    packages under the strict rules and the service packages under the
    calendar-clock exemption.  Explicit roots are linted strictly.
    """
    repo_root = repo_root or Path(__file__).resolve().parents[1]
    if roots is None:
        pairs = [(repo_root / root, False) for root in DEFAULT_ROOTS]
        pairs += [(repo_root / root, True) for root in SERVICE_ROOTS]
    else:
        pairs = [(root, False) for root in roots]
    violations: list[Violation] = []
    for root, allow_calendar_clock in pairs:
        if not root.exists():
            raise FileNotFoundError(f"determinism lint root does not exist: {root}")
        for path in sorted(root.rglob("*.py")):
            violations.extend(
                check_file(path, allow_calendar_clock=allow_calendar_clock)
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    roots = [Path(arg) for arg in argv] if argv else None
    violations = check_roots(roots)
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"{len(violations)} determinism violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
