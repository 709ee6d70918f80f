"""Determinism lint over the simulation packages (tier-1 enforcement).

Runs ``tools/check_determinism.py`` in-process: no ambient wall-clock,
calendar or module-level randomness may reach simulation code.  The
positive cases pin the checker itself -- each forbidden construct is
actually caught, and the sanctioned patterns pass.
"""

import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_determinism  # noqa: E402


def _check_source(tmp_path, source: str):
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return check_determinism.check_file(path)


class TestSimulationPackagesAreClean:
    def test_default_roots_have_no_violations(self):
        violations = check_determinism.check_roots()
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_default_roots_exist(self):
        for root in check_determinism.DEFAULT_ROOTS:
            assert (REPO_ROOT / root).is_dir(), root

    def test_obs_clock_is_the_only_time_importer_in_src(self):
        # The sanctioned boundary: exactly one module under src/ may
        # import time -- repro.obs.clock.  Everything else (including
        # the obs package itself) goes through it.
        importers = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for violation in check_determinism.check_file(path):
                if "'time'" in violation.message:
                    importers.append(path)
        assert importers == [REPO_ROOT / "src" / "repro" / "obs" / "clock.py"]


class TestCheckerCatchesViolations:
    def test_import_time(self, tmp_path):
        violations = _check_source(tmp_path, "import time\n")
        assert len(violations) == 1
        assert "repro.obs.clock" in violations[0].message

    def test_from_time_import(self, tmp_path):
        violations = _check_source(tmp_path, "from time import perf_counter\n")
        assert len(violations) == 1

    def test_import_datetime(self, tmp_path):
        violations = _check_source(tmp_path, "import datetime\n")
        assert len(violations) == 1
        assert "calendar" in violations[0].message

    def test_from_datetime_import(self, tmp_path):
        violations = _check_source(tmp_path, "from datetime import datetime\n")
        assert len(violations) == 1

    def test_bare_random_call(self, tmp_path):
        violations = _check_source(
            tmp_path, "import random\nx = random.randint(0, 3)\n"
        )
        assert len(violations) == 1
        assert "seeded random.Random" in violations[0].message

    def test_from_random_import_function(self, tmp_path):
        violations = _check_source(tmp_path, "from random import randint\n")
        assert len(violations) == 1

    def test_unseeded_random_ctor(self, tmp_path):
        violations = _check_source(
            tmp_path, "import random\nrng = random.Random()\n"
        )
        assert len(violations) == 1
        assert "without a seed" in violations[0].message

    def test_unseeded_bare_random_ctor(self, tmp_path):
        violations = _check_source(
            tmp_path, "from random import Random\nrng = Random()\n"
        )
        assert len(violations) == 1
        assert "without a seed" in violations[0].message

    def test_reports_path_and_line(self, tmp_path):
        violations = _check_source(tmp_path, "x = 1\nimport time\n")
        assert violations[0].line == 2
        assert str(violations[0]).endswith(
            "module.py:2: import 'time' forbidden: route timing through "
            "repro.obs.clock"
        )


class TestCheckerAllowsSanctionedPatterns:
    def test_seeded_random_instance(self, tmp_path):
        violations = _check_source(
            tmp_path,
            """
            import random

            def script(seed: int, rng: random.Random | None = None):
                rng = rng if rng is not None else random.Random(seed)
                return rng.randint(0, 3)
            """,
        )
        assert violations == []

    def test_obs_clock_usage(self, tmp_path):
        violations = _check_source(
            tmp_path,
            """
            from repro.obs import clock

            def measure():
                return clock.wall(), clock.cpu()
            """,
        )
        assert violations == []

    def test_relative_imports_untouched(self, tmp_path):
        violations = _check_source(tmp_path, "from . import time\n")
        assert violations == []


class TestCalendarClockRule:
    """``clock.now`` is reserved for the service layer (per-root exemption)."""

    def test_clock_now_attribute_flagged(self, tmp_path):
        violations = _check_source(
            tmp_path,
            """
            from repro.obs import clock

            def stamp():
                return clock.now()
            """,
        )
        assert len(violations) == 1
        assert "calendar time" in violations[0].message

    def test_from_clock_import_now_flagged(self, tmp_path):
        violations = _check_source(
            tmp_path, "from repro.obs.clock import now\n"
        )
        assert len(violations) == 1
        assert "service layer" in violations[0].message

    def test_durations_still_allowed(self, tmp_path):
        violations = _check_source(
            tmp_path,
            """
            from repro.obs import clock

            def span():
                return clock.wall(), clock.cpu()
            """,
        )
        assert violations == []

    def test_exemption_allows_clock_now(self, tmp_path):
        path = tmp_path / "store.py"
        path.write_text(
            "from repro.obs import clock\nstamp = clock.now()\n",
            encoding="utf-8",
        )
        assert check_determinism.check_file(path, allow_calendar_clock=True) == []

    def test_service_roots_exist(self):
        for root in check_determinism.SERVICE_ROOTS:
            assert (REPO_ROOT / root).is_dir(), root

    def test_service_package_needs_the_exemption(self):
        # The shipped service code really does read calendar time (lease
        # deadlines, job timestamps), so linting it *strictly* must flag
        # it -- proof the exemption is load-bearing and the package is
        # actually walked by the lint.
        strict = check_determinism.check_roots(
            [REPO_ROOT / root for root in check_determinism.SERVICE_ROOTS]
        )
        assert any("calendar time" in v.message for v in strict)
        # ... while every *other* rule holds there: the only strict-mode
        # complaints are calendar-clock ones.
        assert all("calendar time" in v.message for v in strict)

    def test_service_package_clean_under_default_rules(self):
        # check_roots() with no arguments applies the per-root pairing:
        # simulation packages strict, service packages exempted.
        assert check_determinism.check_roots() == []


class TestResilienceSeedDiscipline:
    """``resilience.py`` RNGs must be seeded through ``derive_seed``."""

    def _check_resilience(self, tmp_path, source: str):
        path = tmp_path / "resilience.py"
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return check_determinism.check_file(path)

    def test_derive_seed_call_passes(self, tmp_path):
        violations = self._check_resilience(
            tmp_path,
            """
            import random

            from repro.core.seeding import derive_seed

            def jitter(seed: int, chunk: int, attempt: int) -> float:
                stream = random.Random(
                    derive_seed(seed, f"resilience/backoff/chunk={chunk}")
                )
                return stream.random()
            """,
        )
        assert violations == []

    def test_plain_seed_flagged(self, tmp_path):
        violations = self._check_resilience(
            tmp_path, "import random\nrng = random.Random(42)\n"
        )
        assert len(violations) == 1
        assert "derive_seed" in violations[0].message

    def test_same_source_allowed_outside_resilience(self, tmp_path):
        # The derive_seed requirement is scoped to resilience.py; a
        # plain explicit seed stays legal everywhere else.
        path = tmp_path / "elsewhere.py"
        path.write_text("import random\nrng = random.Random(42)\n", encoding="utf-8")
        assert check_determinism.check_file(path) == []

    def test_unseeded_still_flagged_as_unseeded(self, tmp_path):
        violations = self._check_resilience(
            tmp_path, "import random\nrng = random.Random()\n"
        )
        assert len(violations) == 1
        assert "without a seed" in violations[0].message

    def test_shipped_resilience_module_is_clean(self):
        path = REPO_ROOT / "src" / "repro" / "fleet" / "resilience.py"
        assert check_determinism.check_file(path) == []


class TestCommandLine:
    def test_main_clean(self):
        assert check_determinism.main([]) == 0

    def test_main_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "dirty"
        bad.mkdir()
        (bad / "mod.py").write_text("import time\n", encoding="utf-8")
        assert check_determinism.main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "1 determinism violation(s)" in err

    def test_main_missing_root(self, tmp_path):
        try:
            check_determinism.main([str(tmp_path / "nope")])
        except FileNotFoundError as error:
            assert "does not exist" in str(error)
        else:  # pragma: no cover
            raise AssertionError("expected FileNotFoundError")
