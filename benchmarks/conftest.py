"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's artefacts (Table I, Figs.
1-4, the Section V-A walk-through) or one of the supporting ablations,
prints the regenerated artefact and asserts the qualitative shape the
paper claims.  The files are named ``bench_*.py``, outside pytest's
default ``python_files``, so run them as a report generator with::

    PYTHONPATH=src python -m pytest benchmarks/ -q -s \\
        --override-ini="python_files=bench_*.py"
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from repro.casestudy.builder import CaseStudyBuilder


@pytest.fixture(scope="session")
def builder() -> CaseStudyBuilder:
    """One case-study builder (policy derived once) shared by all benchmarks."""
    return CaseStudyBuilder()
