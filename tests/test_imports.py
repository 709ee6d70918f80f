"""Every module of the package can be the first ``repro`` module imported.

An import cycle hides while some earlier import initialises its modules
in a working order; one subprocess imports each module with no ``repro``
module loaded before it.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_EACH_FIRST = """
import importlib, sys, traceback
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        print(name, traceback.format_exc().splitlines()[-1])
"""


def test_every_module_imports_first():
    names = [
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in sorted((SRC / "repro").rglob("*.py"))
    ]
    assert "repro.hpe.engine" in names
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH_FIRST, *names],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == ""
