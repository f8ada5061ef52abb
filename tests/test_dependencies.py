"""The runtime depends on numpy and the standard library only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hmmkld

SRC = str(Path(hmmkld.__file__).resolve().parents[1])


def top_level_modules(statement: str) -> set:
    """Top-level names in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter that finds this checkout's package first."""
    code = (
        f"{statement}\nimport json, sys\n"
        "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return set(json.loads(run.stdout))


def test_import_loads_only_numpy_and_stdlib():
    # A bare interpreter may already load site packages from .pth files;
    # only what importing the package adds is checked.
    added = top_level_modules("import hmmkld, hmmkld.cli") - top_level_modules("pass")
    assert {"hmmkld", "numpy"} <= added
    assert added - set(sys.stdlib_module_names) - {"hmmkld", "numpy"} == set()
