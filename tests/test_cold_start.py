"""Importing the command-line module loads no dataclasses, inspect or typing.

Every command runs in a fresh interpreter, so what ``import syzstab.cli``
loads is paid on each one.  ``dataclasses`` compiles the methods of each
record at import, and it brings in ``inspect``; ``typing`` is large too.
The stdlib modules the package needs (argparse, json, fractions, re) load
none of the three on Python 3.10 to 3.13, so the package must not either.
``-S`` keeps what ``site`` imports through ``.pth`` files out of the check.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "typing")


def test_cli_import_loads_no_heavy_module():
    code = (
        "import sys, syzstab.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == [], proc.stdout
