"""Module boundaries that keep a change of representation local to one file."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pqncheck

#: Attributes that expose the ring's polynomial layout: ``ScalarField.poly``,
#: ``Sum.poly`` and ``Exp.affine``.
LAYOUT_ATTRIBUTES = {"poly", "affine"}


def test_only_scalar_reads_the_polynomial_layout():
    package = Path(pqncheck.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "scalar.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []


def test_cli_import_skips_dataclasses_and_inspect():
    # Every CLI run is a fresh process.  Importing dataclasses pulls in inspect,
    # ast, dis and tokenize, and each @dataclass generates its methods with exec:
    # on CPython 3.11 that was over half of the package's import time.
    env = {**os.environ, "PYTHONPATH": str(Path(pqncheck.__file__).parent.parent)}
    probe = "import sys, pqncheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"
