"""Module boundaries that keep a change of representation local to one file, and what the layout promises."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pqncheck
from pqncheck import scalar
from pqncheck.models import closed_toda
from pqncheck.scalar import Chart, parse_prefix
from pqncheck.structures import involutivity_matrix, trace_invariants

#: Attributes that expose the ring's polynomial layout: ``ScalarField.poly`` and
#: ``scalar._SumBase.poly``, a sum base's polynomial; ``affine`` would name an exp's
#: affine exponent.
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


#: The expression-tree node classes: the canonical tree is an output of ``scalar.py`` alone.
NODE_CLASSES = {"Node", "Const", "Coord", "Sum", "Product", "Power", "Exp"}


def test_only_scalar_imports_the_tree_nodes():
    # Fields are built by ring operations; no other module builds or reads a tree.
    package = Path(pqncheck.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "scalar.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                importers += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in NODE_CLASSES]
    assert importers == []


def test_exterior_imports_nothing_above_scalar():
    # The calculus, the checkers, the models and the CLI build on exterior, never the other way round.
    path = Path(pqncheck.__file__).parent / "exterior.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module.rpartition(".")[2]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.rpartition(".")[2] for a in node.names}
    assert imported & {"calculus", "structures", "models", "cli"} == set()


def test_every_exported_name_is_documented():
    # The README's library section is the package's API: test-only code stays out of it and out of src/.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in pqncheck.__all__ if not re.search(rf"`{re.escape(name)}[`(]", section)]
    assert missing == []


def test_readme_library_tour_runs_and_gives_the_results_it_states():
    # Each ```python block runs in a fresh namespace; an expression statement's trailing comment starts
    # with the literal it evaluates to, as in ``report.overall  # True``.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        namespace: dict = {}
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            if not isinstance(statement, ast.Expr):
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            stated = lines[statement.end_lineno - 1].partition("#")[2].split(",")[0].strip()
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(stated), ast.unparse(statement)


def test_cli_import_skips_dataclasses_and_inspect():
    # Every CLI run is a fresh process.  Importing dataclasses pulls in inspect,
    # ast, dis and tokenize, and each @dataclass generates its methods with exec:
    # on CPython 3.11 that was over half of the package's import time.
    env = {**os.environ, "PYTHONPATH": str(Path(pqncheck.__file__).parent.parent)}
    probe = "import sys, pqncheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"


def test_pickle_carries_no_process_local_sum_ids():
    # Sum bases are interned under ids minted per process.  A field pickled in
    # one process must load unchanged in another that minted its ids for other
    # sums first.
    env = {**os.environ, "PYTHONPATH": str(Path(pqncheck.__file__).parent.parent)}
    text = "(+ (* 3 q1 (exp (+ q1 (* -1 q2)))) (* 1/2 (^ (+ q1 (* -1 q2)) -2)))"
    setup = "import pickle, sys; from pqncheck.scalar import Chart, parse_prefix; chart = Chart(2)"
    dump = f"{setup}; sys.stdout.buffer.write(pickle.dumps(parse_prefix({text!r}, chart)))"
    blob = subprocess.run([sys.executable, "-c", dump], capture_output=True, check=True, env=env).stdout
    load = (
        f"{setup}; others = [parse_prefix(t, chart) for t in ('(^ (+ q1 q2) -1)', '(^ (+ p1 (* 2 q2) 1) -3)')]; "
        f"field = pickle.loads(sys.stdin.buffer.read()); print(field.to_prefix()); print(field == parse_prefix({text!r}, chart))"
    )
    result = subprocess.run([sys.executable, "-c", load], input=blob, capture_output=True, check=True, env=env)
    expected = parse_prefix(text, Chart(2)).to_prefix()
    assert result.stdout.decode().splitlines() == [expected, "True"]
    assert "(^ (+ q1 (* -1 q2)) -2)" in expected and "(exp (+ q1 (* -1 q2)))" in expected


def test_ring_operations_never_build_tree_keys(monkeypatch):
    # Tree keys order printed trees only.  An involutivity matrix
    # of closed Toda is decided symbolically, so it prints and evaluates nothing.
    bundle = closed_toda(4)
    calls = []
    key = scalar._node_key

    def counted(node):
        calls.append(node)
        return key(node)

    monkeypatch.setattr(scalar, "_node_key", counted)
    matrix = involutivity_matrix(bundle.poisson, trace_invariants(bundle.tensor, 4))
    assert matrix.all_zero
    assert calls == []


def test_threads_intern_each_sum_once():
    # Each sum base gets one id even when threads mint ids for it at once;
    # a second id would make the same field read differently per thread.
    chart = Chart(2)
    texts = [f"(^ (+ q1 (* {k} q2) 7/11) -1)" for k in range(1000, 1400)]  # sums no other test builds
    results = [None] * 8
    start = threading.Barrier(len(results), timeout=60)

    def work(slot):
        start.wait()
        results[slot] = [parse_prefix(text, chart) for text in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(fields == results[0] for fields in results)
