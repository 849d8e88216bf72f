#!/usr/bin/env python3
"""Reachability gate: every statement inside a function of src/syzstab
runs under the tier-1 tests.

Runs the tier-1 command, ``python -m pytest -q -W error``, in this
process under a ``sys.settrace`` line collector that records lines of
src/syzstab only.  A statement inside a function (a method, or a function
nested in one) counts when its first line carries bytecode; one that no
test reaches is printed as ``file:line: function: source``.  Exits 1 when
such a statement is not in ALLOWED, or when an ALLOWED entry matches no
unreached statement; 0 otherwise.  Tracing slows the tests several-fold,
so pytest's own status (tests with a time bound may fail under the
tracer) is printed, not gated on: the plain tier-1 run gates it.  When
it is not 0, a closing line says that a test cut short may account for
unreached statements.

Stdlib only, besides pytest and the test dependencies the tests import.

Run from the repository root:
    python tools/reachability.py
"""

import ast
import os
import pathlib
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "syzstab"
# a fixed Hypothesis seed, so that every run draws the same examples and
# reaches the same lines
PYTEST_ARGS = ["-q", "-W", "error", "-p", "no:cacheprovider", "--hypothesis-seed=0"]

# (file, function, start of the statement's source) -> why no test reaches it
ALLOWED = {
    ("fan.py", "reduce_to_minimal", "raise InternalError("): (
        "every smooth complete fan of more than 4 rays has a (-1)-ray, so "
        "the scan never runs off the end; the guard only turns a broken "
        "invariant into an exit-1 report"
    ),
}


def _code_lines(code):
    """Every line that carries bytecode in ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _body(node):
    """The statements of a function body, without its docstring."""
    body = node.body
    first = body[0]
    if (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        return body[1:]
    return body


def _function_statements(node, name):
    """(statement, function name) for every statement inside the function
    ``node``, descending into blocks, handlers and nested definitions."""
    todo = [(stmt, name) for stmt in _body(node)]
    while todo:
        stmt, owner = todo.pop()
        yield stmt, owner
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner}.{stmt.name}"
            todo += [(s, inner) for s in _body(stmt)]
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                todo.append((child, owner))
            elif not isinstance(child, ast.expr):
                # except handlers and match cases hold statements
                todo += [(s, owner) for s in getattr(child, "body", [])]


def statements(path):
    """(line, function, source line) of each countable statement of the
    functions in the file ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []
    todo = [(node, "") for node in tree.body]
    while todo:
        node, prefix = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(child, f"{prefix}{node.name}.") for child in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt, owner in _function_statements(node, prefix + node.name):
                if stmt.lineno in executable:
                    found.append((stmt.lineno, owner, text[stmt.lineno - 1].strip()))
    return sorted(set(found))


class _PreloadPatching:
    """Imports ``hypothesis.extra._patching`` as the session starts.

    Hypothesis's pytest plugin imports that module mid-session when a
    test fails; its libcst import warns, and under ``-W error`` the warning
    ends the session in an INTERNALERROR.  Imported here first, with
    warnings ignored, the module is already loaded by then.  Without libcst
    the plugin skips the module, so an ImportError is ignored here too.
    Before ``pytest.main`` is too early: pytest then finds Hypothesis
    imported before it could rewrite its plugin, and warns about that."""

    def pytest_sessionstart(self, session):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


def collect():
    """Run the tier-1 suite under the line collector; returns (pytest's
    exit status, {absolute file name: set of reached lines})."""
    hits = {}
    wanted = {}  # co_filename -> its line set, or None outside the package

    def lines_of(filename):
        if filename not in wanted:
            path = pathlib.Path(filename).resolve()
            inside = path.parent == PACKAGE and path.suffix == ".py"
            wanted[filename] = hits.setdefault(str(path), set()) if inside else None
        return wanted[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    # the package from src/, here and in the subprocesses the tests start
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(PYTEST_ARGS, plugins=[_PreloadPatching()])
    finally:
        sys.settrace(None)
    return status, hits


def main():
    status, hits = collect()
    unreached = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        reached = hits.get(str(path.resolve()), set())
        countable = statements(path)
        total += len(countable)
        for line, owner, source in countable:
            if line not in reached:
                unreached.append((path.name, line, owner, source))
    allowed = set()
    failed = False
    for name, line, owner, source in unreached:
        key = next(
            (k for k in ALLOWED
             if k[:2] == (name, owner) and source.startswith(k[2])),
            None,
        )
        if key is None:
            failed = True
            print(f"unreached: src/syzstab/{name}:{line}: {owner}: {source}")
        else:
            allowed.add(key)
            print(f"allowed: src/syzstab/{name}:{line}: {owner}: {ALLOWED[key]}")
    for key in sorted(set(ALLOWED) - allowed):
        failed = True
        print(f"stale allowlist entry, reached or gone: {key}")
    print(
        f"reachability: {total - len(unreached)} of {total} statements reached, "
        f"{len(unreached)} not ({len(allowed)} allowed); pytest exit status "
        f"{int(status)}"
    )
    if status != 0:
        print("some test failed under the tracer: a test cut short may "
              "account for unreached statements above")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
