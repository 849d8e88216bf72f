"""The README's library tour runs, its comments state what it returns,
and every name its library sections give resolves on the package."""

import ast
import pathlib
import re
from fractions import Fraction

import syzstab
from syzstab import AbstractSurface, Fan, ToricSurface

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# where a qualified name must resolve: X is a surface of either model
OWNERS = {
    "X": (ToricSurface, AbstractSurface),
    "Fan": (Fan,),
    "ToricSurface": (ToricSurface,),
    "AbstractSurface": (AbstractSurface,),
    None: (syzstab, Fan, ToricSurface, AbstractSurface),
}


def tour_source():
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S)[1]


def tour():
    """The tour's source, and the value of each expression statement in
    it, keyed by the statement's source text."""
    source = tour_source()
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[segment] = eval(segment, namespace)
        else:
            exec(segment, namespace)
    return source, values


def test_tour_values():
    source, values = tour()
    assert values["syzygy_slope(X, D, A)"] == Fraction(-17, 26)
    assert "-17/26" in source
    ab = values["alpha_beta(X, D, S, A)"]
    assert (ab.alpha, ab.beta) == (-1, 17)
    assert " ".join(repr(ab).split()) in " ".join(
        source.replace("#", "").split()
    )
    assert values["d_threshold(X, D, S, A).d0"] == 18
    certified = (
        "certificate_holds(X, D, report.verdict, c.polarization, c.shift, c.d0)"
    )
    assert values[certified] is True


def library_names():
    """(qualifier, name) of each code span in the prose from the library
    tour to the command line that reads ``X.name``, ``Owner.name(...)`` or
    ``name(...)``."""
    text = README.read_text(encoding="utf-8")
    prose = text[text.index("## Library tour") : text.index("## Command line")]
    prose = re.sub(r"```.*?```", "", prose, flags=re.S)
    names = []
    for span in re.findall(r"`([^`]+)`", prose):
        m = re.fullmatch(r"(?:(\w+)\.)?(\w+)(\(.*\))?", span, re.S)
        if m and (m[3] or m[1] == "X"):
            names.append(m.group(1, 2))
    return names


def test_named_api_resolves():
    names = library_names()
    assert ("X", "h0") in names and (None, "reduce_to_minimal") in names
    missing = [
        f"{owner}.{name}" if owner else name
        for owner, name in names
        if not any(hasattr(o, name) for o in OWNERS[owner])
    ]
    assert not missing


def test_tour_imports_are_public():
    (node,) = [n for n in ast.parse(tour_source()).body if isinstance(n, ast.ImportFrom)]
    assert node.module == "syzstab"
    assert {alias.name for alias in node.names} <= set(syzstab.__all__)
