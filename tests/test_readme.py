"""The README's library tour runs, and its comments state what it returns."""

import ast
import pathlib
import re
from fractions import Fraction

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def tour():
    """The tour's source, and the value of each expression statement in
    it, keyed by the statement's source text."""
    text = README.read_text(encoding="utf-8")
    source = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S)[1]
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
