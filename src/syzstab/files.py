"""File formats and canonical serialization.

Fan files are JSON objects ``{"rays": [[x, y], ...]}`` with integer
entries.  Abstract surface files are JSON objects with ``labels``,
``pairing`` (a square list of rows), ``canonical`` (integers) and
``effective_generators`` (integer indices into labels).  The same shape
checks apply to the surface a report echoes back for ``--verify``.

Rational entries may be JSON integers or strings.  Integral text such
as "3" or "-12" parses to an int; "p/q", or a decimal string such as
"1.5", parses to a Fraction, read exactly (as 3/2).  JSON floats are
rejected, since they are binary approximations.  Emitted JSON is
byte-stable: keys sorted, rationals rendered in lowest terms with
positive denominators, never as decimals.  Reports are written by
:func:`dumps_canonical`, syzstab's own writer, byte for byte the output
of ``json.dumps(obj, sort_keys=True, indent=2)``, which on Python 3.13
and before takes a pure-Python path once ``indent`` is set.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .divisors import AbstractSurface, Divisor, Rat, SurfaceModel, ToricSurface
from .errors import InputError
from .fan import Fan

_int = int.__repr__  # as json's own int rendering, never a subclass __repr__
_LITERALS = {None: "null", True: "true", False: "false"}


def _check_exponent(text: str) -> None:
    """Reject a decimal exponent beyond ``sys.get_int_max_str_digits()``
    in magnitude, from its digits alone: Fraction would first build
    10**|exponent|, which takes seconds at 10**7 and longer at 10**8."""
    _, marker, exponent = text.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if marker and digits.isdecimal() and (
        len(digits) > len(str(limit)) or int(digits) > limit
    ):
        raise InputError(
            f"exponent of {text[:40]!r} exceeds {limit} in magnitude"
        )


def parse_rational(value) -> Rat:
    """Accept ints and exact strings ('3', 'p/q', '1.5', '2e3'); never
    floats.  An int, or text of decimal digits with an optional '-', is
    returned as an int; anything else as a Fraction.  A decimal exponent
    may be at most ``sys.get_int_max_str_digits()`` in magnitude."""
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        # "[-]digits" and "[-]digits/digits" by int(), as Fraction would
        num, slash, den = text.partition("/")
        if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
            try:
                return Fraction(int(num), int(den)) if slash else int(num)
            except (ValueError, ZeroDivisionError):  # Fraction's error below
                pass
        _check_exponent(value)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}") from exc
    raise InputError(
        f"not an exact rational: {value!r} (floats are rejected)"
    )


def format_rational(value, denominator: int = 1) -> str:
    """Lowest terms, positive denominator; integers without the '/1'.  An
    int value is over denominator, already in lowest terms and positive.
    Raises InputError past ``sys.get_int_max_str_digits()`` digits."""
    try:
        if type(value) is not int:
            f = value if type(value) is Fraction else Fraction(value)
            value, denominator = f.numerator, f.denominator
        return str(value) if denominator == 1 else f"{value}/{denominator}"
    except ValueError as exc:
        raise InputError(f"result too large to print: {exc}") from exc


def rational_to_jsonable(value: Rat) -> int | str:
    """An integer as a JSON int, anything else as 'p/q'."""
    return int(value) if value.denominator == 1 else format_rational(value)


def divisor_to_jsonable(D: Divisor) -> list:
    """Integer coefficients as JSON ints, fractional ones as 'p/q'."""
    return [rational_to_jsonable(c) for c in D.coeffs]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return value


def _rationals(values, what: str) -> list[Rat]:
    return [parse_rational(v) for v in _require_list(values, what)]


def divisor_from_jsonable(values) -> Divisor:
    return Divisor(_rationals(values, "divisor"))


def parse_divisor_arg(text: str) -> Divisor:
    """Comma-separated coefficients from the command line."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise InputError(f"malformed divisor {text!r}")
    return Divisor(parse_rational(p) for p in parts)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError: malformed JSON, non-UTF-8 bytes, over-long integers
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc


def fan_from_jsonable(data, where: str) -> Fan:
    """Fan from a decoded ``{"rays": [[x, y], ...]}`` object."""
    if not isinstance(data, dict) or "rays" not in data:
        raise InputError(f'{where}: expected an object with a "rays" key')
    rays = _require_list(data["rays"], f'{where}: "rays"')
    for r in rays:
        if type(r) is not list or len(r) != 2 or (
            type(r[0]) is not int or type(r[1]) is not int
        ):
            raise InputError(
                f'{where}: every ray must be a pair of integers, got {r!r}'
            )
    return Fan(rays)


def abstract_from_jsonable(data, where: str) -> AbstractSurface:
    """Abstract surface from a decoded surface object."""
    required = ("labels", "pairing", "canonical", "effective_generators")
    if not isinstance(data, dict) or any(k not in data for k in required):
        raise InputError(
            f"{where}: expected an object with keys {', '.join(required)}"
        )
    labels = _require_list(data["labels"], f'{where}: "labels"')
    pairing = [
        _rationals(row, f"{where}: pairing row")
        for row in _require_list(data["pairing"], f'{where}: "pairing"')
    ]
    canonical = _rationals(data["canonical"], f'{where}: "canonical"')
    if any(c.denominator != 1 for c in canonical):
        raise InputError(f"{where}: canonical class must be integral")
    gens = data["effective_generators"]
    if not isinstance(gens, list) or not all(map(_is_int, gens)):
        raise InputError(
            f'{where}: "effective_generators" must be a list of integer indices'
        )
    return AbstractSurface(labels, pairing, canonical, gens)


def load_fan(path: str) -> Fan:
    return fan_from_jsonable(read_json(path), path)


def load_abstract_surface(path: str) -> AbstractSurface:
    return abstract_from_jsonable(read_json(path), path)


def surface_to_jsonable(X: SurfaceModel) -> dict:
    """The surface as a report echoes it: ``{"fan": ...}`` for a toric
    surface, ``{"surface": ...}`` in the abstract file format otherwise."""
    if isinstance(X, ToricSurface):
        return {"fan": {"rays": [list(r) for r in X.fan.rays]}}
    return {
        "surface": {
            "labels": list(X.labels),
            "pairing": [[rational_to_jsonable(x) for x in row] for row in X.matrix],
            "canonical": divisor_to_jsonable(X.canonical),
            "effective_generators": list(X.effective_generators),
        }
    }


def surface_from_jsonable(echo) -> SurfaceModel:
    """The surface a report echo names, read back with the file checks."""
    if isinstance(echo, dict):
        if "fan" in echo:
            return ToricSurface(fan_from_jsonable(echo["fan"], "report echo fan"))
        if "surface" in echo:
            return abstract_from_jsonable(echo["surface"], "report echo surface")
    raise InputError("report echo names no surface")


def _write(obj, out: list, newline: str) -> None:
    """Append the JSON pieces of obj to out, as ``json.dumps`` with
    ``sort_keys=True, indent=2`` writes them; newline is the line break
    plus the indent of obj's own level."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(_int(obj))  # ValueError past the digit limit
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if all([type(x) is int for x in obj]):
            # coefficient vectors, self-intersections: one join
            out.append("[" + inner + ("," + inner).join(map(_int, obj)))
        elif all([type(x) is list and len(x) == 2
                  and type(x[0]) is type(x[1]) is int for x in obj]):
            # rays: "%d" pairs, which refuse an int past the limit as repr does
            fmt = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            out.append("[" + inner + ("," + inner).join([fmt % (x, y) for x, y in obj]))
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, out, inner)
                sep = "," + inner
        out.append(newline + "]")
    elif obj is None or kind is bool:
        out.append(_LITERALS[obj])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    """Deterministic JSON, byte for byte ``json.dumps(obj, sort_keys=True,
    indent=2)`` plus a trailing newline, of str keys, str, int, bool, None,
    dicts and lists only.  Raises InputError for an int past
    ``sys.get_int_max_str_digits()``, TypeError for any other type."""
    out: list[str] = []
    try:
        _write(obj, out, "\n")
    except ValueError as exc:
        raise InputError(f"result too large to print: {exc}") from exc
    out.append("\n")
    return "".join(out)
