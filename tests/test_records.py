"""The result records are named tuples with a fixed API: field order,
keyword construction, defaults, repr text, equality, hashing, immutability
and ``str(SurfaceType)``.  Library callers read them by name, unpack them
in field order and compare them, so each of these is pinned here."""

from fractions import Fraction

import pytest

from syzstab import (
    AlphaBeta,
    Certificate,
    Divisor,
    Polarization,
    StabilityReport,
    SurfaceType,
)

A, S, E = Divisor([1, 2, 3]), Divisor([0, 1, 0]), Divisor([1, 0, 0])

# record, its fields in order, and one value for each
RECORDS = [
    (SurfaceType, ("kind", "ell", "picard_rank"), ("Hirzebruch", 1, 2)),
    (AlphaBeta, ("alpha", "beta"), (Fraction(-1), Fraction(17))),
    (
        Certificate,
        ("polarization", "shift", "d0", "subbundle_slope", "ambient_slope", "strict"),
        (A, S, 18, Fraction(-5, 4), Fraction(-4, 3), True),
    ),
    (
        Polarization,
        (
            "polarization", "polarization_integral", "generator_index",
            "generator", "epsilon", "threshold", "alpha", "notes",
        ),
        (A, A, 0, E, Fraction(1, 2), Fraction(3, 2), Fraction(-7), ("note",)),
    ),
    (
        StabilityReport,
        ("verdict", "certificate", "assumptions"),
        ("NoDestabilizerFound", None, ("assumed",)),
    ),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, values", RECORDS, ids=IDS)
def test_fields_in_order(record, fields, values):
    assert record._fields == fields
    r = record(*values)
    assert tuple(r) == values
    assert [getattr(r, f) for f in fields] == list(values)
    assert record(**dict(zip(fields, values))) == r


@pytest.mark.parametrize("record, fields, values", RECORDS, ids=IDS)
def test_equality_and_hash(record, fields, values):
    r = record(*values)
    twin = record(*values)
    assert r == twin and hash(r) == hash(twin)
    # a named tuple compares and hashes as the plain tuple of its fields
    assert r == values and hash(r) == hash(values)
    other = r._replace(**{fields[0]: "other"})
    assert other != r and other[1:] == r[1:]


@pytest.mark.parametrize("record, fields, values", RECORDS, ids=IDS)
def test_immutable(record, fields, values):
    r = record(*values)
    with pytest.raises(AttributeError):
        setattr(r, fields[0], values[0])
    with pytest.raises(AttributeError):
        r.extra = 1
    assert not hasattr(r, "__dict__")


def test_defaults():
    pol = Polarization(A, A, 0, E, Fraction(1, 2), Fraction(3, 2), Fraction(-7))
    assert pol.notes == ()
    assert StabilityReport("NotStable", None).assumptions == ()
    assert Polarization._field_defaults == {"notes": ()}
    assert StabilityReport._field_defaults == {"assumptions": ()}
    for record in (SurfaceType, AlphaBeta, Certificate):
        assert record._field_defaults == {}


def test_repr():
    assert repr(AlphaBeta(Fraction(-1), Fraction(17))) == (
        "AlphaBeta(alpha=Fraction(-1, 1), beta=Fraction(17, 1))"
    )
    assert repr(SurfaceType("Hirzebruch", 1, 2)) == (
        "SurfaceType(kind='Hirzebruch', ell=1, picard_rank=2)"
    )
    assert repr(StabilityReport("NoDestabilizerFound", None)) == (
        "StabilityReport(verdict='NoDestabilizerFound', certificate=None, "
        "assumptions=())"
    )
    assert repr(Certificate(A, S, 2, Fraction(-1), Fraction(-2, 3), False)) == (
        "Certificate(polarization=Divisor(1, 2, 3), shift=Divisor(0, 1, 0), "
        "d0=2, subbundle_slope=Fraction(-1, 1), "
        "ambient_slope=Fraction(-2, 3), strict=False)"
    )


@pytest.mark.parametrize(
    "st, text",
    [
        (SurfaceType("ProjectivePlane", None, 1), "ProjectivePlane"),
        (SurfaceType("Hirzebruch", 0, 2), "Hirzebruch(0)"),
        (SurfaceType("Hirzebruch", 3, 2), "Hirzebruch(3)"),
        (SurfaceType("Other", None, 5), "Other(picard_rank=5)"),
    ],
    ids=str,
)
def test_surface_type_str(st, text):
    assert str(st) == text
    assert f"{st}" == text
