"""Every number the surface core hands out is an int or a Fraction.

The source scan in the acceptance tests catches float literals and
``float()`` calls, but not an ``int / int`` quotient, which Python turns
into a float.  These tests run the drivers, the re-check of each driver
certificate, the asymptotic scan, the fixed-exponent search and
Hirzebruch region rows, record what the pairing, chi, polarizations,
alpha/beta, slopes and thresholds return along the way, and reject any
value that is neither an int nor a Fraction.
"""

from fractions import Fraction

import pytest

from syzstab import AbstractSurface, Divisor, stability
from syzstab.divisors import SurfaceModel, ToricSurface

from conftest import BL2P2_ABSTRACT, ample_on

# the plane blown up in two points, and the same matrix with a rational
# self-intersection, where only the driver's divisors have an integral chi
ABSTRACT = {
    "bl2p2": BL2P2_ABSTRACT,
    "half": {
        **BL2P2_ABSTRACT,
        "pairing": [[Fraction(-1, 2), 0, 1], [0, -1, 1], [1, 1, -1]],
    },
}

RECORDED = [
    (SurfaceModel, "pair"),
    (SurfaceModel, "pair_with"),
    (ToricSurface, "intersections"),
    (AbstractSurface, "intersections"),
    (stability, "_rank"),
    (stability, "_alpha_beta"),
    (SurfaceModel, "chi"),
    (ToricSurface, "pair_generator"),
    (ToricSurface, "to_section_fiber"),
    (AbstractSurface, "pair_generator"),
    (ToricSurface, "pair_curves"),
    (AbstractSurface, "pair_curves"),
    (stability, "syzygy_slope"),
    (stability, "alpha_beta"),
    (stability, "d_threshold"),
    (stability, "find_destabilizer"),
    (stability, "construct_polarization"),
]


def inexact(value, where):
    """Descriptions of every number inside value that is not an int or a
    Fraction (bools, strings and None are not numbers here)."""
    if value is None or isinstance(value, (bool, str)):
        return []
    if type(value) is int or isinstance(value, Fraction):
        return []
    if isinstance(value, Divisor):
        return inexact(value.coeffs, where)
    if hasattr(value, "_fields"):  # a named-tuple record: by field name
        return [
            bad
            for name in value._fields
            for bad in inexact(getattr(value, name), f"{where}.{name}")
        ]
    if isinstance(value, (tuple, list)):
        return [
            bad for i, v in enumerate(value) for bad in inexact(v, f"{where}[{i}]")
        ]
    return [f"{where} = {value!r} ({type(value).__name__})"]


@pytest.fixture
def recorder(monkeypatch):
    """Wraps every entry of RECORDED; maps its name to the values returned."""
    seen = {name: [] for _, name in RECORDED}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[name].append(result)
            return result

        return wrapper

    for owner, name in RECORDED:
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    return seen


def check(seen, reports):
    bad = [
        b
        for name, values in seen.items()
        for v in values
        for b in inexact(v, name)
    ]
    bad += [b for i, r in enumerate(reports) for b in inexact(r, f"report[{i}]")]
    assert not bad, "\n".join(bad[:20])


def holds(X, D, report):
    """certificate_holds on a driver report: the per-divisor slope route."""
    c = report.certificate
    return stability.certificate_holds(
        X, D, report.verdict, c.polarization, c.shift, c.d0
    )


def analyses(X, D, A):
    """Scan and fixed-exponent certificates for (X, D, A)."""
    out = [stability.scan_candidates(X, D, A)]
    out += [stability.find_destabilizer(X, D, A, d) for d in (1, 2)]
    return out


def test_inexact_names_record_fields():
    # a record is walked by field name, a tuple by position
    cert = stability.Certificate(
        Divisor([1, Fraction(1, 2)]), (0.5, 1), 3, Fraction(-1), -1.0, True
    )
    assert inexact((stability.AlphaBeta(Fraction(1), 0.25), cert), "r") == [
        "r[0].beta = 0.25 (float)",
        "r[1].shift[0] = 0.5 (float)",
        "r[1].ambient_slope = -1.0 (float)",
    ]


def test_toric_corpus(surfaces, recorder):
    reports = []
    for name, X in surfaces.items():
        D = ample_on(name, X)
        if name in ("p2", "f0"):
            A = D + X.generator(0)
        else:
            driver = stability.analyze(X, D)
            reports.append(driver)
            A = driver.certificate.polarization
            assert holds(X, D, driver), name
        assert X.is_ample(A), name
        # the public alpha_beta, which no driver calls: construct_polarization
        # reads its alphas off v(D) and v(E)
        stability.alpha_beta(X, D, X.generator(0), A)
        if X.fan.surface_type().ell:
            # nor to_section_fiber: the F_ell driver reads b1, b2 off v(D)
            X.to_section_fiber(D)
        reports += analyses(X, D, A)
    check(recorder, reports)
    for _, name in RECORDED:
        if name != "chi":  # toric h0 is a lattice count, never chi
            assert recorder[name], f"{name} was never called"


@pytest.mark.parametrize("name", sorted(ABSTRACT))
def test_abstract_surfaces(name, recorder):
    data = ABSTRACT[name]
    X = AbstractSurface(
        data["labels"],
        data["pairing"],
        data["canonical"],
        data["effective_generators"],
    )
    D = Divisor([2, 2, 3])
    reports = [stability.analyze(X, D)]
    assert holds(X, D, reports[0])
    if name == "bl2p2":
        reports += analyses(X, D, reports[0].certificate.polarization)
    check(recorder, reports)
    for key in (
        "pair",
        "pair_curves",
        "chi",
        "construct_polarization",
        "syzygy_slope",
        "d_threshold",
    ):
        assert recorder[key], f"{key} was never called"


def test_hirzebruch_region_rows(surfaces, recorder):
    """The rows of ``sweep``, point by point and from its row core
    ``_region_rows``: region verdict, alpha/beta and, in the instability
    region, the threshold."""
    rows, swept = 0, []
    for ell in (1, 2, 3):
        X = surfaces[f"f{ell}"]
        _, s_idx, _ = X.hirzebruch_presentation()
        S = X.generator(s_idx)
        grid = [ell + Fraction(k, 3) for k in range(1, 10)]
        for a in grid:
            for b in grid:
                verdict = stability.hirzebruch_region(ell, a, b)
                D = X.from_section_fiber(b.denominator, b.numerator)
                A = X.from_section_fiber(a.denominator, a.numerator)
                stability.alpha_beta(X, D, S, A)
                if verdict == stability.UNSTABLE_FOR_LARGE_D:
                    stability.d_threshold(X, D, S, A)
                    rows += 1
        nums = range(3 * ell + 1, 3 * ell + 10)  # the grid's numerators over 3
        swept += list(stability._region_rows(ell, nums, nums, 3))
    assert rows
    assert sum(row[5] is not None for row in swept) == rows
    check(recorder, swept)
