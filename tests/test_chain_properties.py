"""Random blow-up chains against the benchmark's independent checker.

Every smooth complete toric surface is a chain of toric blow-ups of the
plane or of a Hirzebruch surface, so Hypothesis draws seeded chains of 5
to 12 rays (``conftest.blowup_chain_divisors``) with an ample D of mixed
coefficient sizes: the chain's doubled ample divisor plus a drawn
multiple of its nef pullback.  The driver also runs on chains of 100, 200
and 300 rays, with that multiple drawn up to 10^30, under a time bound
per run.  ``bench/check.py`` is the oracle; it shares no code with the
package and is loaded from its file, read-only.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from syzstab import (
    Divisor,
    ToricSurface,
    certificate_holds,
    construct_polarization,
    find_destabilizer,
    reduce_to_minimal,
)
from syzstab.cli import main
from syzstab.fan import HIRZEBRUCH, PROJECTIVE_PLANE

from conftest import blowup_chain_divisors

_CHECK = pathlib.Path(__file__).resolve().parents[1] / "bench" / "check.py"
_spec = importlib.util.spec_from_file_location("bench_check", _CHECK)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

chains = st.builds(
    lambda seed, size, m: (*blowup_chain_divisors(seed, size), m),
    st.integers(0, 10**6),
    st.integers(5, 12),
    st.integers(0, 20),
)

# a deadline per drawn chain; the whole module stays under 5 s
CHAIN_SETTINGS = settings(max_examples=100, deadline=1000)


def drawn(fan, pulled, ample, m):
    """(X, the checker's surface, D = ample + m * pullback)."""
    X = ToricSurface(fan)
    C = check.Surface(fan.rays)
    assert C.rays == X.fan.rays  # one ray order, so one coefficient order
    return X, C, ample + m * pulled


@CHAIN_SETTINGS
@given(chains, st.data())
def test_pairing_and_nefness_agree(chain, data):
    X, C, D = drawn(*chain)
    small = st.lists(st.integers(-3, 3), min_size=X.n, max_size=X.n)
    E = Divisor(data.draw(small))
    for F in (D, E, X.canonical):
        assert X.intersections(F) == [C.dot_curve(F.coeffs, i) for i in range(X.n)]
        assert X.pair(F, E) == C.pair(F.coeffs, E.coeffs)
        assert X.is_nef(F) == C.is_nef(F.coeffs)
        assert X.is_ample(F) == C.is_ample(F.coeffs)


@CHAIN_SETTINGS
@given(chains, st.data())
def test_h0_agrees(chain, data):
    """h0 of d*D - k*C_i, nef for small k and not nef once k exceeds
    d*D.C for a neighbour C of C_i."""
    X, C, D = drawn(*chain)
    d = data.draw(st.integers(1, 2))
    i = data.draw(st.integers(0, X.n - 1))
    v = X.intersections(d * D)
    past = max(v[i - 1], v[(i + 1) % X.n]) + 3
    k = data.draw(st.integers(0, past))
    F = d * D - k * X.generator(i)
    event("nef" if X.is_nef(F) else "not nef")
    assert X.h0(F) == C.h0(F.coeffs, D.coeffs), (d, i, k)


@CHAIN_SETTINGS
@given(chains, st.integers(1, 2))
def test_fixed_exponent_slopes_agree(chain, d):
    """find_destabilizer's slopes at d, against the construction's A,
    from the checker's h0 of d*D and of d*D - S; with none found, every
    nef candidate with two sections has a smaller slope by that count."""
    X, C, D = drawn(*chain)
    A = construct_polarization(X, D).polarization_integral.coeffs
    found = find_destabilizer(X, D, Divisor(A), d)
    event("strict" if found and found.strict else "tie" if found else "none")

    def slope(F):
        return Fraction(-C.pair(F, A), C.h0(F, D.coeffs) - 1)

    ambient = (d * D).coeffs
    if found is not None:
        sub = (d * D - found.shift).coeffs
        assert C.is_nef(sub)
        assert (found.subbundle_slope, found.ambient_slope) == (
            slope(sub), slope(ambient),
        )
        return
    for S in check._small_shifts(X.n):
        sub = tuple(a - s for a, s in zip(ambient, S))
        if C.is_nef(sub) and C.h0(sub, D.coeffs) > 1:
            assert slope(sub) < slope(ambient), S


@CHAIN_SETTINGS
@given(chains)
def test_reduction_ends_minimal(chain):
    fan = chain[0]
    reduced, removed = reduce_to_minimal(fan)
    assert reduced.surface_type().kind in (PROJECTIVE_PLANE, HIRZEBRUCH)
    assert reduced.n == fan.n - len(removed) in (3, 4)


@CHAIN_SETTINGS
@given(chains)
def test_polarization_threshold_at_least_d_dot_e(chain):
    """t >= D.E for the generator E the construction picks (ROADMAP item
    6): the bound that keeps its epsilon interval non-empty."""
    X, _, D = drawn(*chain)
    pol = construct_polarization(X, D)
    assert pol.threshold >= X.pair(D, pol.generator)


def check_driver(X, C, D):
    """Run ``analyze --fan F --D D --json`` through main, check its report
    with the checker and ``certificate_holds``, and return the seconds that
    main took."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fan.json"
        path.write_text(json.dumps({"rays": [list(r) for r in X.fan.rays]}))
        argv = ["analyze", "--fan", str(path), "--json"]
        argv += ["--D", ",".join(map(str, D.coeffs))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            assert main(argv) == 0
            seconds = time.perf_counter() - start
    report = json.loads(out.getvalue())
    check.check_report("driver", report, C, D.coeffs)
    cert = report["certificate"]
    A, S = Divisor(cert["A"]), Divisor(cert["S"])
    assert certificate_holds(X, D, report["verdict"], A, S, cert["d0"])
    return seconds


@CHAIN_SETTINGS
@given(chains)
def test_driver_report_checks(chain):
    check_driver(*drawn(*chain))


# each driver run on a chain of up to 300 rays, asserted on its own: it
# took 1.1-3.3 ms in-process on a shared 2-core Xeon, and the checker 1.0-2.8 ms
DRIVER_BOUND_S = 0.25


@pytest.mark.parametrize("size", [100, 200, 300])
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**30))
def test_large_chain_driver_in_time(size, seed, m):
    """The driver's report on a chain of hundreds of rays, where D's
    pullback multiple m, up to 10^30, mixes small and large coefficient
    sizes with the doubled ample divisor's, checks and takes under
    DRIVER_BOUND_S."""
    seconds = check_driver(*drawn(*blowup_chain_divisors(seed, size), m))
    assert seconds < DRIVER_BOUND_S, (size, seed, m, seconds)
