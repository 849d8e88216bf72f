"""Every smooth complete toric surface of up to 10 rays that blow-ups of
P2 and of F_0..F_3 reach, through the driver and the polarization,
against the benchmark's independent checker.

A smooth complete toric surface is the plane or a blow-up of a
Hirzebruch surface, and its fan is fixed up to GL2(Z) by its cycle of
self-intersections, so ``conftest.every_smooth_surface`` lists those
1,224 cycles of 3 to 10 rays.  (Each size from 4 rays on has infinitely
many surfaces, F_a for every a; the starts bound the list.)
``bench/check.py`` shares no code with the package and is loaded from
its file, read-only.
"""

import importlib.util
import pathlib
import time
from collections import Counter

import pytest

from syzstab import (
    OutOfTheoremScopeError,
    analyze,
    certificate_holds,
    construct_polarization,
)
from syzstab.cli import _polarization_jsonable, _report_jsonable
from syzstab.files import divisor_to_jsonable, surface_to_jsonable

from conftest import every_smooth_surface, rays_of_cycle

_CHECK = pathlib.Path(__file__).resolve().parents[1] / "bench" / "check.py"
_spec = importlib.util.spec_from_file_location("bench_check", _CHECK)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

# the enumeration and both checks took 0.9 s on one Xeon core
BOUND_SECONDS = 10.0


def test_every_surface_up_to_10_rays():
    start = time.perf_counter()
    surfaces = every_smooth_surface(10)
    sizes = Counter(X.n for _, X, _ in surfaces)
    assert [sizes[n] for n in range(3, 11)] == [1, 4, 4, 12, 27, 85, 254, 837]
    out_of_scope = []
    for cycle, X, D in surfaces:
        # one ray order, so one coefficient order for D
        assert X.fan.rays == tuple(rays_of_cycle(cycle)), cycle
        C = check.Surface(X.fan.rays)
        coeffs = D.int_coeffs()
        assert C.is_ample(coeffs), cycle
        if cycle in ((1, 1, 1), (0, 0, 0, 0)):  # the plane and the quadric
            with pytest.raises(OutOfTheoremScopeError):
                analyze(X, D)
            out_of_scope.append(cycle)
            continue
        report = analyze(X, D)
        # the reports as the CLI writes them, read by the checker
        echo = {**surface_to_jsonable(X), "D": divisor_to_jsonable(D)}
        check.check_report("driver", _report_jsonable(report, echo), C, coeffs)
        c = report.certificate
        assert certificate_holds(
            X, D, report.verdict, c.polarization, c.shift, c.d0
        ), cycle
        if X.picard_rank >= 3:
            pol = construct_polarization(X, D)
            check.check_polarize(_polarization_jsonable(X, D, pol), C, coeffs)
            assert pol.threshold >= X.pair(D, pol.generator), cycle
    assert out_of_scope == [(1, 1, 1), (0, 0, 0, 0)]
    elapsed = time.perf_counter() - start
    assert elapsed < BOUND_SECONDS, f"{elapsed:.2f}s exceeds {BOUND_SECONDS}s"
