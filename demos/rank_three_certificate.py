#!/usr/bin/env python3
"""Destabilize the anticanonical powers on the plane blown up in two
points, twice: once from its fan and once from an abstract intersection
matrix on the three (-1)-curves.  The two routes must agree.

Run:  python demos/rank_three_certificate.py
"""

from syzstab import (
    AbstractSurface,
    Fan,
    ToricSurface,
    analyze,
    construct_polarization,
)

fan = Fan([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)])
X = ToricSurface(fan)
D = -1 * X.canonical

print("toric route:", fan.surface_type())
pol = construct_polarization(X, D)
print(
    f"  boundary generator index {pol.generator_index}, "
    f"nef threshold {pol.threshold}, epsilon {pol.epsilon}, "
    f"alpha {pol.alpha}"
)
report = analyze(X, D)
cert = report.certificate
print(f"  verdict {report.verdict} at d0 = {cert.d0}")
print(f"  polarization {list(cert.polarization.int_coeffs())}")
print(
    f"  slopes: subbundle {cert.subbundle_slope} vs "
    f"ambient {cert.ambient_slope}"
)
print()

# the same surface presented by the pairing of E1, E2 and the strict
# transform of the line through both centers
Y = AbstractSurface(
    labels=["E1", "E2", "L12"],
    pairing=[[-1, 0, 1], [0, -1, 1], [1, 1, -1]],
    canonical=[-2, -2, -3],
    effective_generators=[0, 1, 2],
)
ok, problems = Y.check_hypotheses()
print("abstract route: hypotheses pass:", ok, problems or "")
report2 = analyze(Y, -1 * Y.canonical)
cert2 = report2.certificate
print(f"  verdict {report2.verdict} at d0 = {cert2.d0}")
print(
    f"  slopes: subbundle {cert2.subbundle_slope} vs "
    f"ambient {cert2.ambient_slope}"
)
for note in report2.assumptions:
    print("  note:", note)

assert (cert.subbundle_slope, cert.ambient_slope) == (
    cert2.subbundle_slope,
    cert2.ambient_slope,
)
print()
print("both presentations certify the same slope violation.")
