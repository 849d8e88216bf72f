"""Section counts of d*D - S read off d*D's moved cone corners.

``ToricSurface.shifted_h0(D)`` counts h0(D - S) for every shift S = C_i
(+ C_j) that leaves D - S nef, and gives None for every other, without
building D - S or its polygon: the corners of D's section polygon are
linear in D's coefficients, so each curve of S moves two of them, and
only the walls S touches can turn negative.
``ToricSurface.multiple_h0(D, S)`` counts h0(d*D - k*S) over the
corners d*m(D) - k*m(S), the counts ``d_threshold`` makes.  The oracles
are ``X.h0`` of the built divisor and a bounding-box scan of its polygon,
and the scan that uses the count, ``find_destabilizer``, must agree with
its per-divisor form.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from syzstab import (
    AbstractSurface,
    DimensionMismatchError,
    Divisor,
    NonIntegralDivisorError,
    ToricSurface,
    find_destabilizer,
    scan_candidates,
)

from conftest import (
    BL2P2_ABSTRACT,
    blowup_chain_divisors,
    lattice_points,
    section_polygon,
)
from test_linear_candidates import (
    ample_divisors,
    outcome,
    polarizations,
    ref_find_destabilizer,
    summary,
)


def combos(X):
    for r in (1, 2):
        yield from combinations_with_replacement(X.effective_generators, r)


def check_counts(X, D, d):
    """Asserts the count of every nef d*D - S against both oracles, and
    None for every other, and returns how many candidates were nef."""
    ambient = d * D
    count = X.shifted_h0(ambient)
    nef = 0
    for combo in combos(X):
        S = sum((X.generator(i) for i in combo[1:]), X.generator(combo[0]))
        assert X.shift(combo) == S
        sub = ambient - S
        if not X.is_nef(sub):
            assert count(combo) is None, (X.fan.rays, D, d, combo)
            continue
        nef += 1
        points = lattice_points(section_polygon(X, sub))
        assert count(combo) == X.h0(sub) == len(points), (
            X.fan.rays, D, d, combo,
        )
    return nef


def corpus_cases(surfaces):
    """(X, D, Ds) for three ample D with coefficients up to 3 on each
    corpus fan, Ds being all three."""
    cases = []
    for X in surfaces.values():
        Ds = ample_divisors(X, 3, 3)
        cases += [(X, D, Ds) for D in Ds]
    return cases


def chain_cases():
    """(X, ample, pullback) for seeded chains of 5 to 7 rays."""
    cases = []
    for seed in range(8):
        fan, pulled, ample = blowup_chain_divisors(seed, 5 + seed % 3)
        cases.append((ToricSurface(fan), ample, pulled))
    return cases


def exponents(X, D, A, small):
    """The small exponents, and d0 of the asymptotic scan's certificate
    where it has one, so that strict violators and ties turn up."""
    kind, found, _ = outcome(scan_candidates, X, D, A)
    return list(small) + ([found.d0] if kind == "returned" and found else [])


def agrees(X, D, A, d):
    """The outcome label of find_destabilizer, after asserting that it
    equals its per-divisor form's."""
    got = outcome(find_destabilizer, X, D, A, d)
    assert got == outcome(ref_find_destabilizer, X, D, A, d), (X, D, A, d)
    return summary(got)


class TestCornerMoves:
    def test_corpus(self, surfaces):
        nef = sum(
            check_counts(X, D, d)
            for X, D, _ in corpus_cases(surfaces)
            for d in (1, 2, 3)
        )
        assert nef > 1000

    def test_blowup_chains(self):
        nef = sum(
            check_counts(X, D, d) for X, D, _ in chain_cases() for d in (1, 2)
        )
        assert nef > 300

    def test_zero_and_one_section_shifts(self, p2):
        # H - C_0 is zero (one point), H - C_1 - C_2 is not nef
        count = p2.shifted_h0(Divisor([1, 0, 0]))
        assert count((0,)) == count((1,)) == 1
        assert count(()) == 3
        assert count((1, 2)) is None

    def test_abstract_surface_counts_chi(self):
        X = AbstractSurface(**BL2P2_ABSTRACT)
        nef = []
        for D, d in product(ample_divisors(X, 4, 4), (1, 2)):
            count = X.shifted_h0(d * D)
            for combo in combos(X):
                E = d * D - X.shift(combo)
                nef.append(X.is_nef(E))
                assert count(combo) == (X.chi(E) if nef[-1] else None)
        assert any(nef) and not all(nef)

    def test_rejects_bad_divisors(self, f1):
        with pytest.raises(DimensionMismatchError):
            f1.shifted_h0(Divisor([1, 1, 1]))
        with pytest.raises(NonIntegralDivisorError):
            f1.shifted_h0(Divisor([1, 1, 1, Fraction(1, 2)]))


def check_multiples(X, D, S):
    """Asserts multiple_h0(D, S) at k = 0 and 1 against both oracles, for
    d from the first nef multiple of D against S to three past it."""
    count = X.multiple_h0(D, S)
    d_nef = 1
    while not X.is_nef(d_nef * D - S):
        d_nef += 1
    for d in range(d_nef, d_nef + 4):
        for k in (0, 1):
            E = d * D - k * S
            points = lattice_points(section_polygon(X, E))
            assert count(d, k) == X.h0(E) == len(points), (
                X.fan.rays, D, S, d, k,
            )
    return d_nef


class TestMultipleCounts:
    def test_corpus(self, surfaces):
        d_nefs = [
            check_multiples(X, D, X.shift(combo))
            for X, D, _ in corpus_cases(surfaces)
            for combo in combos(X)
        ]
        assert len(d_nefs) > 500 and max(d_nefs) > 1

    def test_blowup_chains(self):
        # single curves: the chains' divisors are large, and pairs of
        # curves are checked on the corpus
        d_nefs = [
            check_multiples(X, D, X.generator(i))
            for X, D, _ in chain_cases()
            for i in range(X.n)
        ]
        assert len(d_nefs) == 47

    def test_abstract_surface_counts_chi(self):
        X = AbstractSurface(**BL2P2_ABSTRACT)
        for D in ample_divisors(X, 4, 4):
            for combo in combos(X):
                S = X.shift(combo)
                count = X.multiple_h0(D, S)
                for d, k in product((1, 2, 3), (0, 1)):
                    assert count(d, k) == X.chi(d * D - k * S)

    def test_rejects_bad_divisors(self, f1):
        S = f1.generator(1)
        with pytest.raises(DimensionMismatchError):
            f1.multiple_h0(Divisor([1, 1, 1]), S)
        with pytest.raises(DimensionMismatchError):
            f1.multiple_h0(Divisor([1, 1, 1, 1]), Divisor([1, 0, 0]))
        with pytest.raises(NonIntegralDivisorError):
            f1.multiple_h0(Divisor([1, 1, 1, Fraction(1, 2)]), S)


class TestFindDestabilizerAgrees:
    def test_corpus(self, surfaces):
        seen = set()
        for X, D, Ds in corpus_cases(surfaces):
            for A in polarizations(X, D, Ds):
                for d in exponents(X, D, A, (1, 2, 3)):
                    seen.add(agrees(X, D, A, d))
        assert seen == {"None", "strict", "tie"}

    def test_blowup_chains(self):
        seen = set()
        for X, D, pulled in chain_cases():
            for A in polarizations(X, D, [D, D + pulled]):
                for d in exponents(X, D, A, (1, 2)):
                    seen.add(agrees(X, D, A, d))
        assert seen == {"None", "strict"}
