"""The candidate scans against their per-divisor forms.

``find_destabilizer``, ``scan_candidates`` and ``d_threshold`` form each
divisor's intersection vector once and read every candidate's numbers
off those vectors by linearity.  The functions below, with
``ref_asymptotic`` from ``conftest.py``, are the forms they replaced:
each candidate S is paired, checked and counted from scratch, through
the public pairing alone.  Results must agree exactly, with the
same number types, and so must the error each raises when a
precondition fails.
"""

import importlib
import math
import pathlib
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from syzstab import (
    AbstractSurface,
    AlphaBeta,
    Certificate,
    DegenerateBundleError,
    Divisor,
    Fan,
    InternalError,
    NotAmpleError,
    NotEffectiveError,
    NotNefError,
    PreconditionError,
    StabilityReport,
    SyzstabError,
    ToricSurface,
    alpha_beta,
    analyze,
    construct_polarization,
    d_threshold,
    find_destabilizer,
    scan_candidates,
    slope_compare,
    syzygy_slope,
    stability,
)
from syzstab.stability import _PROMISED_ORDER, _VERDICT, _order

from conftest import (
    BL2P2_ABSTRACT,
    STABLE_POSSIBLE,
    ample_on,
    blowup_chain_divisors,
    ref_asymptotic,
    report_of,
)

SCAN_NOTE = "every scanned candidate shift admits stability asymptotically"


# -- the per-divisor forms ----------------------------------------------------


def ref_slope(X, D, A):
    if not X.is_ample(A):
        raise NotAmpleError("polarization is not ample")
    if not X.is_nef(D):
        raise NotNefError("divisor defining the bundle is not nef")
    h = X.h0(D)
    if h <= 1:
        raise DegenerateBundleError(f"h0 = {h} <= 1: no syzygy bundle slope")
    return Fraction(-X.pair(D, A), h - 1)


def ref_slopes(X, D, S, A, d):
    ambient = d * D
    if isinstance(X, ToricSurface) and not X.is_effective(S):
        raise NotEffectiveError("candidate S is not effective")
    mu_ambient = ref_slope(X, ambient, A)
    return ref_slope(X, ambient - S, A), mu_ambient


def ref_shifts(X):
    for r in (1, 2):
        for combo in combinations_with_replacement(X.effective_generators, r):
            coeffs = [0] * X.n
            for i in combo:
                coeffs[i] += 1
            yield Divisor(coeffs)


def ref_find_destabilizer(X, D, A, d):
    ambient = d * D
    if not X.is_ample(ambient):
        raise NotAmpleError("d*D is not ample")
    mu_ambient = ref_slope(X, ambient, A)
    tie = None
    for S in ref_shifts(X):
        sub = ambient - S
        if sub.is_zero or not X.is_nef(sub):
            continue
        try:
            mu_sub = ref_slope(X, sub, A)
        except DegenerateBundleError:
            continue
        if mu_sub > mu_ambient:
            return Certificate(A, S, d, mu_sub, mu_ambient, True)
        if mu_sub == mu_ambient and tie is None:
            tie = Certificate(A, S, d, mu_sub, mu_ambient, False)
    return tie


def ref_d_threshold(X, D, S, A):
    kind, ab = ref_asymptotic(X, D, S, A)
    if kind == STABLE_POSSIBLE:
        raise PreconditionError(
            "asymptotic condition is StablePossible: no threshold exists "
            "for this candidate"
        )
    d_nef = 1
    for i in X.effective_generators:
        C = X.generator(i)
        d_nef = max(d_nef, math.ceil(Fraction(X.pair(S, C), X.pair(D, C))))
    strict = True
    if ab.alpha < 0:
        root = -ab.beta / ab.alpha
        d_sign = max(1, root.numerator // root.denominator + 1)
    else:
        d_sign = 1
        strict = ab.beta < 0
    d0 = max(d_nef, d_sign)
    while (d0 * D - S).is_zero:
        d0 += 1
    check = d0 - 1
    if check >= d_nef and not (check * D - S).is_zero:
        mu_sub, mu_ambient = ref_slopes(X, D, S, A, check)
        if mu_sub > mu_ambient:
            raise InternalError(
                f"threshold not minimal: violation already at d = {check}"
            )
    mu_sub, mu_ambient = ref_slopes(X, D, S, A, d0)
    order = _order(mu_sub, mu_ambient)
    expected = _PROMISED_ORDER[_VERDICT[strict]]
    if order != expected:
        raise InternalError(
            f"sign polynomial predicted {expected} slopes at d = {d0}, "
            f"exact comparison returned {order}"
        )
    return Certificate(A, S, d0, mu_sub, mu_ambient, strict)


def ref_scan_candidates(X, D, A):
    if not X.is_ample(D):
        raise NotAmpleError("divisor D is not ample")
    if not X.is_ample(A):
        raise NotAmpleError("polarization is not ample")
    for S in ref_shifts(X):
        if ref_asymptotic(X, D, S, A)[0] != STABLE_POSSIBLE:
            return ref_d_threshold(X, D, S, A)
    return None


def ref_scan_report(X, D, A):
    """The report of analyze(X, D, A), built on the per-divisor scan."""
    cert = ref_scan_candidates(X, D, A)
    return report_of(X, cert, () if cert else (SCAN_NOTE,))


# -- comparison ---------------------------------------------------------------


def outcome(fn, *args):
    """What fn(*args) returns, with its repr to pin int against Fraction,
    or the type and message of the error it raises."""
    try:
        result = fn(*args)
    except SyzstabError as exc:
        return "raised", type(exc), str(exc)
    return "returned", result, repr(result)


def summary(result):
    """A coarse label of an outcome, to show which branches a case set
    reached."""
    if result[0] == "raised":
        return result[1].__name__
    value = result[1]
    if value is None:
        return "None"
    if isinstance(value, StabilityReport):
        return value.verdict
    return "strict" if value.strict else "tie"


def compare(X, D, A, exponents=(1, 2, 3), thresholds=True):
    """Labels of the outcomes of the three scans on (X, D, A), and of the
    scan's report, after asserting that each equals its per-divisor form,
    and that each threshold's candidate has alpha_beta's coefficients."""
    seen = []
    pairs = [
        (scan_candidates, ref_scan_candidates, (X, D, A)),
        (analyze, ref_scan_report, (X, D, A)),
    ]
    pairs += [
        (find_destabilizer, ref_find_destabilizer, (X, D, A, d))
        for d in exponents
    ]
    if thresholds:
        pairs += [
            (d_threshold, ref_d_threshold, (X, D, S, A)) for S in ref_shifts(X)
        ]
    for fn, ref, args in pairs:
        got = outcome(fn, *args)
        assert got == outcome(ref, *args), (fn.__name__, args)
        if fn is d_threshold and got[0] == "returned":
            assert alpha_beta(*args) == ref_asymptotic(*args)[1], args
        seen.append((fn.__name__, summary(got)))
    return seen


def ample_divisors(X, top, count):
    """The first ``count`` ample divisors with coefficients in 1..top."""
    found = []
    for c in product(range(1, top + 1), repeat=X.n):
        if X.is_ample(Divisor(c)):
            found.append(Divisor(c))
            if len(found) == count:
                break
    return found


def polarizations(X, D, others):
    """The driver's A where there is one, else D plus a curve, and D plus
    the next divisor of ``others``."""
    try:
        A = analyze(X, D).certificate.polarization
    except SyzstabError:
        A = D + X.generator(0)
    nxt = others[(others.index(D) + 1) % len(others)] if D in others else others[0]
    return [A, D + nxt]


class TestAgainstPerDivisorScans:
    @pytest.mark.parametrize(
        "name",
        ["p2", "f0", "f1", "f2", "f3", "f4", "bl2p2", "dp6", "rank5", "rank6"],
    )
    def test_corpus(self, surfaces, name):
        X = surfaces[name]
        Ds = [ample_on(name, X)] + ample_divisors(X, 2, 5)
        seen = []
        for D in Ds:
            for A in polarizations(X, D, Ds):
                assert X.is_ample(A)
                seen += compare(X, D, A)
        labels = {label for _, label in seen}
        assert "PreconditionError" in labels
        # the plane and the quadric have no destabilizing shift of this shape
        assert ("strict" in labels) == (name not in ("p2", "f0")), labels

    def test_ties_and_fixed_exponents_past_threshold(self, f1):
        # 5S + 6F with A = -K: the slopes tie at d = 17 and part at 18
        D = f1.from_section_fiber(5, 6)
        A = f1.from_section_fiber(2, 3)
        seen = compare(f1, D, A, exponents=(1, 16, 17, 18, 19))
        assert ("find_destabilizer", "tie") in seen
        assert ("find_destabilizer", "strict") in seen
        assert ("find_destabilizer", "None") in seen

    def test_blowup_chains(self):
        seen = set()
        for seed in range(16):
            fan, pulled, D = blowup_chain_divisors(seed, 5 + seed % 8)
            X = ToricSurface(fan)
            A = analyze(X, D).certificate.polarization
            for pol in (A, D + pulled):
                seen.update(compare(X, D, pol, exponents=(1, 2)))
        assert ("scan_candidates", "strict") in seen
        assert ("d_threshold", "PreconditionError") in seen
        assert ("d_threshold", "strict") in seen

    @pytest.mark.parametrize("name", ["bl2p2", "half"])
    def test_abstract_surfaces(self, name):
        data = dict(BL2P2_ABSTRACT)
        if name == "half":
            data["pairing"] = [[Fraction(-1, 2), 0, 1], [0, -1, 1], [1, 1, -1]]
        X = AbstractSurface(**data)
        Ds = ample_divisors(X, 4, 6)
        assert Ds
        seen = set()
        for D in Ds:
            for A in polarizations(X, D, Ds):
                seen.update(compare(X, D, A))
        assert ("scan_candidates", "strict") in seen
        assert ("d_threshold", "strict") in seen
        if name == "half":
            # a half-integral chi: the count itself is refused, on both sides
            assert any(label == "InputError" for _, label in seen), seen

    def test_rational_polarizations(self, surfaces):
        cases = [(surfaces[n], ample_on(n, surfaces[n])) for n in ("bl2p2", "dp6", "rank5", "rank6")]
        cases.append((AbstractSurface(**BL2P2_ABSTRACT), Divisor([2, 2, 3])))
        fractional = 0
        for X, D in cases:
            A = construct_polarization(X, D).polarization
            fractional += not A.is_integral
            compare(X, D, A, exponents=(1, 2))
        assert fractional


def per_candidate_cases(surfaces):
    """(X, D, A) whose scans run past their first candidates: every corpus
    fan with three ample D and two A each, and the abstract model."""
    cases = []
    for name, X in surfaces.items():
        Ds = ample_divisors(X, 3, 3)
        cases += [(X, D, A) for D in Ds for A in (Ds[0], Ds[-1])]
    Y = AbstractSurface(**BL2P2_ABSTRACT)
    Ds = ample_divisors(Y, 4, 3)
    cases += [(Y, D, A) for D in Ds for A in (Ds[0], Ds[-1])]
    return cases


# (pairing, canonical, D, A, S, d0) on abstract surfaces of three curves
# where no single curve is unstable and the scan's first hit is the pair
# S = 2*C of a curve C with alpha_C = 0: the scan's pair branch
PAIR_FIRST = [
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [-2, -3, 0], (6, 3, 6), (3, 4, 4), (0, 2, 0), 1),
    ([[1, 2, 0], [2, 1, 0], [0, 0, 1]], [0, -1, -3], (2, 1, 1), (5, 2, 5), (0, 0, 2), 2),
]


# (rays, D, A) on the plane blown up in two points where no single curve
# is unstable and Z = {i : alpha_i = 0} = {0, 2} holds two curves that do
# not meet, so the scan skips the pair (0, 2); the first case a search
# over every surface of up to 7 rays found, D and A with coefficients in
# 1..4 (no case of scan_cases had such a pair)
DISJOINT_IN_Z = (
    [(1, 0), (0, 1), (-1, 1), (-1, 0), (1, -1)], (1, 1, 2, 2, 1), (1, 1, 1, 4, 4)
)


def pair_first_cases():
    for pairing, canonical, D, A, S, d0 in PAIR_FIRST:
        X = AbstractSurface(["a", "b", "c"], pairing, canonical, [0, 1, 2])
        yield X, Divisor(D), Divisor(A), Divisor(S), d0


def scan_cases(surfaces):
    """(X, D, A) for the scan's per-candidate records: those of
    ``per_candidate_cases``, seeded chains of 5 to 28 rays, where every
    single curve is scanned, the cases whose first hit is a pair and
    ``DISJOINT_IN_Z``."""
    cases = per_candidate_cases(surfaces)
    for seed in range(24):
        fan, pulled, D = blowup_chain_divisors(seed, 5 + seed % 40)
        X = ToricSurface(fan)
        cases += [(X, D, D + pulled), (X, D, D + 3 * pulled)]
    rays, D, A = DISJOINT_IN_Z
    cases.append((ToricSurface(Fan(rays)), Divisor(D), Divisor(A)))
    return cases + [case[:3] for case in pair_first_cases()]


def spy(monkeypatch, name):
    """Record what the stability helper ``name`` returns."""
    real = getattr(stability, name)
    seen = []

    def wrapper(*args):
        result = real(*args)
        seen.append(result)
        return result

    monkeypatch.setattr(stability, name, wrapper)
    return seen


class TestPerCandidateNumbers:
    """Each candidate's own numbers, not only the first hit: most of them
    decide nothing, so a wrong sum can hide behind the verdicts."""

    def test_scan_alpha_beta(self, surfaces, monkeypatch):
        # every single curve up to the first hit, then, when none hits,
        # exactly the pairs inside Z = {i : alpha_i = 0} whose curves meet,
        # in scan order: as alpha is linear in S, a pair outside Z cannot
        # be unstable, and a pair of Z whose curves do not meet has
        # alpha = 0 and beta = beta_i + beta_j > 0, checked here
        recorded = spy(monkeypatch, "_alpha_beta")
        scanned = pairs = disjoint = 0
        for X, D, A in scan_cases(surfaces):
            recorded.clear()
            found = scan_candidates(X, D, A)
            expected, zero = [], {}
            for i in X.effective_generators:
                kind, ab = ref_asymptotic(X, D, X.generator(i), A)
                expected.append(ab)
                if kind != STABLE_POSSIBLE:
                    break
                if ab.alpha == 0:
                    zero[i] = ab
            else:
                for i, j in combinations_with_replacement(zero, 2):
                    S = X.generator(i) + X.generator(j)
                    kind, ab = ref_asymptotic(X, D, S, A)
                    if X.pair(X.generator(i), X.generator(j)) == 0:
                        assert ab.alpha == 0, (X, D, A, i, j)
                        assert ab.beta == zero[i].beta + zero[j].beta > 0
                        disjoint += 1
                        continue
                    expected.append(ab)
                    pairs += 1
                    if kind != STABLE_POSSIBLE:
                        break
            # and no more: the threshold core takes the hit's own numbers
            assert recorded == expected, (X, D, A)
            scanned += len(expected)
        assert scanned > 1000 and pairs > 0 and disjoint > 0, (
            scanned, pairs, disjoint
        )

    def test_scan_first_hit_a_pair(self, monkeypatch):
        # every curve is scanned and none is unstable, so the scan reaches
        # its pairs: records of the three curves and at least one pair, the
        # last the hit's, whose numbers the threshold takes with no record
        # of its own; each mode agrees with its per-divisor form
        recorded = spy(monkeypatch, "_alpha_beta")
        for X, D, A, S, d0 in pair_first_cases():
            recorded.clear()
            found = scan_candidates(X, D, A)
            assert (found.shift, found.d0, found.strict) == (S, d0, True)
            assert len(recorded) >= 3 + 1, recorded
            assert recorded[-1] == ref_asymptotic(X, D, S, A)[1], recorded
            compare(X, D, A)
        X, D, A, _, _ = next(pair_first_cases())
        found = scan_candidates(X, D, A)
        assert (found.subbundle_slope, found.ambient_slope) == (
            Fraction(-23, 22), Fraction(-18, 17)
        )

    def test_scan_hit_is_its_shifts_threshold(self, surfaces):
        # the scan hands its hit's numbers to the threshold core: the
        # certificate must be d_threshold's on that shift, formed from
        # scratch; the last case, b = 3/2 and a = 5/2 on F_1, is a tie
        f1 = surfaces["f1"]
        tie = (f1, f1.from_section_fiber(2, 3), f1.from_section_fiber(2, 5))
        hits = set()
        for X, D, A in scan_cases(surfaces) + [tie]:
            found = scan_candidates(X, D, A)
            if found is not None:
                assert found == d_threshold(X, D, found.shift, A), (X, D, A)
                hits.add((sum(found.shift.coeffs), found.strict))
        assert hits == {(1, True), (2, True), (1, False)}, hits

    def test_fixed_exponent_slopes(self, surfaces, monkeypatch):
        # each nef candidate's (d*D - S).A and section count, with the
        # ambient slope they are weighed against: the single curves, then
        # the pairs whose curves meet or that have a single which is no
        # candidate, in scan order.  Every other pair that is a candidate
        # must have its singles' count changes and slope gaps summed, on
        # the lattice counts: the identity the search skips them by
        real = stability._slope_gap
        recorded = []

        def gap(*args):
            recorded.append(args)
            return real(*args)

        monkeypatch.setattr(stability, "_slope_gap", gap)
        counted = summed = 0
        for X, D, A in per_candidate_cases(surfaces):
            gens = X.effective_generators
            for d in (1, 2):
                recorded.clear()
                found = find_destabilizer(X, D, A, d)
                ambient = d * D
                mu = ref_slope(X, ambient, A)
                h_ambient = X.h0(ambient)

                def numbers(S):
                    sub = ambient - S
                    if not X.is_nef(sub) or X.h0(sub) <= 1:
                        return None
                    return X.pair(sub, A), X.h0(sub), mu

                single = {i: numbers(X.generator(i)) for i in gens}
                pairs = {}
                for i, j in combinations_with_replacement(gens, 2):
                    got = numbers(X.generator(i) + X.generator(j))
                    C_i, C_j = X.generator(i), X.generator(j)
                    if X.pair(C_i, C_j) or None in (single[i], single[j]):
                        pairs[i, j] = got
                    elif got is not None:
                        (_, h_i, _), (_, h_j, _) = single[i], single[j]
                        assert got[1] - h_ambient == h_i + h_j - 2 * h_ambient
                        assert real(*got) == real(*single[i]) + real(*single[j])
                        summed += 1
                expected = []
                for got in [single[i] for i in gens] + list(pairs.values()):
                    if got is not None:
                        expected.append(got)
                        if real(*got) > 0:
                            break
                assert recorded == expected, (X, D, A, d)
                assert found is None or found.ambient_slope == mu
                counted += len(expected)
        assert counted > 1000 and summed > 0, (counted, summed)

    def test_first_violator_a_pair(self, surfaces):
        # no single curve destabilizes here; C0 + C1 does
        X = surfaces["rank5"]
        D, A = Divisor([2, 1, 2, 4, 3, 3, 4]), Divisor([2, 2, 1, 3, 4, 3, 4])
        found = find_destabilizer(X, D, A, 1)
        assert found.strict and sum(found.shift.coeffs) == 2
        assert outcome(find_destabilizer, X, D, A, 1) == outcome(
            ref_find_destabilizer, X, D, A, 1
        )

    def test_threshold_refuses_a_late_d0(self, f1, monkeypatch):
        # with beta raised, the root of q moves past the true threshold of
        # 5S + 6F (d0 = 18), and the exact check at d0 - 1 must catch it
        D, S, A = f1.from_section_fiber(5, 6), f1.generator(1), f1.from_section_fiber(2, 3)
        assert d_threshold(f1, D, S, A).d0 == 18
        real = stability._coefficients

        def late(*args):
            ab, sv, DA, SA = real(*args)
            return AlphaBeta(ab.alpha, ab.beta - 5 * ab.alpha), sv, DA, SA

        monkeypatch.setattr(stability, "_coefficients", late)
        with pytest.raises(InternalError, match="not minimal"):
            d_threshold(f1, D, S, A)


# (pairing, canonical, D, A, d, S) on an abstract surface where C_0 and C_1
# do not meet, d*D - C_0 is not nef and the pair C_0 + C_1 is the first
# strict violator: it is tried only because its single C_0 is unsettled.
# Seed 166335 of a search over pairings of three curves with C_0.C_1 = 0
# and C_1.C_2 < 0 drew it (C_1.C_2 < 0 lets C_1 lift the wall C_2 that
# C_0 breaks, which no curve does on a toric surface)
UNSETTLED_PAIR = (
    [[-2, 0, 3], [0, 3, -1], [3, -1, 1]], [-4, -3, -2], (1, 3, 2), (1, 5, 4), 1, (1, 1, 0)
)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def bench_chain(monkeypatch, size):
    """``bench/workloads.blowup_chain(Random(size), size)``, the chain of the
    benchmark and of the ROADMAP's timings, as (X, D, A)."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    C, D, A = workloads.blowup_chain(random.Random(size), size)
    return ToricSurface(Fan(C.rays)), Divisor(D), Divisor(A)


class TestCandidateEnumerator:
    """The pairs that ``_candidates`` leaves out of the fixed search, on the
    cases where the rule matters: an unsettled single, and long chains."""

    def test_pair_tried_for_an_unsettled_single(self):
        pairing, canonical, D, A, d, S = UNSETTLED_PAIR
        X = AbstractSurface(["a", "b", "c"], pairing, canonical, [0, 1, 2])
        D, A, S = Divisor(D), Divisor(A), Divisor(S)
        count = X.shifted_h0(d * D)
        assert X.pair_curves(0, 1) == 0 and count((0,)) is None
        assert count((1,)) > 1 and count((0, 1)) > 1
        found = find_destabilizer(X, D, A, d)
        assert (found.shift, found.strict) == (S, True)
        assert (found.subbundle_slope, found.ambient_slope) == (
            Fraction(-13, 11), Fraction(-47, 35)
        )
        compare(X, D, A)

    def test_48_ray_chain(self, monkeypatch):
        # the chain's own A finds nothing, so every pair is weighed; the
        # driver's A finds a single curve at d = 2
        X, D, A = bench_chain(monkeypatch, 48)
        driver = analyze(X, D).certificate.polarization
        seen = []
        for pol, d in ((A, 1), (A, 2), (D + A, 1), (driver, 1), (driver, 2)):
            got = outcome(find_destabilizer, X, D, pol, d)
            assert got == outcome(ref_find_destabilizer, X, D, pol, d), (pol, d)
            seen.append(summary(got))
        assert seen == ["None", "None", "None", "None", "strict"]

    def test_256_ray_chain_in_time(self, monkeypatch):
        # every candidate is counted at d = 1 and none is found; about
        # 0.2 s on one core of a shared 2-core Xeon, where the pairwise
        # search over all 32,896 pairs took 6 to 8.5 s
        X, D, A = bench_chain(monkeypatch, 256)
        start = time.perf_counter()
        found = find_destabilizer(X, D, A, 1)
        elapsed = time.perf_counter() - start
        assert found is None
        assert elapsed < 3.0, f"{elapsed:.2f}s exceeds 3s"


# -- which error comes first --------------------------------------------------

# The abstract plane blown up in two points with K replaced by -K: the
# ample D = (2, 2, 3) then has D^2 = D.K = 7, so chi(D) = h0(D) = 1.
ONE_SECTION = {**BL2P2_ABSTRACT, "canonical": [2, 2, 3]}


class TestErrorOrder:
    """The error each entry point raises when several preconditions fail
    at once, pinned, and the same as its per-divisor form's."""

    @pytest.fixture(scope="class")
    def data(self, surfaces):
        X = surfaces["f1"]
        return {
            "X": X,
            "D": X.from_section_fiber(1, 2),  # ample
            "bad": Divisor([1, 0, 0, 0]),  # nef, not ample
            "neg": Divisor([-1, 0, 0, 0]),  # h0 = 0: not effective
            "zero": Divisor([0, 0, 0, 0]),  # h0 = 1
            "Y": AbstractSurface(**ONE_SECTION),
        }

    def check(self, fn, ref, args, expected, words):
        got = outcome(fn, *args)
        assert got[:2] == ("raised", expected), got
        assert words in got[2], got
        assert got == outcome(ref, *args)

    def test_find_destabilizer_d_times_D_before_A(self, data):
        X, bad = data["X"], data["bad"]
        # d*D and A both not ample: d*D is named
        self.check(find_destabilizer, ref_find_destabilizer, (X, bad, bad, 2), NotAmpleError, "d*D")
        self.check(find_destabilizer, ref_find_destabilizer, (X, data["D"], bad, 2), NotAmpleError, "polarization")

    def test_find_destabilizer_A_before_count(self, data):
        Y = data["Y"]
        D = Divisor([2, 2, 3])
        assert Y.is_ample(D) and Y.h0(D) == 1
        # A not ample and h0(d*D) <= 1: A is named
        self.check(find_destabilizer, ref_find_destabilizer, (Y, D, Divisor([1, 0, 0]), 1), NotAmpleError, "polarization")
        self.check(find_destabilizer, ref_find_destabilizer, (Y, D, D, 1), DegenerateBundleError, "h0 = 1")

    def test_scan_D_before_A(self, data):
        X, bad = data["X"], data["bad"]
        self.check(scan_candidates, ref_scan_candidates, (X, bad, bad), NotAmpleError, "divisor D")
        self.check(scan_candidates, ref_scan_candidates, (X, data["D"], bad), NotAmpleError, "polarization")

    def test_threshold_D_then_A_then_S(self, data):
        X, D, bad, neg = data["X"], data["D"], data["bad"], data["neg"]
        args = [
            ((X, bad, neg, bad), NotAmpleError, "divisor D"),
            ((X, D, neg, bad), NotAmpleError, "polarization"),
            # S not effective and the candidate stable: S is named
            ((X, D, neg, D), NotEffectiveError, "not effective"),
        ]
        for a, expected, words in args:
            self.check(d_threshold, ref_d_threshold, a, expected, words)

    def test_slopes_A_before_nef_before_count(self, data):
        X, D, bad, zero = data["X"], data["D"], data["bad"], data["zero"]
        S = 3 * X.generator(0)  # 1*D - S is not nef
        assert not X.is_nef(D - S)
        self.check(slope_compare, ref_slopes, (X, D, S, bad, 1), NotAmpleError, "polarization")
        self.check(slope_compare, ref_slopes, (X, D, S, D, 1), NotNefError, "not nef")
        # not nef and h0 <= 1 both hold for -C0: the nef check comes first
        self.check(syzygy_slope, ref_slope, (X, data["neg"], D), NotNefError, "not nef")
        self.check(syzygy_slope, ref_slope, (X, zero, bad), NotAmpleError, "polarization")
        self.check(syzygy_slope, ref_slope, (X, zero, D), DegenerateBundleError, "h0 = 1")
