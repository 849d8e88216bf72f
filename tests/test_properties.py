"""Cross-cutting invariants: oracle agreement, sign identities, scaling."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab import (
    Divisor,
    Fan,
    FanError,
    GREATER,
    LESS,
    ToricSurface,
    UNSTABLE_FOR_LARGE_D,
    alpha_beta,
    construct_polarization,
    hirzebruch_region,
    slope_compare,
    syzygy_slope,
)

from conftest import (
    STABLE_POSSIBLE,
    ample_on,
    lattice_points,
    nef_threshold,
    pairing_matrix,
    q,
    ref_asymptotic,
    section_polygon,
)


def nef_vectors(X, count, seed=0, bound=10):
    """Deterministic sample of nef coefficient vectors in [0, bound]^n."""
    rng = random.Random(seed)
    walls = X.walls
    n = X.n
    found = []
    seen = set()
    trials = 0
    while len(found) < count and trials < 40000:
        trials += 1
        vec = tuple(rng.randint(0, bound) for _ in range(n))
        if vec in seen:
            continue
        seen.add(vec)
        if all(
            vec[(i - 1) % n] + vec[(i + 1) % n] - walls[i] * vec[i] >= 0
            for i in range(n)
        ):
            found.append(Divisor(vec))
    return found


class TestSectionCountOracles:
    def test_lattice_count_equals_euler_characteristic_on_nef(self, surfaces):
        for name, X in surfaces.items():
            for D in nef_vectors(X, 25, seed=hash(name) % 1000):
                assert X.h0(D) == X.chi(D), (name, D)

    def test_counting_routes_agree(self, surfaces):
        for name, X in surfaces.items():
            for D in nef_vectors(X, 6, seed=1, bound=4):
                assert X.h0(D) == len(lattice_points(section_polygon(X, D)))


class TestNumeratorIdentity:
    def test_sign_matches_polynomial(self, surfaces):
        # wherever d*D - S and d*D - S - K are ample, the exact slope
        # comparison agrees with the sign of q(d)
        cases = [
            ("f1", (0, 5, 6, 0), 1),
            ("f1", (0, 8, 9, 0), 1),
            ("bl2p2", (1, 1, 1, 1, 1), 1),
            ("dp6", (1, 1, 1, 1, 1, 1), 0),
        ]
        for name, coeffs, shift_index in cases:
            X = surfaces[name]
            D = Divisor(coeffs)
            S = X.generator(shift_index)
            A = ample_on(name, X)
            ab = alpha_beta(X, D, S, A)
            for d in range(1, 51):
                sub = d * D - S
                if not (
                    X.is_ample(sub) and X.is_ample(sub - X.canonical)
                ):
                    continue
                order = slope_compare(X, D, S, A, d)
                qd = q(ab, d)
                if qd < 0:
                    assert order == GREATER
                elif qd == 0:
                    assert order == "equal"
                else:
                    assert order == LESS

    def test_chi_denominator_identity(self, f1):
        # q(d) over 2(chi(dD)-1)(chi(dD-S)-1) is exactly the slope gap
        D = f1.from_section_fiber(5, 6)
        S = f1.generator(1)
        A = f1.from_section_fiber(2, 3)
        ab = alpha_beta(f1, D, S, A)
        for d in range(1, 30):
            amb = d * D
            sub = amb - S
            denom = 2 * (f1.chi(amb) - 1) * (f1.chi(sub) - 1)
            gap = syzygy_slope(f1, amb, A) - syzygy_slope(f1, sub, A)
            assert gap == q(ab, d) / denom


class TestScaleInvariance:
    def test_asymptotic_verdict(self, surfaces):
        X = surfaces["f1"]
        D = X.from_section_fiber(8, 9)
        S = X.generator(1)
        A = X.from_section_fiber(2, 3)
        base = ref_asymptotic(X, D, S, A)[0]
        for c in (2, 3, 7):
            for k in (2, 5):
                assert ref_asymptotic(X, c * D, S, k * A)[0] == base

    def test_region_depends_only_on_ratios(self):
        for a_num, a_den, b_num, b_den, ell in [
            (3, 2, 9, 8, 1),
            (13, 8, 5, 4, 1),
            (6, 1, 3, 1, 2),
            (11, 4, 7, 3, 2),
        ]:
            a = Fraction(a_num, a_den)
            b = Fraction(b_num, b_den)
            base = hirzebruch_region(ell, a, b)
            fan = Fan([(1, 0), (0, 1), (-1, ell), (0, -1)])
            X = ToricSurface(fan)
            S = X.generator(1)
            for scale in (1, 2, 3):
                A = X.from_section_fiber(scale * a_den, scale * a_num)
                D = X.from_section_fiber(scale * b_den, scale * b_num)
                unstable = ref_asymptotic(X, D, S, A)[0] != STABLE_POSSIBLE
                assert unstable == (base == UNSTABLE_FOR_LARGE_D)


class TestRegionConsistency:
    def test_grid_agrees_with_alpha_beta(self):
        for ell in (1, 2, 3):
            fan = Fan([(1, 0), (0, 1), (-1, ell), (0, -1)])
            X = ToricSurface(fan)
            S = X.generator(1)
            for db in range(1, 9):
                b = ell + Fraction(db, 4)
                for da in range(1, 13):
                    a = ell + Fraction(da, 4)
                    region = hirzebruch_region(ell, a, b)
                    A = X.from_section_fiber(a.denominator, a.numerator)
                    D = X.from_section_fiber(b.denominator, b.numerator)
                    kind, _ = ref_asymptotic(X, D, S, A)
                    assert (region == UNSTABLE_FOR_LARGE_D) == (
                        kind != STABLE_POSSIBLE
                    )


class TestNefThresholdExactness:
    def test_corpus_pairs(self, surfaces):
        # the polarization's t: D - t*E is nef, and no larger t keeps it so
        delta = Fraction(1, 1000)
        checked = 0
        for name, X in surfaces.items():
            if not X.negative_generator_indices():
                continue  # the plane and the quadric have no E
            small = map(Divisor, product(range(1, 4), repeat=X.n))
            ample = [D for D in small if X.is_ample(D)][:8]
            for D in [ample_on(name, X)] + ample:
                pol = construct_polarization(X, D, allow_low_rank=True)
                t, E = pol.threshold, pol.generator
                assert t == nef_threshold(X, D, E), (name, D)
                assert X.is_nef(D - t * E)
                assert not X.is_nef(D - (t + delta) * E)
                checked += 1
        assert checked > 50


class TestPairingDescendsToClasses:
    def test_principal_shifts(self, surfaces):
        rng = random.Random(7)
        for name, X in surfaces.items():
            for _ in range(5):
                base = Divisor(
                    [rng.randint(-3, 3) for _ in range(X.n)]
                )
                m = (rng.randint(-4, 4), rng.randint(-4, 4))
                principal = Divisor(
                    [m[0] * u[0] + m[1] * u[1] for u in X.fan.rays]
                )
                shifted = base + principal
                for i in range(X.n):
                    assert X.pair(base, X.generator(i)) == X.pair(
                        shifted, X.generator(i)
                    )


class TestAmpleGrowth:
    def test_section_count_strictly_increasing(self, surfaces):
        for name, X in surfaces.items():
            D = ample_on(name, X)
            counts = [X.h0(d * D) for d in range(1, 6)]
            assert all(b > a for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# hypothesis properties

small_vec = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(small_vec, min_size=3, max_size=7))
def test_fan_construction_is_total(rays):
    """Any input either builds a valid fan or raises a named fan error."""
    try:
        fan = Fan(rays)
    except FanError:
        return
    n = fan.n
    for i in range(n):
        u, v = fan.rays[i], fan.rays[(i + 1) % n]
        assert u[0] * v[1] - u[1] * v[0] == 1


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
)
def test_pairing_is_symmetric_and_bilinear(a, b):
    X = ToricSurface(Fan([(1, 0), (0, 1), (-1, 1), (0, -1)]))
    D1, D2 = Divisor(a), Divisor(b)
    assert X.pair(D1, D2) == X.pair(D2, D1)
    assert X.pair(D1 + D2, D2) == X.pair(D1, D2) + X.pair(D2, D2)
    assert X.pair(3 * D1, D2) == 3 * X.pair(D1, D2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=4, max_size=4)
)
def test_chi_matches_direct_formula(coeffs):
    """Riemann-Roch value recomputed against the explicit matrix."""
    X = ToricSurface(Fan([(1, 0), (0, 1), (-1, 1), (0, -1)]))
    D = Divisor(coeffs)
    matrix = pairing_matrix(X.fan)
    d_sq = sum(
        coeffs[i] * coeffs[j] * matrix[i][j]
        for i in range(4)
        for j in range(4)
    )
    d_k = sum(
        coeffs[i] * (-1) * matrix[i][j] for i in range(4) for j in range(4)
    )
    assert X.chi(D) == 1 + Fraction(d_sq - d_k, 2)
