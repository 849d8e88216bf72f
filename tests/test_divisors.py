"""Pairing, linear equivalence, positivity tests and the two section counts."""

import gc
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from syzstab import (
    AbstractSurface,
    DimensionMismatchError,
    Divisor,
    Fan,
    InputError,
    NonIntegralDivisorError,
    NotAmpleError,
    Polytope,
    ToricSurface,
    analyze,
    construct_polarization,
    reduce_to_minimal,
)
from syzstab import divisors
from syzstab.files import divisor_to_jsonable
from syzstab.stability import alpha_beta

from conftest import (
    BL2P2_ABSTRACT,
    ample_on,
    blowup_chain_divisors,
    count_calls,
    driver_divisor,
    lattice_points,
    pairing_matrix,
    section_polygon,
)


def sf(X, s, f):
    return X.from_section_fiber(s, f)


class TestPairing:
    def test_blown_up_plane_pairing(self, f1):
        # (6H - E).(3H - E) with H = S + F and E = S
        assert f1.pair(sf(f1, 5, 6), sf(f1, 2, 3)) == 17

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_section_meets_fiber_once(self, surfaces, ell):
        X = surfaces[f"f{ell}"]
        assert X.pair(sf(X, 1, 0), sf(X, 0, 1)) == 1
        assert X.pair(sf(X, 1, 0), sf(X, 1, 0)) == -ell
        assert X.pair(sf(X, 0, 1), sf(X, 0, 1)) == 0

    def test_zero_divisor_pairs_to_zero(self, surfaces):
        for name, X in surfaces.items():
            zero = Divisor([0] * X.n)
            assert X.pair(ample_on(name, X), zero) == 0

    def test_dimension_mismatch(self, p2):
        with pytest.raises(DimensionMismatchError):
            p2.pair(Divisor([1, 0, 0]), Divisor([1, 0, 0, 0]))

    def test_adding_divisors_of_different_lengths(self):
        with pytest.raises(DimensionMismatchError, match="lengths differ: 2 vs 3"):
            Divisor([1, 0]) + Divisor([1, 0, 0])

    def test_symmetry_matches_matrix(self, surfaces):
        for X in surfaces.values():
            matrix = pairing_matrix(X.fan)
            for i in range(X.n):
                for j in range(X.n):
                    assert X.pair(X.generator(i), X.generator(j)) == matrix[i][j]

    def test_canonical_squares(self, surfaces):
        assert surfaces["p2"].pair(
            surfaces["p2"].canonical, surfaces["p2"].canonical
        ) == 9
        for ell in range(5):
            X = surfaces[f"f{ell}"]
            assert X.pair(X.canonical, X.canonical) == 8


def generator_formula(X, D, i):
    """D.C_i one curve at a time: the wall relation's three terms on a toric
    surface, row i of the pairing matrix on an abstract one."""
    a = D.coeffs
    if isinstance(X, ToricSurface):
        c = X.fan.wall_coefficients()
        return a[i - 1] + a[(i + 1) % X.n] - c[i] * a[i]
    return sum(a[j] * X.matrix[i][j] for j in range(X.n) if a[j])


def abstract_surfaces():
    half = [[Fraction(-1, 2), 0, 1], [0, -1, 1], [1, 1, -1]]
    return [
        AbstractSurface(
            data["labels"],
            data["pairing"],
            data["canonical"],
            data["effective_generators"],
        )
        for data in (BL2P2_ABSTRACT, {**BL2P2_ABSTRACT, "pairing": half})
    ]


class TestIntersections:
    """One intersection vector per divisor against the per-curve formulas."""

    @staticmethod
    def assert_matches(X, D):
        v = X.intersections(D)
        expected = [generator_formula(X, D, i) for i in range(X.n)]
        assert v == expected, D
        assert list(map(type, v)) == list(map(type, expected)), D

    def test_corpus(self, surfaces):
        for name, X in surfaces.items():
            n = X.n
            divisors = [ample_on(name, X), X.canonical]
            divisors += [X.generator(i) for i in range(n)]
            divisors += [
                Divisor(range(-2, n - 2)),
                Divisor([Fraction(1, 3)] + [Fraction(5, 2)] * (n - 1)),
            ]
            for D in divisors:
                self.assert_matches(X, D)

    def test_blowup_chains(self):
        for seed in range(120):
            fan, pulled, ample = blowup_chain_divisors(seed, 5 + seed % 60)
            X = ToricSurface(fan)
            for D in (pulled, ample, ample - 3 * pulled, Fraction(1, 7) * ample):
                self.assert_matches(X, D)

    def test_abstract_surfaces(self):
        for X in abstract_surfaces():
            for coeffs in product((0, 1, -2, Fraction(3, 2)), repeat=X.n):
                self.assert_matches(X, Divisor(coeffs))

    @staticmethod
    def assert_curves_match(X):
        # pair_curves(i, j) is entry j of C_i's intersection vector, of the
        # same type, and negative_generator_indices reads its diagonal
        for i in range(X.n):
            v = X.intersections(X.generator(i))
            got = [X.pair_curves(i, j) for j in range(X.n)]
            assert got == v and list(map(type, got)) == list(map(type, v)), i
        negative = [
            i for i in X.effective_generators
            if X.pair(X.generator(i), X.generator(i)) < 0
        ]
        assert X.negative_generator_indices() == tuple(negative)

    def test_pair_curves(self, surfaces):
        for X in surfaces.values():
            self.assert_curves_match(X)
        for seed in range(40):
            fan, _, _ = blowup_chain_divisors(seed, 5 + seed % 60)
            self.assert_curves_match(ToricSurface(fan))
        for X in abstract_surfaces():  # the second has C_0^2 = -1/2
            self.assert_curves_match(X)
        assert abstract_surfaces()[1].pair_curves(0, 0) == Fraction(-1, 2)

    def test_wrong_length_raises_everywhere(self, surfaces):
        for X in [surfaces["p2"], surfaces["f1"], *abstract_surfaces()]:
            D = X.canonical
            wrong = Divisor([1] * (X.n + 1))
            calls = [
                lambda: X.intersections(wrong),
                lambda: X.pair_generator(wrong, 0),
                lambda: X.pair(wrong, D),
                lambda: X.pair(D, wrong),
                lambda: X.pair_with(X.intersections(D), wrong),
                lambda: X.is_nef(wrong),
                lambda: X.is_ample(wrong),
                lambda: X.chi(wrong),
                lambda: X.h0(wrong),
                lambda: alpha_beta(X, -1 * D, X.generator(0), wrong),
            ]
            if isinstance(X, ToricSurface):
                calls += [
                    lambda: X.shifted_h0(wrong),
                    lambda: X.is_effective(wrong),
                ]
            for call in calls:
                with pytest.raises(DimensionMismatchError):
                    call()


class TestLinearEquivalence:
    """The pairing is unimodular on a smooth complete toric surface, so two
    divisors are linearly equivalent exactly when their intersection
    vectors agree; equivalent ones have the same section counts."""

    def test_coordinate_lines_on_plane(self, p2):
        H0, H1 = p2.generator(0), p2.generator(1)
        assert p2.intersections(H0) == p2.intersections(H1)
        counts = [p2.h0(d * H0) for d in range(4)]
        assert counts == [p2.h0(d * H1) for d in range(4)] == [1, 3, 6, 10]

    def test_canonical_class_presentation(self, f1):
        # -sum of prime curves is the class -2S - 3F
        K, rep = f1.canonical, sf(f1, -2, -3)
        assert f1.intersections(K) == f1.intersections(rep)
        assert f1.h0(-1 * K) == f1.h0(-1 * rep) == 9

    def test_section_is_not_fiber(self, f1):
        S, F = sf(f1, 1, 0), sf(f1, 0, 1)
        assert f1.intersections(S) != f1.intersections(F)
        assert (f1.h0(S), f1.h0(F)) == (1, 2)

    def test_pairing_descends_to_classes(self, f1):
        # two representatives of one class pair equally with everything
        D1 = f1.canonical
        D2 = sf(f1, -2, -3)
        for i in range(f1.n):
            assert f1.pair(D1, f1.generator(i)) == f1.pair(D2, f1.generator(i))


class TestPositivity:
    def test_ample_on_blown_up_plane(self, f1):
        assert f1.is_ample(sf(f1, 1, 2))
        assert f1.is_nef(sf(f1, 1, 2))

    def test_fiber_multiple_nef_not_ample(self, f1):
        D = sf(f1, 0, 6)
        assert f1.is_nef(D)
        assert not f1.is_ample(D)

    def test_anticanonical_not_nef_on_f3(self, surfaces):
        X = surfaces["f3"]
        minus_k = -1 * X.canonical
        assert X.to_section_fiber(minus_k) == (2, 5)
        assert not X.is_nef(minus_k)

    def test_ample_implies_nef(self, surfaces):
        for name, X in surfaces.items():
            D = ample_on(name, X)
            assert X.is_ample(D)
            assert X.is_nef(D)


class TestPolytopeAndSections:
    def test_plane_conic_triangle(self, p2):
        D = Divisor([2, 0, 0])
        poly = section_polygon(p2, D)
        assert len(poly.vertices) == 3
        assert p2.h0(D) == poly.lattice_point_count() == 6
        assert len(lattice_points(poly)) == 6

    def test_zero_divisor_single_point(self, surfaces):
        for X in surfaces.values():
            D = Divisor([0] * X.n)
            assert X.h0(D) == section_polygon(X, D).lattice_point_count() == 1
            assert lattice_points(section_polygon(X, D)) == [(0, 0)]

    def test_empty_polytope(self, f1):
        D = sf(f1, 1, -1)
        poly = section_polygon(f1, D)
        assert not poly.vertices
        assert f1.h0(D) == poly.lattice_point_count() == 0

    @pytest.mark.parametrize("d", range(7))
    def test_plane_degree_d_count(self, p2, d):
        assert p2.h0(Divisor([d, 0, 0])) == (d + 1) * (d + 2) // 2

    def test_example_count_54(self, f1):
        assert f1.h0(sf(f1, 8, 9)) == 54

    def test_both_counting_routes_agree(self, surfaces):
        for X in surfaces.values():
            for coeffs in ([2] * X.n, [0] * X.n, [3] + [1] * (X.n - 1)):
                D = Divisor(coeffs)
                assert X.h0(D) == len(lattice_points(section_polygon(X, D)))

    def test_vertex_count_bounded_for_nef(self, surfaces):
        for name, X in surfaces.items():
            D = ample_on(name, X)
            assert len(section_polygon(X, D).vertices) <= X.n

    def test_h0_rejects_fractional(self, f1):
        with pytest.raises(NonIntegralDivisorError):
            f1.h0(Divisor([Fraction(1, 2), 0, 0, 0]))


class TestConeCorners:
    """For nef D the polygon's vertices are the integer cone corners and
    ``h0`` is their Pick count; the half-plane polygon's pairwise
    line-intersection search and row count are the oracles."""

    @staticmethod
    def assert_corners(X, D, count=True):
        corners = X._corners(D.int_coeffs())
        assert all(type(c) is int for m in corners for c in m)
        oracle = section_polygon(X, D)
        assert set(corners) == set(oracle.vertices), (X.fan.rays, D)
        if count:
            assert divisors._pick_count(corners) == X.h0(D) == (
                oracle.lattice_point_count()
            ), (X.fan.rays, D)

    def test_corpus_nef_divisors(self, surfaces):
        for name, X in surfaces.items():
            nef = [ample_on(name, X), 3 * ample_on(name, X)]
            # every nef 0/1 vector: the zero divisor and the nef but not
            # ample ones, for example the fiber F on f1-f4
            nef += [
                D for D in map(Divisor, product((0, 1), repeat=X.n))
                if X.is_nef(D)
            ]
            if name != "p2":  # there every nonzero nef divisor is ample
                assert any(not X.is_ample(D) and not D.is_zero for D in nef)
            for D in nef:
                self.assert_corners(X, D)

    def test_blowup_chains(self):
        for seed in range(120):
            fan, pulled, ample = blowup_chain_divisors(seed, 5 + seed % 60)
            X = ToricSurface(fan)
            assert X.is_ample(ample) and X.is_nef(pulled)
            assert not X.is_ample(pulled)
            # the pullback's polygon is that of the starting fan, so its
            # count is cheap; the ample one doubles at each blow-up, so it
            # is counted only on short chains
            self.assert_corners(X, pulled)
            self.assert_corners(X, ample, X.n <= 12)

    def test_route_is_nefness(self, surfaces, monkeypatch):
        # h0 builds a Polytope exactly when D is not nef: every D with
        # coefficients -2..3 on the corpus fans of at most 6 rays, and
        # ample - k*C_i on seeded chains; the stand-in Polytope records the
        # route without counting
        built = []

        class Recorder:
            def __init__(self, halfplanes):
                built.append(halfplanes)

            def lattice_point_count(self):
                return 0

        monkeypatch.setattr(divisors, "Polytope", Recorder)

        def wrong_route(X, candidates):
            wrong = []
            for D in candidates:
                built.clear()
                X.h0(D)
                if bool(built) == X.is_nef(D):
                    wrong.append(D)
            return wrong

        for X in surfaces.values():
            if X.n <= 6:
                grid = map(Divisor, product(range(-2, 4), repeat=X.n))
                assert wrong_route(X, grid) == [], X.fan
        not_nef = 0
        for seed in range(40):
            fan, _, ample = blowup_chain_divisors(seed, 5 + seed % 20)
            X = ToricSurface(fan)
            shifted = [
                ample - k * X.generator(i)
                for i, k in product(range(X.n), range(1, 4))
            ]
            assert wrong_route(X, shifted) == [], seed
            not_nef += sum(not X.is_nef(D) for D in shifted)
        assert not_nef > 0

    def test_counts_make_no_pairing_call(self, surfaces, monkeypatch):
        X = surfaces["rank6"]
        D = driver_divisor("rank6", X)
        not_nef = D - 3 * X.generator(0)
        assert X.is_ample(D) and not X.is_nef(not_nef)
        counts = count_calls(monkeypatch, "intersections")
        for E in (D, not_nef):
            X.h0(E)
        X.shifted_h0(D)((0, 0, 1))
        assert counts == {"intersections": 0}

    def test_rank6_driver_runs_no_pairwise_search(self, surfaces, monkeypatch):
        searches = []
        vertices = Polytope.__dict__["vertices"].fget

        def counted(poly):
            searches.append(poly.halfplanes)
            return vertices(poly)

        monkeypatch.setattr(Polytope, "vertices", property(counted))
        X = surfaces["rank6"]
        report = analyze(X, driver_divisor("rank6", X))
        assert report.certificate.d0 == 60
        assert searches == []


class TestPickCount:
    """``h0``'s Pick count over the cone corners against the row count of
    the same half-planes, at multiples where the polygon is large."""

    @staticmethod
    def assert_counts_agree(X, D):
        assert X.h0(D) == section_polygon(X, D).lattice_point_count(), D

    def test_corpus_multiples(self, surfaces):
        for name, X in surfaces.items():
            for d in (1, 2, 10**2, 10**3, 10**4):
                self.assert_counts_agree(X, d * ample_on(name, X))

    def test_blowup_chain_multiples(self):
        # the row count's pairwise vertex search is O(n^3) in Fractions,
        # so multiples are taken on the 40 chains of at most 24 rays
        for seed in range(120):
            if 5 + seed % 60 > 24:
                continue
            fan, pulled, ample = blowup_chain_divisors(seed, 5 + seed % 60)
            X = ToricSurface(fan)
            for d in (1, 2, 10**2, 10**3):
                self.assert_counts_agree(X, d * pulled)
                if X.n <= 8:  # the ample one doubles at each blow-up
                    self.assert_counts_agree(X, d * ample)


class TestTupleMemory:
    def test_repeated_passes_do_not_grow_traced_memory(self):
        # a tuple built by tuple() from a generator or map is freed onto
        # CPython's tuple free lists without being taken from them, so
        # repeated work fills them: about 550 KB over these passes
        chains = [blowup_chain_divisors(s, 5 + s % 16) for s in range(48)]

        def one_pass():
            for fan, _, ample in chains:
                X = ToricSurface(fan)
                reduce_to_minimal(fan)
                for k in (1, 2, 3):
                    X.is_nef(k * ample)
                    if fan.n <= 8:
                        X.h0(k * ample)

        gc.collect()  # a full collection empties the free lists
        tracemalloc.start()
        try:
            one_pass()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                one_pass()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024


class TestEulerCharacteristic:
    def test_example_value(self, f1):
        assert f1.chi(sf(f1, 8, 9)) == 54

    def test_zero(self, f1):
        assert f1.chi(Divisor([0, 0, 0, 0])) == 1

    @pytest.mark.parametrize("d", range(1, 21))
    def test_power_family_formula(self, f1, d):
        # chi(d * (6H - E)) = 1 + (35 d^2 + 17 d) / 2
        D = sf(f1, 5 * d, 6 * d)
        assert f1.chi(D) == 1 + Fraction(35 * d * d + 17 * d, 2)

    def test_matches_lattice_count_on_nef(self, f1):
        for s in range(4):
            for f in range(4):
                D = sf(f1, s, f + s)  # s*S + (f+s)*F is nef: (s+f+s) >= s
                if f1.is_nef(D):
                    assert f1.h0(D) == f1.chi(D)


class TestEffectivity:
    def test_prime_curve_effective(self, f1):
        assert f1.is_effective(sf(f1, 1, 0))

    def test_section_minus_fiber_not_effective(self, f1):
        assert not f1.is_effective(sf(f1, 1, -1))

    def test_zero_effective(self, f1):
        assert f1.is_effective(Divisor([0, 0, 0, 0]))

    def test_nonnegative_integral_needs_no_count(self, surfaces, monkeypatch):
        calls = []
        count = Polytope.lattice_point_count

        def counted(poly):
            calls.append(poly)
            return count(poly)

        monkeypatch.setattr(Polytope, "lattice_point_count", counted)
        for X in surfaces.values():
            for S in ([0] * X.n, [1] + [0] * (X.n - 1), [2] * X.n):
                assert X.is_effective(Divisor(S))
        assert calls == []

    def test_fractional_rejected(self, f1):
        with pytest.raises(NonIntegralDivisorError):
            f1.is_effective(Divisor([Fraction(1, 2), 0, 0, 0]))

    def test_wrong_length_rejected(self, f1):
        with pytest.raises(DimensionMismatchError):
            f1.is_effective(Divisor([1, 0, 0]))

    def test_negative_coefficient_counted(self, p2):
        # H_0 - H_1 is the divisor of a character, so linearly equivalent to 0
        assert p2.is_effective(Divisor([1, -1, 0]))
        assert not p2.is_effective(Divisor([0, -1, 0]))


class TestNefThreshold:
    """The polarization's t, the largest t with D - t*E nef, on the blown-up
    plane, where E is the section and only the two fibres meet it."""

    def test_blown_up_plane_values(self, f1):
        for (s, f), t in (((5, 6), 5), ((1, 2), 1)):
            pol = construct_polarization(f1, sf(f1, s, f), allow_low_rank=True)
            assert pol.generator == sf(f1, 1, 0)
            assert pol.threshold == t

    def test_requires_nef(self, surfaces):
        # -K on F3 is not nef (-K.S = -1): there is no threshold to take
        X = surfaces["f3"]
        with pytest.raises(NotAmpleError, match="divisor D is not ample"):
            construct_polarization(X, -1 * X.canonical, allow_low_rank=True)

    def test_exactness(self, f1):
        D = sf(f1, 5, 6)
        pol = construct_polarization(f1, D, allow_low_rank=True)
        t, E = pol.threshold, pol.generator
        assert f1.is_nef(D - t * E)
        assert not f1.is_nef(D - (t + Fraction(1, 1000)) * E)


class TestMonotonicity:
    def test_nef_containment(self, surfaces):
        for name, X in surfaces.items():
            D = ample_on(name, X)
            for i in range(X.n):
                smaller = D - X.generator(i)
                if X.is_nef(smaller):
                    assert X.h0(D) >= X.h0(smaller)


class TestNormalisation:
    def test_integral_coefficients_are_ints(self):
        D = Divisor([Fraction(2), 3])
        assert D.coeffs == (2, 3)
        assert Divisor([Fraction(4, 2)]).coeffs == (2,)
        assert [type(c) for c in D.coeffs] == [int, int]
        assert D == Divisor([2, 3])
        assert hash(D) == hash(Divisor([2, 3]))

    def test_fractional_coefficient_kept(self):
        assert type(Divisor([Fraction(1, 2)]).coeffs[0]) is Fraction

    def test_both_kinds_agree(self):
        for kind in (int, Fraction):
            D = Divisor([kind(4), kind(-6), kind(0)])
            assert D.scaled_primitive() == Divisor([2, -3, 0])
            assert D.int_coeffs() == (4, -6, 0)
            assert divisor_to_jsonable(D) == [4, -6, 0]
        half = Divisor([Fraction(1, 2), 1])
        assert half.scaled_primitive() == Divisor([1, 2])
        assert divisor_to_jsonable(half) == ["1/2", 1]

    @pytest.mark.parametrize("bad", [0.1, True, False, "1/3"], ids=repr)
    def test_inexact_coefficient_refused(self, bad):
        # Fraction(0.1) would read the float's binary expansion, and True
        # would count as 1
        name = type(bad).__name__
        message = f"^coefficients must be int or Fraction, got {name}$"
        with pytest.raises(InputError, match=message):
            Divisor([1, bad])


class TestScaledPrimitive:
    def test_clears_denominators(self):
        D = Divisor([Fraction(1, 8), 1, 1, 1, 1])
        assert D.scaled_primitive() == Divisor([1, 8, 8, 8, 8])

    def test_divides_content(self):
        assert Divisor([4, 6]).scaled_primitive() == Divisor([2, 3])

    def test_zero_stays_zero(self):
        assert Divisor([0, 0]).scaled_primitive() == Divisor([0, 0])


class TestAbstractSurface:
    def make(self, **overrides):
        data = {**BL2P2_ABSTRACT, **overrides}
        return AbstractSurface(
            data["labels"],
            data["pairing"],
            data["canonical"],
            data["effective_generators"],
        )

    def test_hypotheses_pass(self):
        ok, problems = self.make().check_hypotheses()
        assert ok
        assert problems == []

    def test_canonical_square(self):
        X = self.make()
        assert X.pair(X.canonical, X.canonical) == 7

    def test_rank(self):
        assert self.make().picard_rank == 3

    def test_rank_skips_a_zero_column(self):
        X = AbstractSurface(
            ["z", "a", "b", "c"],
            [[0, 0, 0, 0], [0, -1, 1, 0], [0, 1, -1, 1], [0, 0, 1, -1]],
            [0, -1, -1, -1],
            [1, 2, 3],
        )
        assert X.picard_rank == 3

    def test_chi_matches_toric_model(self):
        X = self.make()
        minus_k = -1 * X.canonical
        assert X.chi(minus_k) == 8
        assert X.h0(minus_k) == 8

    def test_nef_threshold(self):
        X = self.make()
        pol = construct_polarization(X, -1 * X.canonical)
        assert (pol.generator_index, pol.threshold) == (0, 1)

    @pytest.mark.parametrize("bad", [-0.9, True, "-1"], ids=repr)
    def test_inexact_pairing_entry_refused(self, bad):
        pairing = [list(row) for row in BL2P2_ABSTRACT["pairing"]]
        pairing[1][1] = bad
        message = "^coefficients must be int or Fraction"
        with pytest.raises(InputError, match=message):
            self.make(pairing=pairing)

    def test_generators_meeting_twice_rejected(self):
        ok, problems = self.make(
            pairing=[[-1, 0, 2], [0, -1, 1], [2, 1, -1]]
        ).check_hypotheses()
        assert not ok
        assert any("E1" in p and "L12" in p for p in problems)

    def test_non_negative_generator_rejected(self):
        ok, problems = self.make(
            pairing=[[0, 0, 1], [0, -1, 1], [1, 1, -1]]
        ).check_hypotheses()
        assert not ok
        assert any("self-intersection" in p for p in problems)

    def test_low_rank_rejected(self):
        X = AbstractSurface(
            ["S", "F"],
            [[-1, 1], [1, 0]],
            [-2, -3],
            [0, 1],
        )
        ok, problems = X.check_hypotheses()
        assert not ok
        assert any("rank" in p for p in problems)

    def test_asymmetric_pairing_rejected(self):
        with pytest.raises(InputError):
            self.make(pairing=[[-1, 0, 1], [0, -1, 1], [0, 1, -1]])

    def test_bad_generator_index(self):
        with pytest.raises(InputError):
            self.make(effective_generators=[0, 3])

    @pytest.mark.parametrize(
        "bad", [1.7, Fraction(1), "1", True], ids=repr
    )
    def test_non_int_generator_index_refused(self, bad):
        # int() would make [0, 1.7, 2] the generators (0, 1, 2)
        with pytest.raises(
            InputError, match="^effective generator indices must be integers$"
        ):
            self.make(effective_generators=[0, bad, 2])

    def test_non_square_pairing(self):
        with pytest.raises(DimensionMismatchError):
            self.make(pairing=[[-1, 0], [0, -1]])


class TestImmutability:
    def test_divisor(self):
        D = Divisor([1, 2])
        with pytest.raises(AttributeError):
            D.coeffs = (0, 0)

    def test_polytope(self, f1):
        poly = section_polygon(f1, Divisor([1, 1, 1, 1]))
        with pytest.raises(AttributeError, match="Polytope is immutable"):
            poly.halfplanes = ()

    def test_fan_and_surface(self, f1):
        with pytest.raises(AttributeError):
            f1.fan.rays = ()
        with pytest.raises(AttributeError):
            f1.n = 5
