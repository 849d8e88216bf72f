"""Slopes, asymptotics, thresholds, destabilizer search and the drivers."""

from fractions import Fraction
from itertools import product

import pytest

from syzstab import (
    CHI_ASSUMPTION,
    EQUAL,
    GREATER,
    LESS,
    NOT_COVERED,
    NOT_SEMISTABLE,
    NOT_STABLE,
    NO_DESTABILIZER,
    UNSTABLE_FOR_LARGE_D,
    AbstractSurface,
    ConstructionFailedError,
    DegenerateBundleError,
    Divisor,
    Fan,
    HypothesesViolatedError,
    InputError,
    NotAmpleError,
    NotNefError,
    OutOfTheoremScopeError,
    Polarization,
    Polytope,
    PreconditionError,
    StabilityReport,
    ToricSurface,
    alpha_beta,
    analyze,
    certificate_holds,
    construct_polarization,
    d_threshold,
    find_destabilizer,
    hirzebruch_region,
    hirzebruch_rows,
    scan_candidates,
    slope_compare,
    syzygy_slope,
)
from syzstab import divisors, stability
from syzstab.cli import main as cli_main
from syzstab.stability import (
    LOW_RANK_NOTE,
    NEGATIVE_GENERATOR_NOTE,
    SCAN_NOTE,
    _region_bound,
    _smallest_exceeding_rational,
    _unstable,
)

from conftest import (
    AMPLE_FOR_DRIVER,
    BL2P2_ABSTRACT,
    BL2P2_RAYS,
    DP6_RAYS,
    STABLE_POSSIBLE,
    UNSTABLE_EVENTUALLY,
    ample_on,
    blowup_chain_divisors,
    count_calls,
    driver_divisor,
    first_nef_multiple,
    hirzebruch_rays,
    nef_threshold,
    q,
    ref_asymptotic,
    ref_hirzebruch_rows,
    ref_region,
    region_quadratic,
    report_of,
)


def spy_counts(monkeypatch):
    """Lists that collect, from now on, the corners of every Pick sum and
    the arguments of every Polytope built."""
    picks, polygons = [], []
    pick, init = divisors._pick_count, Polytope.__init__
    monkeypatch.setattr(
        divisors, "_pick_count", lambda c: picks.append(c) or pick(c)
    )
    monkeypatch.setattr(
        Polytope, "__init__", lambda *a: polygons.append(a) or init(*a)
    )
    return picks, polygons


def spy_builds(monkeypatch, *classes):
    """Counts, from now on, of the instances built of each class."""
    built = dict.fromkeys(classes, 0)
    for cls in classes:

        def counted(self, *args, cls=cls, init=cls.__init__):
            built[cls] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def sf(X, s, f):
    return X.from_section_fiber(s, f)


@pytest.fixture(scope="module")
def power_family(f1):
    """The blown-up plane data: D = 6H - E, shift = E, A = -K."""
    return f1, sf(f1, 5, 6), f1.generator(1), sf(f1, 2, 3)


class TestSyzygySlope:
    def test_golden_values(self, f1):
        A = sf(f1, 2, 3)
        assert syzygy_slope(f1, sf(f1, 8, 9), A) == Fraction(-26, 53)
        assert syzygy_slope(f1, sf(f1, 7, 9), A) == Fraction(-25, 51)

    def test_plane_hyperplane(self, p2):
        H = Divisor([1, 0, 0])
        assert syzygy_slope(p2, H, H) == Fraction(-1, 2)

    def test_degenerate_bundle(self, p2):
        H = Divisor([1, 0, 0])
        with pytest.raises(DegenerateBundleError):
            syzygy_slope(p2, Divisor([0, 0, 0]), H)

    def test_polarization_must_be_ample(self, f1):
        with pytest.raises(NotAmpleError):
            syzygy_slope(f1, sf(f1, 8, 9), sf(f1, 0, 1))

    def test_bundle_divisor_must_be_nef(self, f1):
        with pytest.raises(NotNefError):
            syzygy_slope(f1, sf(f1, 1, -1), sf(f1, 2, 3))


class TestSlopeCompare:
    def test_destabilized_beyond_threshold(self, power_family):
        X, D, S, A = power_family
        assert slope_compare(X, D, S, A, 18) == GREATER

    def test_tie_at_threshold(self, power_family):
        X, D, S, A = power_family
        assert slope_compare(X, D, S, A, 17) == EQUAL
        assert syzygy_slope(X, 17 * D, A) == Fraction(-1, 18)
        assert syzygy_slope(X, 17 * D - S, A) == Fraction(-1, 18)

    def test_stable_side_below(self, power_family):
        X, D, S, A = power_family
        assert slope_compare(X, D, S, A, 10) == LESS


class TestAlphaBeta:
    def test_power_family_coefficients(self, power_family):
        X, D, S, A = power_family
        ab = alpha_beta(X, D, S, A)
        assert (ab.alpha, ab.beta) == (-1, 17)
        assert q(ab, 17) == 0
        assert q(ab, 18) == -18

    def test_plane_diagonal_data(self, p2):
        H = Divisor([1, 0, 0])
        ab = alpha_beta(p2, H, H, H)
        assert ab.alpha == 1

    def test_linear_in_polarization(self, f1):
        D = sf(f1, 8, 9)
        S = f1.generator(1)
        A1 = sf(f1, 2, 3)
        A2 = sf(f1, 1, 2)
        left = alpha_beta(f1, D, S, A1 + A2)
        r1 = alpha_beta(f1, D, S, A1)
        r2 = alpha_beta(f1, D, S, A2)
        assert left.alpha == r1.alpha + r2.alpha
        assert left.beta == r1.beta + r2.beta


class TestAsymptoticCondition:
    """The sign test on q(d) that the scan and the threshold use, against
    the kind of the per-pairing sign analysis."""

    @staticmethod
    def kind(X, D, S, A):
        kind, ab = ref_asymptotic(X, D, S, A)
        assert alpha_beta(X, D, S, A) == ab
        assert _unstable(ab.alpha, ab.beta) == (kind != STABLE_POSSIBLE)
        return kind

    def test_power_family_unstable(self, power_family):
        assert self.kind(*power_family) == UNSTABLE_EVENTUALLY

    def test_example_data_unstable(self, f1):
        kind = self.kind(f1, sf(f1, 8, 9), f1.generator(1), sf(f1, 2, 3))
        assert kind == UNSTABLE_EVENTUALLY

    def test_plane_stable_possible(self, p2):
        H = Divisor([1, 0, 0])
        assert self.kind(p2, H, H, H) == STABLE_POSSIBLE


class TestThreshold:
    def test_power_family_threshold_18(self, power_family):
        X, D, S, A = power_family
        th = d_threshold(X, D, S, A)
        assert th.d0 == 18
        assert th.strict
        assert first_nef_multiple(X, D, S) == 1

    def test_example_threshold_1(self, f1):
        th = d_threshold(f1, sf(f1, 8, 9), f1.generator(1), sf(f1, 2, 3))
        assert th.d0 == 1
        assert th.strict

    def test_divisor_must_be_ample(self, f1):
        # the gate runs before the first nef multiple divides by D.C
        for D in (sf(f1, 1, 1), sf(f1, 1, 0)):
            with pytest.raises(NotAmpleError):
                d_threshold(f1, D, f1.generator(1), sf(f1, 2, 3))

    def test_stable_possible_is_precondition_error(self, p2):
        H = Divisor([1, 0, 0])
        with pytest.raises(PreconditionError):
            d_threshold(p2, H, H, H)

    @pytest.mark.parametrize(
        "S", [(0, 0, 0, 0, 0), (1, 0, -1, -1, 0)], ids=["zero", "principal"]
    )
    def test_zero_class_shift_is_precondition_error(self, surfaces, S):
        # d*D - S is d*D up to linear equivalence: the "subbundle" is the
        # whole bundle, and its slopes tie with the ambient ones vacuously
        X = surfaces["bl2p2"]
        D, A, S = Divisor([1] * 5), Divisor([2, 1, 1, 1, 1]), Divisor(S)
        assert X.is_effective(S) and not any(X.intersections(S))
        assert slope_compare(X, D, S, A, 1) == EQUAL
        with pytest.raises(PreconditionError, match="class zero"):
            d_threshold(X, D, S, A)
        assert not certificate_holds(X, D, NOT_STABLE, A, S, 1)
        # after the ampleness checks, in their order
        not_ample = Divisor([1, 0, 0, 0, 0])
        with pytest.raises(NotAmpleError, match="divisor D"):
            d_threshold(X, not_ample, S, not_ample)
        with pytest.raises(NotAmpleError, match="polarization"):
            d_threshold(X, D, S, not_ample)

    def test_zero_bundle_raises_d0(self):
        # D = S = A with D^2 = D.A = 0: q vanishes, d*D - S is zero at
        # d = 1, so d0 moves to 2 and the check at d0 - 1 is skipped
        X = AbstractSurface(
            ["a", "b", "c"],
            [[-1, 0, 1], [0, -1, 1], [1, 1, 0]],
            [-1, -1, -2],
            [0, 1],
        )
        D = Divisor([0, 0, 1])
        th = d_threshold(X, D, D, D)
        assert (th.d0, th.strict, first_nef_multiple(X, D, D)) == (2, False, 1)
        assert th.subbundle_slope == th.ambient_slope == 0

    def test_threshold_respects_nef_entry(self, f1):
        # shift by two sections: 2S needs d*D - 2S nef before anything else
        D = sf(f1, 8, 9)
        A = sf(f1, 2, 3)
        S2 = 2 * f1.generator(1)
        if ref_asymptotic(f1, D, S2, A)[0] != STABLE_POSSIBLE:
            th = d_threshold(f1, D, S2, A)
            assert th.d0 >= first_nef_multiple(f1, D, S2)
            assert slope_compare(f1, D, S2, A, th.d0) == GREATER


class TestFindDestabilizer:
    def test_example_at_d_1(self, f1):
        found = find_destabilizer(f1, sf(f1, 8, 9), sf(f1, 2, 3), 1)
        assert found is not None
        assert found.strict
        assert found.shift == f1.generator(1)
        assert found.subbundle_slope == Fraction(-25, 51)
        assert found.ambient_slope == Fraction(-26, 53)

    def test_plane_has_no_candidate(self, p2):
        H = Divisor([1, 0, 0])
        assert find_destabilizer(p2, 3 * H, H, 1) is None

    def test_trivial_shifts_are_skipped(self, p2):
        # C_0 leaves the zero divisor, C_1 and C_2 a trivial bundle with
        # h0 = 1, and every sum of two is not nef
        H = Divisor([1, 0, 0])
        assert find_destabilizer(p2, H, H, 1) is None

    def test_first_of_three_ties(self, surfaces):
        # C_0, C_3 and C_0 + C_3 all tie at d = 1 and no candidate beats
        # the ambient slope: the first tie in scan order is returned
        X = surfaces["dp6"]
        D, A = Divisor([1, 1, 1, 3, 3, 1]), Divisor([1, 1, 1, 1, 3, 3])
        C0, C3 = X.generator(0), X.generator(3)
        for S in (C0, C3, C0 + C3):
            assert slope_compare(X, D, S, A, 1) == EQUAL
        found = find_destabilizer(X, D, A, 1)
        assert not found.strict and found.shift == C0
        assert found.subbundle_slope == found.ambient_slope

    def test_rank6_call_counts(self, surfaces, monkeypatch):
        X = surfaces["rank6"]
        D = driver_divisor("rank6", X)
        A = construct_polarization(X, D).polarization_integral
        counts = count_calls(monkeypatch, "intersections", "h0")
        picks, polygons = spy_counts(monkeypatch)
        find_destabilizer(X, D, A, 2)
        assert counts["intersections"] <= 10
        # 25 lattice counts, all Pick sums over d*D's corners: one of d*D
        # itself, one per single curve (all 8 are nef candidates) and one
        # per pair whose curves meet, the 8 with i == j (no curve has
        # C^2 = 0) and the 8 cyclic neighbours; shifted_h0 decides
        # nefness, so no h0 call and no polygon
        assert counts["h0"] == 0 and not polygons
        assert len(picks) == 1 + 8 + 16

    def test_power_family_at_threshold(self, power_family):
        X, D, S, A = power_family
        found = find_destabilizer(X, D, A, 18)
        assert found is not None
        assert found.shift == S
        assert found.strict

    def test_requires_ample_multiple(self, f1):
        with pytest.raises(NotAmpleError):
            find_destabilizer(f1, sf(f1, 0, 1), sf(f1, 2, 3), 1)

    def test_exponent_below_one(self, f1):
        # D is ample, so the error is about d, not about d*D
        for d in (0, -1):
            with pytest.raises(
                PreconditionError, match="^the exponent d must be a positive integer$"
            ):
                find_destabilizer(f1, sf(f1, 5, 6), sf(f1, 2, 3), d)


class TestHirzebruchRegion:
    def test_example_point(self):
        assert (
            hirzebruch_region(1, Fraction(3, 2), Fraction(9, 8))
            == UNSTABLE_FOR_LARGE_D
        )

    def test_equality_branch_below_root(self):
        # a sits exactly on the bound; b = 5/4 lies below the root 3/2
        assert (
            hirzebruch_region(1, Fraction(13, 8), Fraction(5, 4))
            == NOT_COVERED
        )

    def test_equality_branch_at_root(self):
        # the root for ell = 1 is exactly 3/2, included in the region
        b = Fraction(3, 2)
        a = 2 * b * (b - 1) + 1
        assert hirzebruch_region(1, a, b) == UNSTABLE_FOR_LARGE_D

    def test_higher_degree_point(self):
        assert hirzebruch_region(2, Fraction(6), Fraction(3)) == UNSTABLE_FOR_LARGE_D

    def test_ampleness_guard(self):
        with pytest.raises(NotAmpleError):
            hirzebruch_region(2, Fraction(3, 2), Fraction(3))
        with pytest.raises(NotAmpleError):
            hirzebruch_region(1, Fraction(2), Fraction(1))

    def test_ell_must_be_positive(self):
        with pytest.raises(PreconditionError):
            hirzebruch_region(0, Fraction(2), Fraction(2))

    @pytest.mark.parametrize(
        "a, b",
        [(2.1, 1.1), (Fraction(5, 2), 1.5), ("5/2", Fraction(3, 2)),
         (3, "2"), (True, 2), (3, True)],
        ids=repr,
    )
    def test_only_ints_and_fractions(self, a, b):
        # a float is refused, not read off its binary expansion, and so
        # are strings and bools, by the region test and by the sweep
        with pytest.raises(InputError, match="^coefficients must be int or Fraction"):
            hirzebruch_region(1, a, b)
        with pytest.raises(InputError, match="^coefficients must be int or Fraction"):
            list(hirzebruch_rows(1, [a], [b]))

    def test_rows_read_every_value_exactly(self):
        # values at or below ell are skipped only after the type check;
        # ints and Fractions keep their type in the rows
        for a_values, b_values in (([1.0, 3], [2]), ([3], [1.0, 2])):
            with pytest.raises(InputError):
                list(hirzebruch_rows(1, a_values, b_values))
        rows = list(hirzebruch_rows(1, [1, 3, Fraction(5, 2)], [Fraction(3, 2), 2]))
        assert [(type(a), type(b)) for a, b, *_ in rows] == [
            (int, Fraction), (int, int), (Fraction, Fraction), (Fraction, int)
        ]
        assert hirzebruch_region(1, 3, 2) == rows[1][2]

    @pytest.mark.parametrize(
        "ell, a, b, quad",
        [
            (1, Fraction(5, 2), Fraction(3, 2), 0),
            (1, Fraction(65, 32), Fraction(11, 8), Fraction(-11, 32)),
            (2, Fraction(5), Fraction(3), 2),
        ],
        ids=str,
    )
    def test_points_on_the_bound(self, ell, a, b, quad):
        # a is exactly the bound, so the quadratic's sign decides
        assert a == _region_bound(ell, b)
        assert region_quadratic(ell, b) == quad
        expected = UNSTABLE_FOR_LARGE_D if quad >= 0 else NOT_COVERED
        assert ref_region(ell, a, b) == expected
        assert hirzebruch_region(ell, a, b) == expected
        [row] = hirzebruch_rows(ell, [a], [b])
        assert row[2] == expected

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_matches_closed_form_region(self, ell):
        # a on a grid and on the bound of every b, so that both sides of
        # the bound and the tie all occur
        b_values = [ell + Fraction(k, 8) for k in range(1, 17)]
        a_grid = [ell + Fraction(k, 2) for k in range(1, 13)]
        on_bound = [_region_bound(ell, b) for b in b_values]
        a_values = sorted(set(a_grid + on_bound))
        seen = set()
        for a, b, verdict, _, _ in hirzebruch_rows(ell, a_values, b_values):
            expected = ref_region(ell, a, b)
            assert verdict == expected == hirzebruch_region(ell, a, b), (a, b)
            seen.add(expected)
        assert seen == {UNSTABLE_FOR_LARGE_D, NOT_COVERED}
        quads = [region_quadratic(ell, b) for b in b_values]
        signs = {(x > 0) - (x < 0) for x in quads}
        # the quadratic has a rational root past ell only for ell = 1
        assert signs == ({-1, 0, 1} if ell == 1 else {-1, 1})

    def test_never_certifies(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hirzebruch_region computed a threshold")

        monkeypatch.setattr(stability, "d_threshold", refuse)
        verdicts = {
            hirzebruch_region(ell, ell + Fraction(j, 2), ell + Fraction(k, 4))
            for ell in (1, 2, 3)
            for j in range(1, 9)
            for k in range(1, 9)
        }
        assert verdicts == {UNSTABLE_FOR_LARGE_D, NOT_COVERED}


def grid(lo, hi, step):
    """lo, lo + step, ... <= hi, as the sweep walks an axis."""
    v = lo
    while v <= hi:
        yield v
        v += step


class TestHirzebruchRows:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "step", [Fraction(1, 8), Fraction(1, 3), Fraction(2, 5)], ids=str
    )
    def test_rows_match_per_point_path(self, ell, step):
        # both ranges start below ell, so the ampleness skips, both
        # verdicts and thresholds all occur; the first value is an int
        a_values = list(grid(ell - 1, ell + 4, step))
        b_values = list(grid(ell - 1, ell + 2, step))
        rows = list(hirzebruch_rows(ell, iter(a_values), iter(b_values)))
        assert rows == ref_hirzebruch_rows(ell, a_values, b_values)
        assert {row[2] for row in rows} == {UNSTABLE_FOR_LARGE_D, NOT_COVERED}
        assert all((row[4] is None) == (row[2] == NOT_COVERED) for row in rows)

    def test_b_values_read_at_the_first_row(self):
        reads = []

        def b_values():
            reads.append(True)
            yield from (1, Fraction(3, 2), 2)

        # no a > ell: no row, and the b values are never read
        assert list(hirzebruch_rows(1, [Fraction(1, 2), 1], b_values())) == []
        assert not reads
        rows = list(hirzebruch_rows(1, [1, 2, 3], b_values()))
        assert [row[:2] for row in rows] == [
            (2, Fraction(3, 2)), (2, 2), (3, Fraction(3, 2)), (3, 2)
        ]
        assert reads == [True]

    def test_rows_keep_their_types(self):
        # the rows are read in integers, but a and b come back as passed,
        # a Fraction of denominator 1 included, and alpha/beta as Fractions
        a_values = [2, Fraction(5, 2), Fraction(3)]
        b_values = [Fraction(3, 2), 2, Fraction(4)]
        rows = list(hirzebruch_rows(1, a_values, b_values))
        assert len(rows) == 9
        for row, (a, b) in zip(rows, product(a_values, b_values)):
            assert row[0] is a and row[1] is b
            assert type(row[3].alpha) is Fraction and type(row[3].beta) is Fraction
        assert {row[2] for row in rows} == {UNSTABLE_FOR_LARGE_D, NOT_COVERED}

    def test_ell_must_be_positive(self):
        with pytest.raises(PreconditionError):
            list(hirzebruch_rows(0, [2], [2]))

    def test_fed_core_matches_d_threshold(self):
        # each row in the region hands its own numbers to the threshold
        # core; its certificate must be d_threshold's on the row's D, S and
        # A, formed from scratch.  The a on the region bound give alpha = 0
        # rows, strict past the root of the bound's quadratic and a tie on
        # it, which is rational (b = 3/2, a = 5/2) only for ell = 1
        step, kinds = Fraction(1, 8), []
        for ell in (1, 2, 3, 4):
            X = ToricSurface(Fan(hirzebruch_rays(ell)))
            S = X.generator(X.hirzebruch_presentation()[1])
            b_values = [ell + j * step for j in range(1, 25)]
            a_values = [ell + i * step for i in range(1, 33)]
            a_values += sorted({_region_bound(ell, b) for b in b_values})
            for a, b, _, ab, cert in hirzebruch_rows(ell, a_values, b_values):
                if cert is not None:
                    D = sf(X, b.denominator, b.numerator)
                    A = sf(X, a.denominator, a.numerator)
                    assert cert == d_threshold(X, D, S, A), (ell, a, b)
                    kinds.append((ell, ab.alpha == 0, cert.strict))
        assert {(alpha_zero, strict) for _, alpha_zero, strict in kinds} == {
            (False, True), (True, True), (True, False)
        }
        assert {ell for ell, _, strict in kinds if not strict} == {1}
        assert len(kinds) > 1500

    def test_sweep_op_call_counts(self, monkeypatch):
        # one a over 8 values of b, as one sweep command walks them: each
        # of the k rows in the region makes at most four Pick sums, two
        # counts at d0 and two at d0 - 1, and no row re-reads the
        # presentation, builds D or A from section/fiber coordinates,
        # re-forms alpha/beta from divisors or divides a Fraction
        calls = {}

        def counted(owner, name):
            real = getattr(owner, name)
            calls[name] = 0

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(ToricSurface, "from_section_fiber")
        counted(ToricSurface, "hirzebruch_presentation")
        counted(stability, "_coefficients")
        counted(Fraction, "__truediv__")
        picks, polygons = spy_counts(monkeypatch)
        b_values = [1 + Fraction(j, 8) for j in range(1, 9)]
        for a, k in ((Fraction(13, 8), 1), (Fraction(25, 8), 5), (Fraction(41, 8), 8)):
            picks.clear()
            calls.update(dict.fromkeys(calls, 0))
            rows = list(hirzebruch_rows(1, [a], b_values))
            assert len(rows) == 8 and sum(row[4] is not None for row in rows) == k
            assert 0 < len(picks) <= 4 * k and not polygons, (a, len(picks))
            assert calls == {
                "from_section_fiber": 0,
                "hirzebruch_presentation": 1,  # once per call, not per row
                "_coefficients": 0,
                "__truediv__": 0,
            }, (a, calls)

    def test_sweep_command_fractions(self, monkeypatch, capsys):
        # one 8-row sweep command through main walks its grid as integer
        # numerators and reads each row's verdict and alpha/beta in ints:
        # it builds exactly one Fraction per "p/q" text it parses (--a,
        # --b's two ends or one, --step) and two per row in the region,
        # the certificate's slopes, and none for a grid point or a row
        # outside the region
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        cases = [
            ("1", "13/8", "9/8:2", 3, 1),
            ("1", "25/8", "9/8:2", 3, 5),
            ("1", "41/8", "9/8:2", 3, 8),
            ("4", "33/8", "45/8:52/8", 4, 0),
        ]
        for ell, a, b, parsed, k in cases:
            built.clear()
            argv = ["sweep", "--ell", ell, "--a", a, "--b", b, "--step", "1/8"]
            assert cli_main(argv) == 0
            out = capsys.readouterr().out.splitlines()
            assert len(out) == 1 + 8
            assert sum(UNSTABLE_FOR_LARGE_D in row for row in out) == k
            assert len(built) == parsed + 2 * k, (a, built)


class TestSectionAlphaBeta:
    """Both Hirzebruch functions read S's alpha/beta off F_ell's
    intersection numbers; only a sweep row that needs d0 builds a surface."""

    def test_region_builds_no_surface(self, monkeypatch):
        built = spy_builds(monkeypatch, Fan, ToricSurface, Divisor)
        verdicts = {
            hirzebruch_region(ell, ell + Fraction(j, 2), ell + Fraction(k, 4))
            for ell in (1, 2, 3)
            for j in range(1, 9)
            for k in range(1, 9)
        }
        assert verdicts == {UNSTABLE_FOR_LARGE_D, NOT_COVERED}
        assert built == {Fan: 0, ToricSurface: 0, Divisor: 0}

    def test_rows_build_one_fan_only_for_d0(self, monkeypatch):
        built = spy_builds(monkeypatch, Fan)
        # no row in the region: no fan
        b_values = [Fraction(k, 8) for k in range(45, 53)]
        rows = list(hirzebruch_rows(4, [Fraction(33, 8)], b_values))
        assert len(rows) == 8 and {row[2] for row in rows} == {NOT_COVERED}
        assert built[Fan] == 0
        # 1, 5 and 8 rows in the region, one a at a time and all three in
        # one call: one fan per call
        b_values = [1 + Fraction(j, 8) for j in range(1, 9)]
        a_values = [Fraction(13, 8), Fraction(25, 8), Fraction(41, 8)]
        calls = [([a], k) for a, k in zip(a_values, (1, 5, 8))]
        for a_call, k in calls + [(a_values, 14)]:
            built[Fan] = 0
            rows = list(hirzebruch_rows(1, a_call, b_values))
            assert sum(row[4] is not None for row in rows) == k
            assert built[Fan] == 1, (a_call, built[Fan])

    @pytest.mark.parametrize("ell", [True, 2.0, Fraction(3, 2)], ids=repr)
    def test_ell_must_be_an_int(self, ell):
        # no fan refuses a non-int ell now, so both functions do
        message = "^ell must be a positive integer$"
        with pytest.raises(PreconditionError, match=message):
            hirzebruch_region(ell, 5, 5)
        with pytest.raises(PreconditionError, match=message):
            list(hirzebruch_rows(ell, [5], [5]))

    def test_large_ell_matches_references(self):
        ell = 10**6
        b_values = [ell + 1, ell + Fraction(1, 2), Fraction(3 * ell, 2), 2 * ell]
        a_values = [ell + 1, 3 * ell + 1]
        a_values += [_region_bound(ell, Fraction(b)) for b in b_values]
        rows = list(hirzebruch_rows(ell, a_values, b_values))
        assert rows == ref_hirzebruch_rows(ell, a_values, b_values)
        assert len(rows) == 24
        assert {row[2] for row in rows} == {UNSTABLE_FOR_LARGE_D, NOT_COVERED}
        for a, b, verdict, _, _ in rows:
            assert hirzebruch_region(ell, a, b) == verdict == ref_region(ell, a, b)


class TestConstructPolarization:
    def test_bl2p2_anticanonical(self):
        X = ToricSurface(Fan(BL2P2_RAYS))
        pol = construct_polarization(X, -1 * X.canonical)
        assert pol.generator_index == 1
        assert pol.threshold == 1
        assert pol.epsilon == Fraction(1, 8)
        assert pol.alpha == Fraction(-7, 8)
        assert pol.polarization_integral == Divisor([8, 1, 8, 8, 8])
        D, A, E = -1 * X.canonical, pol.polarization, pol.generator
        alpha = 2 * X.pair(D, A) * X.pair(D, E) - X.pair(E, A) * X.pair(D, D)
        assert pol.alpha == alpha
        # the witness re-checks through the per-pairing sign analysis
        kind, _ = ref_asymptotic(
            X, -1 * X.canonical, pol.generator, pol.polarization_integral
        )
        assert kind == UNSTABLE_EVENTUALLY

    def test_rank_two_rejected(self, f1):
        with pytest.raises(HypothesesViolatedError):
            construct_polarization(f1, sf(f1, 5, 6))

    def test_toric_hypotheses_gate(self, surfaces):
        # a toric surface states its one hypothesis as an abstract one
        # does, and the construction raises exactly its diagnostics
        for name, X in surfaces.items():
            ok, problems = X.check_hypotheses()
            assert ok == (X.picard_rank >= 3) and ok == (not problems), name
            if ok:
                continue
            assert problems == [
                f"Picard rank {X.picard_rank} < 3; the plane and "
                "Hirzebruch surfaces need the region test instead"
            ]
            with pytest.raises(HypothesesViolatedError) as raised:
                construct_polarization(X, ample_on(name, X))
            assert raised.value.diagnostics == tuple(problems)

    def test_rank_two_informational_mode(self, f1):
        pol = construct_polarization(f1, sf(f1, 5, 6), allow_low_rank=True)
        assert pol.generator_index == 1  # the section
        assert pol.threshold == 5
        assert pol.epsilon == 1
        assert pol.polarization == sf(f1, 1, 6)
        assert pol.alpha == -113  # -150 + 37 * eps at eps = 1
        assert LOW_RANK_NOTE in pol.notes

    def test_two_intersection_vectors(self, monkeypatch):
        # t, alpha and eps are all read off v(D) and v(E), each formed once
        X = ToricSurface(Fan(BL2P2_RAYS))
        counts = count_calls(monkeypatch, "intersections")
        pol = construct_polarization(X, -1 * X.canonical)
        assert counts["intersections"] == 2
        assert type(pol.threshold) is Fraction and pol.threshold == 1


def ladder_polarization(X, D):
    """Reference for construct_polarization: the same generator E and nef
    threshold t, then eps halved from 1 down to 2^-20 until D - (t - eps)E
    is ample with alpha < 0.  None when no eps on the ladder works."""
    e_idx = min(
        X.negative_generator_indices(), key=lambda i: (X.pair_generator(D, i), i)
    )
    E = X.generator(e_idx)
    t = nef_threshold(X, D, E)
    notes = () if isinstance(X, AbstractSurface) else (NEGATIVE_GENERATOR_NOTE,)
    eps = Fraction(1)
    for _ in range(21):
        A = D - (t - eps) * E
        if X.is_ample(A):
            alpha = alpha_beta(X, D, E, A).alpha
            if alpha < 0:
                return Polarization(
                    A, A.scaled_primitive(), e_idx, E, eps, t, alpha, notes
                )
        eps = eps / 2
    return None


def admissible(X, D, pol, eps):
    """Whether D - (t - eps)E is ample with alpha < 0."""
    A = D - (pol.threshold - eps) * pol.generator
    return X.is_ample(A) and alpha_beta(X, D, pol.generator, A).alpha < 0


class TestPolarizationAgainstLadder:
    """The closed-form eps against the halving ladder it replaced."""

    def compare(self, X, D):
        """"ladder" where the closed form returns the ladder's polarization,
        "below cut-off" where only the closed form finds an eps, and
        "none" where neither does."""
        expected = ladder_polarization(X, D)
        try:
            pol = construct_polarization(X, D)
        except ConstructionFailedError:
            assert expected is None, D
            return "none"
        if expected is not None:
            assert pol == expected, D
            return "ladder"
        # past the ladder's last rung: eps is admissible and 2 eps is not
        assert pol.epsilon < Fraction(1, 2**20), D
        assert X.is_ample(pol.polarization) and pol.alpha < 0, D
        assert alpha_beta(X, D, pol.generator, pol.polarization).alpha == pol.alpha
        assert admissible(X, D, pol, pol.epsilon), D
        assert not admissible(X, D, pol, 2 * pol.epsilon), D
        return "below cut-off"

    def compare_ample(self, X, top):
        """Outcomes over every ample D with coefficients 1..top."""
        return [
            self.compare(X, D)
            for D in map(Divisor, product(range(1, top + 1), repeat=X.n))
            if X.is_ample(D)
        ]

    @pytest.mark.parametrize("name", ["bl2p2", "dp6", "rank5", "rank6"])
    def test_small_ample_divisors(self, surfaces, name):
        outcomes = self.compare_ample(surfaces[name], 3)
        assert outcomes and set(outcomes) == {"ladder"}

    def test_abstract_surfaces(self):
        X = AbstractSurface(**BL2P2_ABSTRACT)
        assert set(self.compare_ample(X, 6)) == {"ladder"}
        # a rational self-intersection, where some D admit no eps at all
        half = [[Fraction(-1, 2), 0, 1], [0, -1, 1], [1, 1, -1]]
        X = AbstractSurface(**{**BL2P2_ABSTRACT, "pairing": half})
        assert set(self.compare_ample(X, 6)) == {"ladder", "none"}

    def test_blowup_chains(self):
        below_cutoff = []
        for seed in range(120):
            fan, _, D = blowup_chain_divisors(seed, 5 + seed % 60)
            outcome = self.compare(ToricSurface(fan), D)
            if outcome != "ladder":
                assert outcome == "below cut-off", seed
                below_cutoff.append(seed)
        assert below_cutoff == [20, 42, 69, 107]


class TestToricDriver:
    def test_blown_up_plane_power_family(self, f1):
        report = analyze(f1, sf(f1, 5, 6))
        assert report.verdict == NOT_SEMISTABLE
        cert = report.certificate
        assert cert.polarization == sf(f1, 2, 3)
        assert cert.shift == f1.generator(1)
        assert cert.d0 == 18

    def test_plane_out_of_scope(self, p2):
        with pytest.raises(OutOfTheoremScopeError):
            analyze(p2, Divisor([1, 0, 0]))

    def test_quadric_out_of_scope(self, surfaces):
        X = surfaces["f0"]
        with pytest.raises(OutOfTheoremScopeError):
            analyze(X, Divisor([1, 1, 1, 1]))

    def test_bl2p2_anticanonical(self):
        fan = Fan(BL2P2_RAYS)
        X = ToricSurface(fan)
        report = analyze(X, -1 * X.canonical)
        assert report.verdict == NOT_SEMISTABLE
        cert = report.certificate
        assert cert.d0 == 1
        # round-trip: the certificate re-verifies by exact comparison
        assert (
            slope_compare(
                X, -1 * X.canonical, cert.shift, cert.polarization, cert.d0
            )
            == GREATER
        )

    def test_del_pezzo_six(self):
        fan = Fan(DP6_RAYS)
        X = ToricSurface(fan)
        report = analyze(X, -1 * X.canonical)
        assert report.verdict == NOT_SEMISTABLE
        assert report.certificate.d0 == 1

    def test_driver_requires_ample(self, f1):
        with pytest.raises(NotAmpleError):
            analyze(f1, sf(f1, 1, 0))

    @pytest.mark.parametrize(
        "name", ["f1", "f2", "f3", "f4", "bl2p2", "dp6", "rank5", "rank6"]
    )
    def test_driver_requires_ample_in_scope(self, surfaces, name):
        X = surfaces[name]
        ample = ample_on(name, X)
        for D in (0 * ample, ample - X.generator(0), X.generator(0)):
            with pytest.raises(NotAmpleError, match="^divisor D is not ample$"):
                analyze(X, D)

    def test_rank6_call_counts(self, surfaces, monkeypatch):
        X = surfaces["rank6"]
        counts = count_calls(monkeypatch, "intersections", "h0")
        picks, polygons = spy_counts(monkeypatch)
        analyze(X, driver_divisor("rank6", X))
        assert counts["intersections"] <= 12
        # d_threshold's four lattice counts, of d*D and d*D - S at d0 - 1
        # and d0, are Pick sums over d*m(D) - k*m(S): no h0, no polygon
        assert counts["h0"] == 0 and not polygons
        assert len(picks) == 4

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
    def test_hirzebruch_polarization_in_region(self, surfaces, name):
        # the driver picks a = A2/A1 past the region bound and does not run
        # the region test on it; D ample gives b > ell, so a lies inside
        X = surfaces[name]
        ell = X.fan.surface_type().ell
        for b1 in range(1, 4):
            for b2 in range(ell * b1 + 1, ell * b1 + 7):
                cert = analyze(X, sf(X, b1, b2)).certificate
                a1, a2 = X.to_section_fiber(cert.polarization)
                a, b = Fraction(a2, a1), Fraction(b2, b1)
                assert hirzebruch_region(ell, a, b) == UNSTABLE_FOR_LARGE_D, b


class TestAbstractDriver:
    def test_bl2p2_model(self):
        X = AbstractSurface(
            BL2P2_ABSTRACT["labels"],
            BL2P2_ABSTRACT["pairing"],
            BL2P2_ABSTRACT["canonical"],
            BL2P2_ABSTRACT["effective_generators"],
        )
        report = analyze(X, -1 * X.canonical)
        assert report.verdict == NOT_SEMISTABLE
        assert CHI_ASSUMPTION in report.assumptions
        cert = report.certificate
        assert cert.d0 == 1
        # same slope values as the toric model of the same surface
        assert cert.subbundle_slope == Fraction(-34, 5)
        assert cert.ambient_slope == -7

    def test_hypotheses_gate(self):
        X = AbstractSurface(
            ["S", "F"], [[-1, 1], [1, 0]], [-2, -3], [0, 1]
        )
        with pytest.raises(HypothesesViolatedError):
            analyze(X, Divisor([1, 2]))
        # the low-rank waiver covers the rank and the generator count only,
        # whatever the labels say
        D = Divisor([2, 2, 3])
        X = AbstractSurface(
            ["E1", "E2", "frank"],
            [[-1, 0, 1], [0, -1, 1], [1, 1, 0]],
            [-2, -2, -3],
            [0, 1, 2],
        )
        with pytest.raises(HypothesesViolatedError, match="frank"):
            construct_polarization(X, D, allow_low_rank=True)
        X = AbstractSurface(
            ["E1", "E2", "rank"], BL2P2_ABSTRACT["pairing"], [-2, -2, -3], [0, 2]
        )
        pol = construct_polarization(X, D, allow_low_rank=True)
        assert pol.notes == (LOW_RANK_NOTE,)


class TestScanCandidates:
    def test_finds_section_shift(self, f1):
        cert = scan_candidates(f1, sf(f1, 8, 9), sf(f1, 2, 3))
        assert cert.strict
        assert cert.shift == f1.generator(1)
        assert cert.d0 == 1

    def test_plane_has_no_candidates(self, p2):
        H = Divisor([1, 0, 0])
        assert scan_candidates(p2, H, H) is None
        report = analyze(p2, H, H)
        assert report.verdict == NO_DESTABILIZER
        assert report.certificate is None


def outcome(fn, *args):
    """fn(*args), or the type and message of the input error it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc), str(exc)


def driver_reference(X, D):
    """The driver's verdict and certificate, rebuilt here from their parts:
    at rank >= 3 construct_polarization's generator and integral A, on
    F_ell the section and S + a*F with a just past the region bound."""
    if X.picard_rank >= 3:
        pol = construct_polarization(X, D)
        S, A = pol.generator, pol.polarization_integral
    else:
        ell, s_idx, _ = X.hirzebruch_presentation()
        b1, b2 = X.to_section_fiber(D)
        a = _smallest_exceeding_rational(_region_bound(ell, Fraction(b2, b1)))
        S = X.generator(s_idx)
        A = X.from_section_fiber(a.denominator, a.numerator)
    cert = d_threshold(X, D, S, A)
    return NOT_SEMISTABLE if cert.strict else NOT_STABLE, cert


class TestAnalyze:
    def test_matches_entry_points(self, surfaces):
        """The driver's certificate is d_threshold's on the parts it
        picks, the scan's and the fixed exponent's are what
        scan_candidates and find_destabilizer return, each report is the
        one built on its certificate, and certificate_holds accepts every
        certificate among them."""
        cases = [(name, X, ample_on(name, X)) for name, X in surfaces.items()]
        # 5S + 6F on the blown-up plane ties at the d0 - 1 = 17 of its scan
        cases.append(("f1 power family", surfaces["f1"], sf(surfaces["f1"], 5, 6)))
        cases.append(
            ("bl2p2 abstract", AbstractSurface(**BL2P2_ABSTRACT), Divisor([2, 2, 3]))
        )
        kinds = set()
        for name, X, D in cases:
            driver = outcome(analyze, X, D)
            if isinstance(driver, StabilityReport):
                assert (driver.verdict, driver.certificate) == driver_reference(
                    X, D
                ), name
                A = driver.certificate.polarization
            else:  # the plane and the quadric: no polarization is constructed
                assert driver[0] is OutOfTheoremScopeError, name
                A = D + X.generator(0)
            scan = analyze(X, D, A)
            found = scan_candidates(X, D, A)
            assert scan == report_of(X, found, () if found else (SCAN_NOTE,)), name
            reports = [driver, scan]
            exponents = {1, 2, 3}
            if scan.certificate is not None:
                d0 = scan.certificate.d0
                exponents |= {max(d0 - 1, 1), d0}
            for d in sorted(exponents):
                report = analyze(X, D, A, d)
                cert = find_destabilizer(X, D, A, d)
                assert report == report_of(X, cert), (name, d)
                assert report.certificate is None or report.certificate.d0 == d
                reports.append(report)
            for report in reports:
                if not isinstance(report, StabilityReport):
                    continue
                kinds.add(report.verdict)
                c = report.certificate
                strict = c is not None and c.strict
                assert (report.verdict == NOT_SEMISTABLE) == strict, name
                if c is not None:
                    args = (c.polarization, c.shift, c.d0)
                    assert certificate_holds(X, D, report.verdict, *args), name
                    assert not certificate_holds(X, D, NO_DESTABILIZER, *args)
        assert kinds == {NOT_SEMISTABLE, NOT_STABLE, NO_DESTABILIZER}

    def test_exponent_needs_polarization(self, f1):
        with pytest.raises(PreconditionError):
            analyze(f1, sf(f1, 5, 6), None, 18)


def assert_threshold_minimal(X, D, S, A):
    """Walk every d from the first nef multiple up to d0 with exact slopes.

    d_threshold itself checks only d0 and d0 - 1 and relies on the sign
    of q(d) in between; this walk is the independent oracle for that.
    """
    th = d_threshold(X, D, S, A)
    d_nef = first_nef_multiple(X, D, S)
    for d in range(d_nef, th.d0):
        if not (d * D - S).is_zero:
            assert slope_compare(X, D, S, A, d) != GREATER, d
    expected = GREATER if th.strict else EQUAL
    assert slope_compare(X, D, S, A, th.d0) == expected
    ambient = th.d0 * D
    assert th.subbundle_slope == syzygy_slope(X, ambient - S, A)
    assert th.ambient_slope == syzygy_slope(X, ambient, A)
    return th, d_nef


class TestThresholdMinimality:
    def test_driver_thresholds_on_corpus(self, surfaces, power_family):
        cases = [power_family]
        for name in AMPLE_FOR_DRIVER:
            X = surfaces[name]
            D = driver_divisor(name, X)
            cert = analyze(X, D).certificate
            cases.append((X, D, cert.shift, cert.polarization))
        walked = [assert_threshold_minimal(*case) for case in cases]
        # rank5, rank6 and the power family reach d0 well past d_nef
        assert max(th.d0 - d_nef for th, d_nef in walked) >= 59

    def test_abstract_driver_threshold(self):
        X = AbstractSurface(
            BL2P2_ABSTRACT["labels"],
            BL2P2_ABSTRACT["pairing"],
            BL2P2_ABSTRACT["canonical"],
            BL2P2_ABSTRACT["effective_generators"],
        )
        D = -1 * X.canonical
        cert = analyze(X, D).certificate
        assert_threshold_minimal(X, D, cert.shift, cert.polarization)

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
    def test_scan_thresholds_on_hirzebruch(self, surfaces, name):
        X = surfaces[name]
        D = ample_on(name, X)
        ell = X.fan.surface_type().ell
        found = 0
        for k in range(ell + 1, 4 * ell + 9):
            A = sf(X, 1, k)
            cert = scan_candidates(X, D, A)
            if cert is not None:
                assert_threshold_minimal(X, D, cert.shift, A)
                found += 1
        assert found

    def test_hirzebruch_grid_thresholds(self):
        # the rows a sweep turns into thresholds: D = B1*S + B2*F and
        # A = A1*S + A2*F with b = B2/B1 and a = A2/A1 on a grid of eighths
        step = Fraction(1, 8)
        walked = []
        for ell in (1, 2, 3):
            X = ToricSurface(Fan(hirzebruch_rays(ell)))
            S = X.generator(X.hirzebruch_presentation()[1])
            for i in range(1, 25):
                a = ell + i * step
                for j in range(1, 17):
                    b = ell + j * step
                    if hirzebruch_region(ell, a, b) != UNSTABLE_FOR_LARGE_D:
                        continue
                    D = sf(X, b.denominator, b.numerator)
                    A = sf(X, a.denominator, a.numerator)
                    walked.append(assert_threshold_minimal(X, D, S, A))
        assert len(walked) > 200
        assert max(th.d0 for th, _ in walked) > 1
