"""Fan validation, intersection data and classification."""

from fractions import Fraction

import pytest

from syzstab import (
    Fan,
    FanError,
    IncompleteFanError,
    NonPrimitiveRayError,
    NonSmoothFanError,
    RepeatedRayError,
    ToricSurface,
    reduce_to_minimal,
)

from conftest import (
    BL2P2_RAYS,
    CORPUS_RAYS,
    P2_RAYS,
    blowup_chain,
    hirzebruch_rays,
    pairing_matrix,
    reduce_by_deletion,
    reduce_by_rebuild,
)


def curve_pairings(fan):
    """The matrix of C_i.C_j through the surface's pairing."""
    X = ToricSurface(fan)
    C = [X.generator(i) for i in range(X.n)]
    return tuple(tuple(X.pair(a, b) for b in C) for a in C)


class TestValidation:
    def test_p2_fan_valid(self):
        fan = Fan(P2_RAYS)
        assert fan.n == 3

    def test_f2_fan_valid(self):
        fan = Fan(hirzebruch_rays(2))
        assert fan.n == 4

    def test_non_primitive_ray(self):
        with pytest.raises(NonPrimitiveRayError) as exc:
            Fan([(2, 0), (0, 1), (-1, -1)])
        assert exc.value.index == 0

    def test_non_primitive_reports_original_index(self):
        with pytest.raises(NonPrimitiveRayError) as exc:
            Fan([(0, 1), (2, 0), (-1, -1)])
        assert exc.value.index == 1

    @pytest.mark.parametrize(
        "bad", [1.9, Fraction(3, 2), "1", True, 1.0], ids=repr
    )
    def test_non_int_component_refused_not_truncated(self, bad):
        # int() would make (1.9, 0) the ray (1, 0) and build the plane
        for idx in range(3):
            rays = [[1, 0], [0, 1], [-1, -1]]
            rays[idx][idx % 2] = bad
            with pytest.raises(NonPrimitiveRayError) as exc:
                Fan(rays)
            assert exc.value.index == idx
            assert str(exc.value) == (
                f"ray {idx} must have exactly 2 integer components"
            )

    @pytest.mark.parametrize("bad", [1, None], ids=repr)
    def test_non_iterable_ray_refused(self, bad):
        for idx in range(3):
            rays = [(1, 0), (0, 1), (-1, -1)]
            rays[idx] = bad
            with pytest.raises(NonPrimitiveRayError) as exc:
                Fan(rays)
            assert exc.value.index == idx
            assert str(exc.value) == (
                f"ray {idx} must have exactly 2 integer components"
            )

    @pytest.mark.parametrize("bad", [None, 3], ids=repr)
    def test_non_iterable_ray_list_refused(self, bad):
        with pytest.raises(FanError) as exc:
            Fan(bad)
        assert exc.value.index is None

    def test_zero_ray_rejected(self):
        with pytest.raises(NonPrimitiveRayError):
            Fan([(0, 0), (0, 1), (-1, -1)])

    def test_repeated_ray(self):
        with pytest.raises(RepeatedRayError) as exc:
            Fan([(1, 0), (0, 1), (1, 0), (-1, -1)])
        assert exc.value.index == 2

    def test_not_complete(self):
        with pytest.raises(IncompleteFanError) as exc:
            Fan([(1, 0), (0, 1), (-1, 0)])
        assert exc.value.index == 2

    def test_not_smooth(self):
        with pytest.raises(NonSmoothFanError) as exc:
            Fan([(1, 0), (0, 1), (-1, -2)])
        assert exc.value.index == 2

    def test_too_few_rays(self):
        with pytest.raises(IncompleteFanError):
            Fan([(1, 0), (0, 1)])

    def test_input_order_does_not_matter(self):
        reference = Fan(hirzebruch_rays(1))
        shuffled = Fan([(0, -1), (1, 0), (-1, 1), (0, 1)])
        assert shuffled == reference

    def test_equal_fans_hash_equal_and_show_sorted_rays(self):
        shuffled = Fan([(0, 1), (-1, -1), (1, 0)])
        assert hash(shuffled) == hash(Fan(P2_RAYS))
        assert repr(shuffled) == "Fan([(1, 0), (0, 1), (-1, -1)])"

    def test_every_rotation_validates(self):
        for rays in CORPUS_RAYS.values():
            for shift in range(len(rays)):
                rotated = rays[shift:] + rays[:shift]
                assert Fan(rotated) == Fan(rays)


class TestIntersectionData:
    def test_p2_self_intersections(self):
        assert Fan(P2_RAYS).self_intersections() == (1, 1, 1)

    def test_f1_self_intersections(self):
        assert Fan(hirzebruch_rays(1)).self_intersections() == (0, -1, 0, 1)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_section_self_intersection(self, ell):
        fan = Fan(hirzebruch_rays(ell))
        # the ray (0, 1) carries the section of self-intersection -ell
        assert fan.self_intersections()[1] == -ell

    def test_walls_fixed_at_validation(self):
        # formed in the constructor, not on first use
        fan = Fan(hirzebruch_rays(3))
        assert fan._walls == (0, 3, 0, -3)

    def test_wall_relation_holds_exactly(self):
        fans = [Fan(rays) for rays in CORPUS_RAYS.values()]
        fans += [blowup_chain(seed, 5 + seed % 60) for seed in range(120)]
        for fan in fans:
            c = fan.wall_coefficients()
            n = fan.n
            for i in range(n):
                prev = fan.rays[(i - 1) % n]
                nxt = fan.rays[(i + 1) % n]
                u = fan.rays[i]
                assert prev[0] + nxt[0] == c[i] * u[0]
                assert prev[1] + nxt[1] == c[i] * u[1]

    def test_p2_matrix_all_ones(self):
        matrix = curve_pairings(Fan(P2_RAYS))
        assert matrix == ((1, 1, 1), (1, 1, 1), (1, 1, 1))

    def test_f1_matrix(self):
        matrix = curve_pairings(Fan(hirzebruch_rays(1)))
        assert matrix == (
            (0, 1, 0, 1),
            (1, -1, 1, 0),
            (0, 1, 0, 1),
            (1, 0, 1, 1),
        )

    def test_bl2p2_diagonal(self):
        matrix = curve_pairings(Fan(BL2P2_RAYS))
        assert tuple(matrix[i][i] for i in range(5)) == (0, -1, -1, -1, 0)

    def test_off_diagonals_zero_or_one(self):
        for rays in CORPUS_RAYS.values():
            fan = Fan(rays)
            matrix = curve_pairings(fan)
            assert list(map(list, matrix)) == pairing_matrix(fan)
            n = len(matrix)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert matrix[i][j] in (0, 1)

    def test_noether_relation(self):
        # K^2 + (number of rays) == 12 on every smooth complete surface here
        for rays in CORPUS_RAYS.values():
            X = ToricSurface(Fan(rays))
            assert X.pair(X.canonical, X.canonical) + X.n == 12


class TestClassification:
    def test_p2(self):
        st = Fan(P2_RAYS).surface_type()
        assert st.kind == "ProjectivePlane"
        assert st.picard_rank == 1

    def test_quadric(self):
        st = Fan(hirzebruch_rays(0)).surface_type()
        assert st.kind == "Hirzebruch"
        assert st.ell == 0

    def test_f2(self):
        st = Fan(hirzebruch_rays(2)).surface_type()
        assert (st.kind, st.ell, st.picard_rank) == ("Hirzebruch", 2, 2)

    def test_bl2p2(self):
        st = Fan(BL2P2_RAYS).surface_type()
        assert (st.kind, st.picard_rank) == ("Other", 3)


class TestBlowDown:
    @staticmethod
    def blow_down(rays, ray):
        """The fan without a ray of wall coefficient 1."""
        fan = Fan(rays)
        assert fan.wall_coefficients()[fan.rays.index(ray)] == 1
        return Fan([r for r in fan.rays if r != ray])

    def test_f1_to_plane(self):
        down = self.blow_down(hirzebruch_rays(1), (0, 1))
        assert down.surface_type().kind == "ProjectivePlane"

    def test_p2_has_no_minus_one_curve(self):
        fan = Fan(P2_RAYS)
        assert 1 not in fan.wall_coefficients()
        for ray in fan.rays:
            with pytest.raises(IncompleteFanError):
                Fan([r for r in fan.rays if r != ray])

    def test_bl2p2_exceptional_ray_gives_f1(self):
        st = self.blow_down(BL2P2_RAYS, (0, 1)).surface_type()
        assert (st.kind, st.ell) == ("Hirzebruch", 1)

    def test_bl2p2_middle_ray_gives_quadric(self):
        # contracting the strict transform of the line through both centers
        # lands on the quadric, not on the blown-up plane
        st = self.blow_down(BL2P2_RAYS, (-1, 1)).surface_type()
        assert (st.kind, st.ell) == ("Hirzebruch", 0)

    def test_blow_down_needs_minus_one(self):
        # F2 has no ray of wall coefficient 1, and without any one of its
        # rays the rest is not a smooth complete fan
        fan = Fan(hirzebruch_rays(2))
        assert 1 not in fan.wall_coefficients()
        for ray in fan.rays:
            with pytest.raises(FanError):
                Fan([r for r in fan.rays if r != ray])

    def test_reduction_terminates_on_corpus(self):
        for rays in CORPUS_RAYS.values():
            reduced, removed = reduce_to_minimal(Fan(rays))
            assert reduced.n in (3, 4)
            assert reduced.surface_type().kind in ("ProjectivePlane", "Hirzebruch")
            assert len(removed) == len(rays) - reduced.n


class TestLinearReduction:
    """The one-pass reduction against the rebuild-per-blow-down loop."""

    @staticmethod
    def fans():
        fans = [Fan(rays) for rays in CORPUS_RAYS.values()]
        return fans + [blowup_chain(seed, 5 + seed % 60) for seed in range(120)]

    def test_matches_rebuild(self):
        wraps = 0
        for fan in self.fans():
            reduced, removed = reduce_to_minimal(fan)
            oracle, oracle_removed, wrapped = reduce_by_rebuild(fan)
            assert (reduced, removed) == (oracle, oracle_removed), fan
            wraps += wrapped
        # removals of the first or the last ray, where the scan restarts at
        # the first ray instead of the left neighbour
        assert wraps > 0

    def test_deletion_reference_matches_rebuild(self):
        for fan in self.fans():
            rays, removed = reduce_by_deletion(fan)
            oracle, oracle_removed, _ = reduce_by_rebuild(fan)
            assert (rays, removed) == (list(oracle.rays), oracle_removed)

    def test_builds_one_fan(self, monkeypatch):
        fan = blowup_chain(7, 64)
        built = []
        init = Fan.__init__

        def counted(self, rays):
            built.append(len(rays))
            init(self, rays)

        monkeypatch.setattr(Fan, "__init__", counted)
        reduced, removed = reduce_to_minimal(fan)
        assert built == [reduced.n] and len(removed) == 64 - reduced.n
