"""Tests of the benchmark's own checker and input generators.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import random
import tempfile
import unittest

import check
import workloads


def nef_divisors(X, count, rng, bound=4):
    found = []
    while len(found) < count:
        D = tuple(rng.randint(0, bound) for _ in range(X.n))
        if X.is_nef(D):
            found.append(D)
    return found


class TestChecker(unittest.TestCase):
    def test_pick_count_equals_brute_scan_on_nef_divisors(self):
        rng = random.Random(0)
        for name, rays in workloads.CORPUS.items():
            X = check.Surface(rays)
            for D in nef_divisors(X, 20, rng):
                self.assertEqual(X.h0_nef(D), X.h0_brute(D), (name, D))

    def test_fixed_part_count_equals_brute_scan(self):
        rng = random.Random(1)
        for name, rays in workloads.CORPUS.items():
            X = check.Surface(rays)
            ample = workloads.random_ample(rng, X)
            for _ in range(30):
                D = tuple(rng.randint(-3, 5) for _ in range(X.n))
                self.assertEqual(X.h0(D, ample), X.h0_brute(D), (name, D))

    def test_plane_closed_form(self):
        X = check.Surface(workloads.CORPUS["p2"])
        for d in (0, 1, 2, 7, 100, 12345):
            self.assertEqual(X.h0((d, 0, 0), (1, 1, 1)), (d + 1) * (d + 2) // 2)

    def test_hirzebruch_walls(self):
        for ell in range(5):
            X, s, f = check.hirzebruch(ell)
            self.assertEqual(sorted(X.walls), sorted([ell, -ell, 0, 0]))
            self.assertEqual(X.walls[s], ell)
            self.assertEqual(X.walls[f], 0)

    def test_rejects_singular_and_incomplete_fans(self):
        for rays in ([(1, 0), (1, 2), (-1, -1)], [(1, 0), (0, 1), (-1, 0)]):
            with self.assertRaises(ValueError):
                check.Surface(rays)

    def test_wrong_outputs_are_caught(self):
        X = check.Surface(workloads.CORPUS["f1"])
        with self.assertRaises(check.CheckError):
            check.check_h0({"h0": 7}, X, (1, 1, 1, 1), (1, 1, 1, 1))
        with self.assertRaises(check.CheckError):
            check.check_verify({"verified": False})


class TestGenerators(unittest.TestCase):
    def test_blowup_chains_are_smooth_complete_and_ample(self):
        for seed in range(8):
            rng = random.Random(seed)
            for size in (4, 5, 8, 20, 64):
                X, D, A = workloads.blowup_chain(rng, size)
                self.assertEqual(X.n, size)
                self.assertTrue(X.is_ample(D) and X.is_ample(A))
                # the checker's own validation, rebuilt from the rays alone
                check.Surface(X.rays)

    def test_rounds_depend_on_the_seed_alone(self):
        for workload in workloads.WORKLOADS:
            rounds = []
            for seed in (3, 3, 4):
                with tempfile.TemporaryDirectory() as tmp:
                    rnd = workloads.build(workload, seed, tmp)
                    rounds.append([(op.label, [a.replace(tmp, "") for a in op.argv]) for op in rnd.ops])
            self.assertEqual(rounds[0], rounds[1], workload)
            self.assertNotEqual(rounds[0], rounds[2], workload)
            # another seed draws other inputs for the same ops
            self.assertEqual(sorted(x[0] for x in rounds[0]), sorted(x[0] for x in rounds[2]), workload)


if __name__ == "__main__":
    unittest.main()
