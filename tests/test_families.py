import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasedcube import cube, families, verify
from biasedcube.cube import mask_of
from biasedcube.families import JuntaFamily, SetFamily
from biasedcube.noise import CouplingParams


def family_instances(count, seed):
    """Seeded k-uniform families, k = 1..5 on n = k+2..k+4 points (n <= 9):
    random, empty, full, star and junta-generated."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        k = 1 + t % 5
        n = min(k + 2 + int(rng.integers(0, 3)), 9)
        kind = t // 5 % 5
        if kind == 0:
            F = SetFamily.random(n, k, rng.uniform(0.1, 0.9), int(rng.integers(2 ** 31)))
        elif kind == 1:
            F = SetFamily.empty(n, k)
        elif kind == 2:
            F = SetFamily.full(n, k)
        elif kind == 3:
            F = SetFamily.star(n, k, center=int(rng.integers(1, n + 1)))
        else:
            J = sorted(int(c) for c in rng.choice(np.arange(1, n + 1), int(rng.integers(1, 4)),
                                                   replace=False))
            G = frozenset(mask_of(B) for size in range(len(J) + 1)
                          for B in combinations(J, size) if rng.random() < 0.5)
            F = JuntaFamily(n, k, tuple(J), G).generated()
        yield F, rng


def fair_slice_measures(F, J):
    """Oracle for is_fair: one family_slice per B inside J with |B| <= k."""
    Jset = sorted(set(J))
    for size in range(0, len(Jset) + 1):
        for B in combinations(Jset, size):
            if len(B) <= F.k:
                yield families.family_slice(F, Jset, B).measure


def slice_deviations(F, r):
    """Oracle for family_regular: |mu(F_J^B) - mu(F)| for every |J| <= r and
    B inside J with |B| <= k, one family_slice each."""
    for size in range(1, r + 1):
        for J in combinations(range(1, F.n + 1), size):
            for bsize in range(0, min(size, F.k) + 1):
                for B in combinations(J, bsize):
                    yield abs(families.family_slice(F, J, B).measure - F.measure)


class TestSetFamily:
    def test_uniformity_enforced(self):
        with pytest.raises(ValueError):
            SetFamily(5, 2, frozenset([mask_of([1, 2, 3])]))

    def test_ground_set_enforced(self):
        with pytest.raises(ValueError):
            SetFamily(3, 2, frozenset([mask_of([3, 4])]))

    def test_full_and_star_counts(self):
        assert len(SetFamily.full(6, 3).members) == 20
        assert len(SetFamily.star(6, 3).members) == math.comb(5, 2)

    def test_star_measure(self):
        F = SetFamily.star(9, 3)
        assert F.measure_exact == Fraction(1, 3)

    def test_text_round_trip(self):
        F = SetFamily.random(7, 3, 0.4, seed=1)
        assert SetFamily.from_text(F.to_text()) == F

    def test_json_round_trip(self):
        F = SetFamily.random(6, 2, 0.5, seed=2)
        assert SetFamily.from_json(F.to_json()) == F


class TestSlices:
    def test_star_slice_at_center(self):
        F = SetFamily.star(6, 3)
        sl = families.family_slice(F, [1], [1])
        assert sl.n == 5 and sl.k == 2 and sl.measure == 1.0

    def test_star_slice_off_center(self):
        F = SetFamily.star(6, 3)
        sl = families.family_slice(F, [1], [])
        assert sl.measure == 0.0

    def test_slice_b_outside_j(self):
        with pytest.raises(ValueError):
            families.family_slice(SetFamily.full(5, 2), [1], [2])

    def test_slice_consistency_total_count(self):
        # members split across slices by their intersection with J
        F = SetFamily.random(8, 3, 0.5, seed=3)
        J = [2, 5]
        total = 0
        for bbits in range(4):
            B = [J[i] for i in range(2) if bbits >> i & 1]
            if len(B) > F.k:
                continue
            total += len(families.family_slice(F, J, B).members)
        assert total == len(F.members)

    def test_composed_slice_equals_direct(self):
        # slicing at 2 reindexes the ground set, so original 4 becomes 3
        F = SetFamily.random(10, 3, 0.4, seed=5)
        inner = families.family_slice(F, [2], [2])
        assert families.family_slice(inner, [3], []) == families.family_slice(F, [2, 4], [2])

    def test_verify_compose_check_compares_members(self, monkeypatch):
        # a slice that keeps n and k but loses a member must fail the check
        real = families.family_slice

        def lossy(F, J, B):
            sl = real(F, J, B)
            if list(J) != [3]:
                return sl
            return families.SetFamily(sl.n, sl.k, frozenset(sorted(sl.members)[1:]))

        def compose_check():
            checks = verify.checks_families(np.random.default_rng(0), 1e-9)
            return next(c for c in checks if c["name"] == "families.slice_compose_shapes")

        assert compose_check()["passed"]
        monkeypatch.setattr(families, "family_slice", lossy)
        assert not compose_check()["passed"]


class TestLift:
    def test_matches_enumeration_oracle(self):
        # subset counts are exact integers and both divide by C(|x|, k)
        for n in range(3, 11):
            for k, seed in ((1, n), (2, n + 1), (3, n + 2)):
                F = SetFamily.random(n, k, 0.4, seed=seed)
                assert np.array_equal(families.lift(F).values,
                                      families.lift_direct(F).values)

    def test_full_family_is_tail_indicator(self):
        F = SetFamily.full(6, 2)
        f = families.lift(F)
        pc = cube.popcounts(6)
        assert np.allclose(f.values, (pc >= 2).astype(float))

    def test_measure_identity_exact(self):
        for seed in (1, 5, 9):
            F = SetFamily.random(10, 4, 0.3, seed=seed)
            for q in (0.2, 0.5, 0.8):
                lhs, rhs = families.lift_measure_identity(F, q)
                assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 10), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    def test_measure_identity_property(self, n, k, seed):
        if k > n:
            k = n
        F = SetFamily.random(n, k, 0.5, seed=seed)
        lhs, rhs = families.lift_measure_identity(F, 0.45)
        assert abs(lhs - rhs) < 1e-10

    def test_binomial_tail(self):
        assert abs(families.binomial_tail(4, 0.5, 2) - 11 / 16) < 1e-12
        assert abs(families.binomial_tail(5, 0.3, 0) - 1.0) < 1e-12


class TestCut:
    def test_threshold_closed(self):
        f = cube.DenseFunction(1, [0.5, 0.2])
        b = families.cut(f, 0.5)
        assert b.values[0] == 1.0 and b.values[1] == 0.0

    def test_cut_stability_bound(self):
        cp = CouplingParams(0.55, 0.8)
        for seed in (1, 2, 3):
            F = SetFamily.random(8, 3, 0.5, seed=seed)
            val = families.cut_stability_check(F, cp, 0.25)
            assert val <= 0.25 + 1e-12

    def test_cut_stability_needs_supercritical_q(self):
        F = SetFamily.full(8, 3)
        with pytest.raises(ValueError):
            families.cut_stability_check(F, CouplingParams(0.3, 0.6), 0.25)


class TestFairness:
    def test_full_family_fair(self):
        assert families.is_fair(SetFamily.full(7, 3), [1, 2], 0.01)

    def test_star_unfair_at_center(self):
        assert not families.is_fair(SetFamily.star(7, 3), [1], 0.5)

    def test_j_size_limit(self):
        with pytest.raises(ValueError):
            families.is_fair(SetFamily.full(5, 3), [1, 2, 3], 0.1)

    def test_j_outside_ground_set(self):
        with pytest.raises(ValueError):
            families.is_fair(SetFamily.full(6, 2), [1, 7], 0.1)

    def test_matches_slice_oracle(self):
        # J unsorted with repeats; eps random, loose, and exactly at the
        # boundary (1 - eps) mu(F) of one slice measure
        verdicts = set()
        for F, rng in family_instances(220, seed=31):
            J = [int(c) for c in rng.choice(np.arange(1, F.n + 1),
                                            int(rng.integers(0, F.n - F.k + 1)), replace=False)]
            J += J[:1]
            measures = list(fair_slice_measures(F, J))
            epss = [float(rng.uniform(0.0, 1.0)), 0.0, 1.0]
            if F.measure > 0:
                epss += [1.0 - m / F.measure for m in measures[:3]]
            for eps in epss:
                got = families.is_fair(F, J, eps)
                assert got == all(not m < (1.0 - eps) * F.measure for m in measures), (F, J, eps)
                verdicts.add(got)
        assert verdicts == {True, False}


class TestFamilyRegularity:
    def test_full_family_regular(self):
        assert families.family_regular(SetFamily.full(8, 3), 2, 0.01)

    def test_star_not_regular(self):
        assert not families.family_regular(SetFamily.star(8, 3), 1, 0.5)

    def test_random_dense_family_roughly_regular(self):
        F = SetFamily.random(12, 3, 0.5, seed=8)
        assert families.family_regular(F, 1, 0.2)

    def test_matches_slice_oracle(self):
        # delta exactly at a slice deviation (both routes divide the same
        # integer counts), between deviations, and above all of them
        verdicts = set()
        for F, rng in family_instances(220, seed=32):
            r = int(rng.integers(0, F.n - F.k + 1))
            devs = list(slice_deviations(F, r))
            deltas = [max(devs, default=0.0) + 1e-9, float(rng.uniform(0.0, 0.5))]
            if devs:
                deltas += [min(devs), max(devs), float(rng.choice(devs))]
            for delta in deltas:
                got = families.family_regular(F, r, delta)
                assert got == all(d < delta for d in devs), (F, r, delta)
                verdicts.add(got)
        assert verdicts == {True, False}


class TestJuntaFamily:
    def test_generator_confined_to_j(self):
        with pytest.raises(ValueError):
            JuntaFamily(6, 2, (1,), frozenset([mask_of([2])]))

    def test_generated_star(self):
        jf = JuntaFamily(6, 3, (1,), frozenset([mask_of([1])]))
        assert jf.generated().members == SetFamily.star(6, 3).members

    def test_generated_full(self):
        jf = JuntaFamily(5, 2, (), frozenset([0]))
        assert jf.generated() == SetFamily.full(5, 2)

    def test_contains(self):
        jf = JuntaFamily(6, 3, (1, 2), frozenset([mask_of([1]), mask_of([1, 2])]))
        assert jf.contains(mask_of([1, 3, 4]))
        assert not jf.contains(mask_of([2, 3, 4]))
        assert not jf.contains(mask_of([3, 4, 5]))
