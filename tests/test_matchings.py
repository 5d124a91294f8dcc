import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from biasedcube import gaussian, hypergraphs, matchings
from biasedcube.cube import mask_of
from biasedcube.families import SetFamily, family_regular
from biasedcube.hypergraphs import Hypergraph, sunflower_hypergraph
from biasedcube.matchings import MatchingSpec, sample


def chi2_critical(dof: int, z: float = 3.0902) -> float:
    """Wilson-Hilferty approximation to the chi-square quantile
    (z = 3.0902 corresponds to the 0.999 level)."""
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


class TestSpecs:
    def test_uniform_needs_feasible_sizes(self):
        with pytest.raises(ValueError):
            MatchingSpec(4, "uniform", sizes=(3, 2))

    def test_conditioned_needs_capacity(self):
        with pytest.raises(ValueError):
            MatchingSpec(5, "conditioned", h=3, k=2)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            MatchingSpec(5, "weird")


class TestSamplers:
    def test_uniform_disjoint_and_sized(self):
        spec = MatchingSpec(10, "uniform", sizes=(3, 2, 4))
        rng = np.random.default_rng(1)
        for _ in range(200):
            parts = sample(spec, rng)
            assert [bin(m).count("1") for m in parts] == [3, 2, 4]
            assert parts[0] & parts[1] == 0
            assert (parts[0] | parts[1]) & parts[2] == 0

    def test_biased_partitions_ground_set(self):
        spec = MatchingSpec(9, "biased", h=3)
        rng = np.random.default_rng(2)
        for _ in range(200):
            parts = sample(spec, rng)
            union = 0
            for m in parts:
                assert union & m == 0
                union |= m
            assert union == (1 << 9) - 1

    def test_biased_batch_rows_are_successive_samples(self):
        spec = MatchingSpec(11, "biased", h=4)
        rng = np.random.default_rng(23)
        want = [sample(spec, rng) for _ in range(50)]
        rows = matchings._sample_biased_many(11, 4, np.random.default_rng(23), 50)
        assert [tuple(int(b) for b in row) for row in rows] == want

    def test_biased_batch_object_masks_above_62_bits(self):
        rows = matchings._sample_biased_many(70, 3, np.random.default_rng(4), 5)
        assert all(sum(int(b) for b in row) == (1 << 70) - 1 for row in rows)

    def test_conditioned_respects_floor(self):
        spec = MatchingSpec(9, "conditioned", h=3, k=2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            parts = sample(spec, rng)
            assert all(bin(m).count("1") >= 2 for m in parts)

    def test_uniform_chi_square_goodness_of_fit(self):
        n, sizes = 6, (2, 1)
        law = matchings.uniform_matching_distribution(n, sizes)
        keys = sorted(law)
        idx = {t: i for i, t in enumerate(keys)}
        spec = MatchingSpec(n, "uniform", sizes=sizes)
        rng = np.random.default_rng(4)
        draws = 60_000
        counts = np.zeros(len(keys))
        for _ in range(draws):
            counts[idx[sample(spec, rng)]] += 1
        expected = np.array([law[t] * draws for t in keys])
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2_critical(len(keys) - 1)

    def test_biased_bucket_counts_multinomial(self):
        spec = MatchingSpec(12, "biased", h=3)
        rng = np.random.default_rng(5)
        sizes = np.array([[bin(m).count("1") for m in sample(spec, rng)]
                          for _ in range(20_000)])
        assert np.all(np.abs(sizes.mean(axis=0) - 4.0) < 0.1)

    def test_rejection_budget_error(self):
        spec = MatchingSpec(4, "conditioned", h=2, k=2)
        with pytest.raises(RuntimeError):
            sample(spec, seed=0, max_tries=1)

    def test_acceptance_rate_positive(self):
        spec = MatchingSpec(8, "conditioned", h=2, k=2)
        rate = matchings.acceptance_rate(spec, 5_000, seed=6)
        assert 0.5 < rate <= 1.0


class TestCrossProbability:
    def test_two_singletons_law(self):
        # Pr[A_1 = {1}, A_2 = {2}] over uniform disjoint singletons on [4]
        fams = [SetFamily(4, 1, frozenset([mask_of([1])])),
                SetFamily(4, 1, frozenset([mask_of([2])]))]
        p = matchings.cross_probability_exact(4, (1, 1), fams)
        assert p == Fraction(1, 12)

    def test_full_families_probability_one(self):
        fams = [SetFamily.full(6, 2), SetFamily.full(6, 2)]
        assert matchings.cross_probability_exact(6, (2, 2), fams) == 1

    def test_disjointness_matters(self):
        # identical singleton targets can never both be hit
        F = SetFamily(5, 1, frozenset([mask_of([3])]))
        assert matchings.cross_probability_exact(5, (1, 1), [F, F]) == 0

    def test_exact_matches_mc(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            n = 8
            sizes = (2, 2)
            fams = [SetFamily.random(n, k, 0.5, seed=int(rng.integers(1 << 30)))
                    for k in sizes]
            exact = float(matchings.cross_probability_exact(n, sizes, fams))
            est, se = matchings.cross_probability_mc(n, sizes, fams, 40_000,
                                                     seed=trial)
            assert abs(est - exact) < 4 * se + 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            matchings.cross_probability_exact(6, (2, 2), [SetFamily.full(6, 2)])


def cross_by_tuples(n, sizes, fams):
    """Oracle: the share of all ordered disjoint tuples lying inside prod F_i."""
    tuples = matchings.uniform_matching_distribution(n, sizes)
    inside = sum(all(m in F.members for m, F in zip(t, fams)) for t in tuples)
    return Fraction(inside, len(tuples))


class TestCrossOracle:
    """cross_probability_exact counts copies of a block hypergraph; the
    oracle enumerates the ordered disjoint tuples themselves."""

    def test_exact_equals_tuple_enumeration(self):
        rng = np.random.default_rng(91)
        covered = set()
        for trial in range(30):
            n = 4 + trial % 5
            h = 1 + trial % 3
            sizes = [0] * h
            for _ in range(int(rng.integers(h, n + 1))):  # grow random parts
                sizes[int(rng.integers(h))] += 1
            if trial % 4 == 0:
                sizes[-1] = 0
            fams = [SetFamily.random(n, k, float(rng.uniform(0.2, 0.9)),
                                     seed=int(rng.integers(1 << 30))) for k in sizes]
            if trial % 5 == 1 and h > 1 and sizes[0] == sizes[1]:
                fams[1] = fams[0]
            if trial % 7 == 3:
                fams[-1] = SetFamily.empty(n, sizes[-1])
            covered |= {("n", n), ("h", h)}
            covered |= {"zero part"} if 0 in sizes else set()
            covered |= {"same family"} if h > 1 and fams[0] is fams[1] else set()
            covered |= {"empty family"} if any(not F.members for F in fams) else set()
            exact = matchings.cross_probability_exact(n, sizes, fams)
            assert exact == cross_by_tuples(n, sizes, fams), (n, sizes)
        assert covered == {*(("n", n) for n in range(4, 9)), *(("h", h) for h in (1, 2, 3)),
                           "zero part", "same family", "empty family"}

    def test_mc_and_sample_streams_pinned(self):
        # pinned outputs: a seed must keep reading the same uniforms into
        # the same columns, whichever code path draws them
        fa, fb = SetFamily.random(9, 3, 0.5, seed=71), SetFamily.random(9, 2, 0.4, seed=72)
        assert matchings.cross_probability_mc(9, (3, 2), [fa, fb], 5_000, seed=73) == (
            0.203, 0.005688426847556361)
        fams = [SetFamily.full(7, 0), SetFamily.star(7, 2), SetFamily.full(7, 1)]
        assert matchings.cross_probability_mc(7, (0, 2, 1), fams, 3_000, seed=74) == (
            0.29, 0.008284523723988805)
        assert [sample(MatchingSpec(10, "uniform", sizes=(3, 0, 2)), seed)
                for seed in (75, 76)] == [(515, 0, 12), (304, 0, 576)]
        rng = np.random.default_rng(77)
        assert [sample(MatchingSpec(70, "uniform", sizes=(3, 2)), rng) for _ in range(2)] == [
            (18446744076125470720, 281475043819520), (9147936743096448, 70368746274816)]

    def test_ill_posed_inputs_refused_by_both(self):
        star = SetFamily.star(9, 3)
        for fams in ([star], [star, SetFamily.star(8, 3)], [star, SetFamily.star(9, 2)]):
            with pytest.raises(ValueError):
                matchings.cross_probability_exact(9, (3, 3), fams)
            with pytest.raises(ValueError):
                matchings.cross_probability_mc(9, (3, 3), fams, 100, seed=0)


class TestDistributionEquality:
    def test_conditioned_subsample_equals_uniform(self):
        n, h, sizes = 6, 2, (2, 1)
        cond = matchings.conditioned_subsample_distribution(n, h, sizes)
        unif = matchings.uniform_matching_distribution(n, sizes)
        assert set(cond) == set(unif)
        for t, v in unif.items():
            assert abs(cond[t] - v) < 1e-12

    def test_uniform_law_normalized(self):
        law = matchings.uniform_matching_distribution(5, (2, 2))
        assert abs(sum(law.values()) - 1.0) < 1e-12
        assert len(set(law.values())) == 1  # genuinely uniform


def cross_probability_floor_battery(n: int, sizes, eps: float, trials: int,
                                    seed: int, floor: float, samples: int,
                                    regularity_r: int) -> dict:
    """Random regular families of measure >= eps, with their MC cross
    probabilities checked against a positive floor."""
    rng = np.random.default_rng(seed)
    probs = []
    for t in range(trials):
        fams = []
        for k in sizes:
            for _ in range(50):
                F = SetFamily.random(n, k, max(2 * eps, 0.3),
                                     int(rng.integers(0, 2 ** 63)))
                if F.measure >= eps and family_regular(F, regularity_r, 0.35):
                    fams.append(F)
                    break
            else:
                raise RuntimeError("family generator failed regularity repeatedly")
        est, _ = matchings.cross_probability_mc(n, sizes, fams, samples,
                                                int(rng.integers(0, 2 ** 63)))
        probs.append(est)
    probs.sort()
    return {
        "n": n, "sizes": list(sizes), "eps": eps, "trials": trials,
        "floor": floor,
        "min_probability": probs[0],
        "median_probability": probs[len(probs) // 2],
        "all_above_floor": bool(probs[0] > floor),
    }


class TestCountingInstances:
    def test_regular_families_stay_above_floor(self):
        out = cross_probability_floor_battery(
            10, (2, 2), eps=0.3, trials=6, seed=8, floor=1e-3,
            samples=3_000, regularity_r=1)
        assert out["all_above_floor"]
        assert out["min_probability"] > 1e-3


class TestEventEquivalence:
    def test_sunflower_split_no_mismatch(self):
        H = sunflower_hypergraph(2, 3)
        fams = [SetFamily.random(9, 3, 0.5, seed=s) for s in (1, 2)]
        out = matchings.expanded_event_equivalence(H, fams, samples=3_000, seed=9)
        assert out["mismatches"] == 0

    def test_star_family_split_no_mismatch(self):
        H = sunflower_hypergraph(2, 2)
        fams = [SetFamily.star(8, 2), SetFamily.full(8, 2)]
        out = matchings.expanded_event_equivalence(H, fams, samples=3_000, seed=10)
        assert out["mismatches"] == 0


class TestBatchedDraws:
    """Laws of the batched matching draws, at fixed seeds with 4-sigma bands."""

    def test_acceptance_rate_matches_multinomial(self):
        for (n, h, k), seed in (((12, 3, 3), 51), ((10, 2, 4), 52), ((9, 3, 2), 53)):
            ways = sum(math.factorial(n) // math.prod(math.factorial(c) for c in counts)
                       for counts in product(range(k, n + 1), repeat=h)
                       if sum(counts) == n)
            exact = ways / h ** n
            trials = 20_000
            rate = matchings.acceptance_rate(MatchingSpec(n, "conditioned", h=h, k=k),
                                             trials, seed)
            assert abs(rate - exact) < 4 * math.sqrt(exact * (1 - exact) / trials)

    def test_event_equivalence_goes_through_slices(self, monkeypatch):
        H = sunflower_hypergraph(2, 3)
        fams = [SetFamily.random(9, 3, 0.5, seed=s) for s in (1, 2)]
        assert matchings.expanded_event_equivalence(H, fams, 2_000, seed=54)["mismatches"] == 0
        real = matchings.family_slice

        def wrong(F, J, B):  # drops every member of every slice
            sl = real(F, J, B)
            return SetFamily(sl.n, sl.k, frozenset())

        monkeypatch.setattr(matchings, "family_slice", wrong)
        assert matchings.expanded_event_equivalence(H, fams, 2_000, seed=54)["mismatches"] > 0

    def test_event_equivalence_three_center_vertices(self):
        # a triangle of 3-edges: J has three bits to squeeze out of each petal
        H = Hypergraph(6, (mask_of([1, 2, 4]), mask_of([2, 3, 5]), mask_of([1, 3, 6])))
        assert bin(H.center()).count("1") == 3
        fams = [SetFamily.random(10, 3, 0.6, seed=s) for s in (61, 62, 63)]
        out = matchings.expanded_event_equivalence(H, fams, 3_000, seed=64)
        assert out == {"samples": 3_000, "mismatches": 0}

    def test_object_masks_above_62_bits(self):
        n = 70
        spec = MatchingSpec(n, "uniform", sizes=(3, 2))
        rng = np.random.default_rng(55)
        for _ in range(50):
            a, b = sample(spec, rng)
            assert type(a) is int and a >> n == 0 and a & b == 0
            assert (bin(a).count("1"), bin(b).count("1")) == (3, 2)
        parts = sample(MatchingSpec(n, "biased", h=3), rng)
        assert sum(parts) == (1 << n) - 1 and sum(bin(p).count("1") for p in parts) == n
        fams = [SetFamily(n, 1, frozenset([1])), SetFamily.full(n, 1)]
        est, se = matchings.cross_probability_mc(n, (1, 1), fams, 20_000, seed=56)
        assert abs(est - 1.0 / n) < 4 * se
        H = sunflower_hypergraph(2, 2)
        out = matchings.expanded_event_equivalence(
            H, [SetFamily.star(66, 2), SetFamily.random(66, 2, 0.5, seed=57)], 500, seed=58)
        assert out["mismatches"] == 0

    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("estimate", [
        lambda m: matchings.acceptance_rate(MatchingSpec(9, "conditioned", h=3, k=2), m, 1),
        lambda m: matchings.cross_probability_mc(6, (2, 2), [SetFamily.full(6, 2)] * 2, m, 1),
        lambda m: matchings.expanded_event_equivalence(
            sunflower_hypergraph(2, 3), [SetFamily.full(9, 3)] * 2, m, 1),
        lambda m: hypergraphs.almost_free_estimate(SetFamily.full(9, 3),
                                                   sunflower_hypergraph(2, 3), m, 1),
        lambda m: hypergraphs.trace_probability_order(sunflower_hypergraph(2, 3), [1],
                                                      [1, 1], 9, m, 1),
        lambda m: gaussian.lambda_mc(0.5, 0.3, 0.4, m, 1),
    ], ids=["acceptance_rate", "cross_probability_mc", "expanded_event_equivalence",
            "almost_free_estimate", "trace_probability_order", "lambda_mc"])
    def test_estimators_need_a_sample(self, estimate, samples):
        with pytest.raises(ValueError, match=f"at least one sample, got {samples}"):
            estimate(samples)
