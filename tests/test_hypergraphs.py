import math
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

from biasedcube import cube, hypergraphs as hg
from biasedcube.cube import coords_of, mask_of
from biasedcube.families import JuntaFamily, SetFamily
from biasedcube.hypergraphs import (
    Hypergraph,
    k_expand,
    matching_hypergraph,
    resolve,
    sunflower_hypergraph,
    traces,
)


class TestStructure:
    def test_repeated_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, (0b011, 0b011))

    def test_edge_in_universe(self):
        with pytest.raises(ValueError):
            Hypergraph(2, (0b100,))

    def test_matching_disjoint(self):
        H = matching_hypergraph(3, 2)
        assert H.h == 3 and H.center() == 0
        assert bin(H.support()).count("1") == 6

    def test_sunflower_center(self):
        H = sunflower_hypergraph(3, 3)
        assert H.center() == 1  # the single shared vertex
        assert all(bin(e).count("1") == 3 for e in H.edges)

    def test_text_round_trip(self):
        H = sunflower_hypergraph(2, 3)
        back = Hypergraph.from_text(H.to_text())
        assert back.edges == H.edges and back.universe_size == H.universe_size

    def test_is_expanded(self):
        assert hg.is_expanded(matching_hypergraph(2, 3), 2, 0)
        assert hg.is_expanded(sunflower_hypergraph(2, 3), 2, 1)
        assert not hg.is_expanded(sunflower_hypergraph(2, 3), 2, 0)


class TestExpandResolve:
    def test_k_expand_sizes_and_center(self):
        H = Hypergraph(3, (0b011, 0b110))
        Hk = k_expand(H, 4)
        assert all(bin(e).count("1") == 4 for e in Hk.edges)
        assert Hk.center() == H.center()  # padding is private

    def test_k_expand_too_small(self):
        with pytest.raises(ValueError):
            k_expand(matching_hypergraph(2, 3), 2)

    def test_resolve_shared_vertex_gives_matching(self):
        H = sunflower_hypergraph(2, 2)
        R = resolve(H, [1])
        assert R.center() == 0
        sizes = sorted(bin(e).count("1") for e in R.edges)
        assert sizes == [2, 2]
        assert (R.edges[0] & R.edges[1]) == 0

    def test_resolve_empty_is_identity(self):
        H = sunflower_hypergraph(3, 3)
        assert resolve(H, []).edges == H.edges

    def test_resolution_signature_private_vertex(self):
        # resolving a vertex in only one edge cannot change the copy type
        H = sunflower_hypergraph(2, 3)
        private = 2  # lies only in the first edge
        assert (hg._venn_signature(resolve(H, [private]).edges)
                == hg._venn_signature(H.edges))


class TestTraces:
    def test_disjoint_pair_traces(self):
        H = matching_hypergraph(2, 2)
        ts = traces(H, support_bound=1)
        assert (0, 0) in ts
        assert len(ts) == 1 + 4  # empty trace plus one per support vertex

    def test_center_bound_filters(self):
        H = sunflower_hypergraph(2, 2)
        all_ts = traces(H)
        small = traces(H, center_bound=0)
        assert len(small) < len(all_ts)
        for t in small:
            c = Hypergraph(H.universe_size, t, allow_repeats=True).center()
            assert c == 0

    def test_support_bound_zero(self):
        H = matching_hypergraph(2, 3)
        assert traces(H, support_bound=0) == [(0, 0)]


class TestVennSignature:
    def test_matching_signature(self):
        H = matching_hypergraph(2, 2)
        # cells: only-edge-1 has 2 vertices, only-edge-2 has 2, intersection 0
        assert hg._venn_signature(H.edges) == (2, 2, 0)

    def test_signature_detects_copies(self):
        a = (mask_of([1, 2]), mask_of([2, 3]))
        b = (mask_of([4, 7]), mask_of([7, 1]))
        c = (mask_of([1, 2]), mask_of([3, 4]))
        assert hg._venn_signature(a) == hg._venn_signature(b)
        assert hg._venn_signature(a) != hg._venn_signature(c)


class TestFreeness:
    def test_star_contains_sunflower(self):
        jf = JuntaFamily(9, 3, (1,), frozenset([mask_of([1])]))
        assert not hg.junta_is_Hs_free(jf, sunflower_hypergraph(2, 2), s=1)

    def test_intersecting_families_are_matching_free(self):
        # every member passes through vertex 1, so two disjoint members
        # cannot coexist and no matching copy fits
        jf = JuntaFamily(9, 3, (1,), frozenset([mask_of([1])]))
        H = matching_hypergraph(2, 1)
        assert hg.junta_is_Hs_free(jf, H, s=0)
        jf2 = JuntaFamily(9, 3, (1, 2), frozenset([mask_of([1, 2])]))
        assert hg.junta_is_Hs_free(jf2, H, s=0)

    def test_crowded_matching_does_not_fit(self):
        # <G> holds every 2-set of [5], and a matching trace embeds in G,
        # but three disjoint 2-sets need 6 points (h*k > n - |J|)
        jf = JuntaFamily(5, 2, (1,), frozenset([0, mask_of([1])]))
        H = matching_hypergraph(3, 1)
        assert hg.junta_is_Hs_free(jf, H, s=1) is True
        assert hg.junta_is_Hs_free_exhaustive(jf, H, s=1) is True

    def test_negative_s_rejected(self):
        jf = JuntaFamily(9, 3, (1,), frozenset([mask_of([1])]))
        for decide in (hg.junta_is_Hs_free, hg.junta_is_Hs_free_exhaustive):
            with pytest.raises(ValueError, match="non-negative"):
                decide(jf, sunflower_hypergraph(2, 2), -1)

    def test_matches_exhaustive_oracle_small(self):
        rng = np.random.default_rng(77)
        H2 = matching_hypergraph(2, 1)
        S2 = sunflower_hypergraph(2, 2)
        for H, n, k in ((H2, 8, 2), (S2, 9, 3)):
            for _ in range(10):
                J = (1,)
                G = frozenset(m for m in (0, 1) if rng.random() < 0.6)
                jf = JuntaFamily(n, k, J, G)
                fast = hg.junta_is_Hs_free(jf, H, s=1)
                slow = hg.junta_is_Hs_free_exhaustive(jf, H, s=1)
                assert fast == slow

    def test_trace_criterion_under_side_conditions(self):
        # the paper's trace criterion: <G> is (H, s)-free iff no trace of
        # H_k with center at most s embeds into G by an injection into J.
        # It is exact when h*k <= n - |J| (a found trace completes to a
        # copy outside J) and k >= c_max + |J| (every copy leaves a trace).
        rng = np.random.default_rng(4242)
        verdicts = {True: 0, False: 0}
        while sum(verdicts.values()) < 120:
            H = random_hypergraph(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
            k = H.max_edge_size() + int(rng.integers(0, 3))
            Hk = k_expand(H, k)
            c_max = max((e & Hk.center()).bit_count() for e in Hk.edges)
            if k - c_max < 1:
                continue
            j = int(rng.integers(1, min(4, k - c_max) + 1))
            n = Hk.h * k + j + int(rng.integers(0, 6))
            jf = random_junta(rng, n, k, j)
            s = int(rng.integers(0, 3))
            fast = hg.junta_is_Hs_free(jf, H, s)
            assert fast == trace_verdict(jf, Hk, s)
            verdicts[fast] += 1
        assert min(verdicts.values()) >= 10


def random_hypergraph(rng, h, k):
    """h distinct random edges of sizes 1..k over [h*k]."""
    edges = set()
    while len(edges) < h:
        size = int(rng.integers(1, k + 1))
        edges.add(mask_of(int(v) for v in rng.choice(h * k, size=size, replace=False) + 1))
    return Hypergraph(h * k, tuple(sorted(edges)))


def random_junta(rng, n, k, j):
    """J = [j] and a generator keeping each subset of J with chance 1/2."""
    J = tuple(range(1, j + 1))
    subs = [mask_of(S) for size in range(j + 1) for S in combinations(J, size)]
    return JuntaFamily(n, k, J, frozenset(m for m in subs if rng.random() < 0.5))


def trace_verdict(jf, Hk, s):
    """Freeness by the trace criterion, built from the public traces."""
    for trace in traces(Hk, support_bound=len(jf.J), center_bound=s):
        verts = coords_of(mask_of(v for t in trace for v in coords_of(t)))
        for image in permutations(jf.J, len(verts)):
            vmap = dict(zip(verts, image))
            if all(mask_of(vmap[v] for v in coords_of(t)) in jf.G for t in trace):
                return False
    return True


class TestLinearK:
    """The k-linear-in-n regime, on the star junta {A : 1 in A} over J = [j]."""

    @pytest.mark.parametrize("n, k, j", [(1000, 333, 1), (1000, 333, 3),
                                         (1000, 333, 4), (200, 40, 3)])
    def test_star_junta_verdicts(self, n, k, j):
        J = tuple(range(1, j + 1))
        G = frozenset(mask_of(S) for size in range(1, j + 1)
                      for S in combinations(J, size) if 1 in S)
        jf = JuntaFamily(n, k, J, G)
        assert hg.junta_is_Hs_free(jf, sunflower_hypergraph(2, 2), s=1) is False
        assert hg.junta_is_Hs_free(jf, matching_hypergraph(2, 1), s=0) is True


class TestCounting:
    def test_full_family_probability_one(self):
        F = SetFamily.full(7, 2)
        H = matching_hypergraph(2, 2)
        assert hg.almost_free_exact(F, H) == 1

    def test_empty_family_probability_zero(self):
        F = SetFamily.empty(7, 2)
        H = matching_hypergraph(2, 2)
        assert hg.almost_free_exact(F, H) == 0

    def test_star_sunflower_law(self):
        # both petals must route through the center: probability 1/n
        for n in (6, 9):
            F = SetFamily.star(n, 2)
            H = sunflower_hypergraph(2, 2)
            assert hg.almost_free_exact(F, H) == Fraction(1, n)

    def test_exact_matches_mc(self):
        F = SetFamily.random(8, 2, 0.6, seed=4)
        H = matching_hypergraph(2, 2)
        exact = float(hg.almost_free_exact(F, H))
        est, se = hg.almost_free_estimate(F, H, samples=30_000, seed=5)
        assert abs(est - exact) < 4 * se + 1e-9

    def test_work_bound_refusals(self, monkeypatch):
        # sunflower(3, 3) on 7 points: (n)_v = 7! = 5040, |F|**h = 35**3 = 42875
        F = SetFamily.full(7, 3)
        H = sunflower_hypergraph(3, 3)
        jf = JuntaFamily(7, 3, (1,), frozenset({1}))
        for bound, call in ((1000, lambda: hg.almost_free_exact(F, H)),
                            (10 ** 4, lambda: hg.almost_free_exact(F, H)),
                            (10, lambda: hg.junta_is_Hs_free_exhaustive(jf, H, 1))):
            monkeypatch.setattr(hg, "_EXACT_LEAVES", bound)
            with pytest.raises(hg.WorkBoundExceeded, match="work bound exceeded"):
                call()
        assert issubclass(hg.WorkBoundExceeded, ValueError)

    def test_refusal_is_instant(self):
        # 7315**2 = 5.4e7 unpruned leaves, about 3 s of search: refused before any
        F = SetFamily.full(22, 4)
        H = matching_hypergraph(2, 4)
        start = time.perf_counter()
        with pytest.raises(hg.WorkBoundExceeded):
            hg.almost_free_exact(F, H)
        assert time.perf_counter() - start < 0.05

    def test_many_injections_few_members(self):
        # (45)_5 = 146,611,080 injections exceed the default bound, but the
        # search only pairs members: |F|**2 = 946**2 = 894,916 leaves
        F = SetFamily.star(45, 3)
        assert hg.almost_free_exact(F, sunflower_hypergraph(2, 3)) == Fraction(1, 45)

    def test_edge_size_mismatch(self):
        with pytest.raises(ValueError):
            hg.almost_free_exact(SetFamily.full(6, 3), matching_hypergraph(2, 2))

    def test_random_copy_shape(self):
        H = sunflower_hypergraph(2, 3)
        copy = hg.random_copy(H, 10, seed=1)
        assert len(copy) == 2
        assert all(bin(e).count("1") == 3 for e in copy)
        inter = copy[0] & copy[1]
        assert bin(inter).count("1") == 1  # image of the shared vertex


def almost_free_by_leaves(F, H):
    """Reference count: visit all |F|^h ordered member tuples, repeats
    included, and compare each leaf's Venn signature with H's."""
    target = hg._venn_signature(H.edges)
    matches = sum(hg._venn_signature(t) == target
                  for t in product(sorted(F.members), repeat=H.h))
    cell_perms = math.prod(math.factorial(c) for c in target)
    v = bin(H.support()).count("1")
    return Fraction(matches * cell_perms, math.perm(F.n, v))


ORACLE_HYPERGRAPHS = {
    "i21": sunflower_hypergraph(2, 3),
    "m2": matching_hypergraph(2, 3),
    "sunflower33": sunflower_hypergraph(3, 3),
    "matching32": matching_hypergraph(3, 2),
    "sunflower32": sunflower_hypergraph(3, 2),
    "repeated": Hypergraph(3, (0b011, 0b011, 0b110), allow_repeats=True),
}


class TestCountingOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_HYPERGRAPHS))
    def test_pruned_search_matches_leaf_enumeration(self, name):
        H = ORACLE_HYPERGRAPHS[name]
        k = H.max_edge_size()
        v = bin(H.support()).count("1")
        families = [SetFamily.empty(v + 1, k), SetFamily.full(v, k)]
        for seed in range(34):
            n = v + seed % 2
            density = (0.1, 0.25, 0.45)[seed % 3]
            families.append(SetFamily.random(n, k, density, seed=1000 + seed))
        for F in families:
            assert hg.almost_free_exact(F, H) == almost_free_by_leaves(F, H)


class TestTraceProbability:
    def test_sunflower_center_trace_order(self):
        # Pr[the shared vertex lands on coordinate 1 and nothing else does]
        H = sunflower_hypergraph(2, 2)
        trace = (mask_of([1]), mask_of([1]))
        ladder = [12, 16, 20]
        ests = []
        for n in ladder:
            est, se = hg.trace_probability_order(H, [1], trace, n, 20_000, seed=n)
            assert abs(est - 1.0 / n) < 5 * se + 1e-3
            ests.append(est)
        # decay consistent with n^-1 within a factor-3 band
        for (n1, e1), (n2, e2) in zip(zip(ladder, ests), zip(ladder[1:], ests[1:])):
            assert e2 / e1 <= 3.0 * (n1 / n2)

    def test_empty_trace_is_order_one(self):
        H = matching_hypergraph(2, 2)
        trace = (0, 0)
        est, _ = hg.trace_probability_order(H, [1], trace, 20, 20_000, seed=3)
        assert est > 0.5

    def test_infeasible_trace(self):
        H = matching_hypergraph(2, 2)
        est, se = hg.trace_probability_order(H, [1], (mask_of([2]), 0), 10, 10, 0)
        assert est == 0.0 and se == 0.0


class TestBatchedDraws:
    """Laws of the batched copy draws, at fixed seeds with 4-sigma bands."""

    def test_injections_uniform_over_ordered_pairs(self):
        # chi-square over all 20 ordered pairs of distinct points of [5]
        n, draws = 5, 100_000
        H = Hypergraph(2, (0b11,))
        images = hg._random_images(H, n, np.random.default_rng(31), draws)
        assert np.all(images[:, 0] != images[:, 1])
        counts = np.bincount(images[:, 0] * n + images[:, 1], minlength=n * n)
        counts = counts[[a * n + b for a in range(n) for b in range(n) if a != b]]
        expected = draws / len(counts)
        stat = float(np.sum((counts - expected) ** 2 / expected))
        dof = len(counts) - 1
        # Wilson-Hilferty quantile at z = 4
        crit = dof * (1.0 - 2.0 / (9.0 * dof) + 4.0 * math.sqrt(2.0 / (9.0 * dof))) ** 3
        assert stat < crit

    def test_trace_probability_matches_injection_enumeration(self):
        n = 7
        H = sunflower_hypergraph(2, 3)
        verts = coords_of(H.support())
        J = [1, 4, 6]
        jmask = mask_of(J)
        for trace, seed in (((mask_of([1]), mask_of([1])), 41),
                            ((mask_of([4]), mask_of([1, 4])), 42),
                            ((mask_of([6]), 0), 43)):
            hits = total = 0
            for image in permutations(range(1, n + 1), len(verts)):
                vmap = dict(zip(verts, image))
                copy = [mask_of(vmap[v] for v in coords_of(e)) for e in H.edges]
                total += 1
                hits += all((e & jmask) == B for e, B in zip(copy, trace))
            exact = hits / total
            est, se = hg.trace_probability_order(H, J, trace, n, 20_000, seed=seed)
            assert exact > 0.0
            assert abs(est - exact) < 4 * se

    def test_object_masks_above_62_bits(self):
        # n = 66 masks do not fit int64; both petals must meet at 1
        est, se = hg.almost_free_estimate(SetFamily.star(66, 2), sunflower_hypergraph(2, 2),
                                          20_000, seed=44)
        assert abs(est - 1.0 / 66) < 4 * se

    def test_estimate_independent_of_chunk_size(self, monkeypatch):
        # chunks read consecutive rows of one stream of uniforms
        F = SetFamily.random(9, 3, 0.5, seed=45)
        H = sunflower_hypergraph(2, 3)
        whole = hg.almost_free_estimate(F, H, 5_000, seed=46)
        monkeypatch.setattr(cube, "_DRAW_CHUNK", 7)
        assert hg.almost_free_estimate(F, H, 5_000, seed=46) == whole
