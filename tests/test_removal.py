from itertools import combinations

import numpy as np
import pytest

from biasedcube import removal
from biasedcube.cube import DenseFunction, expectation, mask_of
from biasedcube.families import JuntaFamily, SetFamily, family_slice
from biasedcube.hypergraphs import (
    k_expand,
    matching_hypergraph,
    sunflower_hypergraph,
)
from biasedcube.noise import CouplingParams


def maj(n):
    return DenseFunction.from_predicate(n, lambda x: bin(x).count("1") > n // 2)


def greedy_family_junta_oracle(F, j_max=4, reg_delta=0.25, g_threshold=None):
    """The slice loop greedy_family_junta replaced: two family_slice calls
    per candidate and per B, and one per B for the generator."""
    base = F.measure
    J: list = []
    while len(J) < min(j_max, F.n - F.k):
        best = None
        for i in range(1, F.n + 1):
            if i in J:
                continue
            cand = sorted(J + [i])
            dev = 0.0
            for bbits in range(1 << len(J)):
                B = [c for idx, c in enumerate(J) if bbits >> idx & 1]
                if len(B) + 1 > F.k:
                    continue
                with_i = family_slice(F, cand, B + [i]).measure
                without_i = family_slice(F, cand, B).measure
                dev = max(dev, abs(with_i - without_i))
            if best is None or dev > best[0]:
                best = (dev, i)
        if best is None or best[0] < reg_delta:
            break
        J = sorted(J + [best[1]])
    thr = 0.5 * base if g_threshold is None else g_threshold
    G = []
    for bbits in range(1 << len(J)):
        B = [c for idx, c in enumerate(J) if bbits >> idx & 1]
        if len(B) > F.k:
            continue
        if family_slice(F, J, B).measure >= thr:
            G.append(mask_of(B))
    return JuntaFamily(F.n, F.k, tuple(J), frozenset(G))


def junta_instances(count, seed):
    """Seeded families, k = 1..5 on n = k+2..k+5 points (n <= 10): random,
    empty, full, star and junta-generated; each with a j_max in 1..4."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        k = 1 + t % 5
        n = min(k + 2 + int(rng.integers(0, 4)), 10)
        kind = t // 5 % 5
        if kind == 0:
            F = SetFamily.random(n, k, rng.uniform(0.05, 0.6), int(rng.integers(2 ** 31)))
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
        yield F, int(rng.integers(1, 5)), rng


class TestDecompose:
    def test_constant_needs_no_junta(self):
        f = DenseFunction.constant(6, 1.0)
        dec = removal.decompose(f, 0.3, 0.8, delta=0.05, j_max=4)
        assert dec.J == () and not dec.failed
        assert dec.parts[0] == "quasirandom"

    def test_sparse_function_negligible(self):
        f = DenseFunction.from_predicate(8, lambda x: x == 255)
        dec = removal.decompose(f, 0.3, 0.8, delta=0.05, j_max=4)
        assert dec.parts[0] == "negligible" and dec.J == ()

    def test_dictator_isolated(self):
        f = DenseFunction.dictator(6, 3)
        dec = removal.decompose(f, 0.4, 0.9, delta=0.05, j_max=4)
        assert dec.J == (3,) and not dec.failed
        assert dec.parts[mask_of([3])] == "quasirandom"
        assert dec.parts[0] == "negligible"
        assert dec.bad_mass == 0.0

    def test_masses_sum_to_one(self):
        f = maj(7)
        dec = removal.decompose(f, 0.4, 0.9, delta=0.02, j_max=5)
        total = sum(d["mass"] for d in dec.diagnostics.values())
        assert abs(total - 1.0) < 1e-12

    def test_j_max_cap(self):
        with pytest.raises(ValueError):
            removal.decompose(maj(5), 0.3, 0.8, 0.01, j_max=13)


class TestMonotoneJunta:
    def test_dictator_recovered_exactly(self):
        f = DenseFunction.dictator(6, 2)
        cp = CouplingParams(0.4, 0.6)
        g, err_q, err_p, rep = removal.monotone_junta_approx(
            f, cp, delta=0.05, eps=0.1, j_max=4)
        assert rep["J"] == [2]
        assert err_q < 1e-12 and err_p < 1e-12
        assert np.array_equal(g.values, f.values)

    def test_majority_recovered(self):
        f = maj(3)
        cp = CouplingParams(0.3, 0.6)
        g, err_q, err_p, _ = removal.monotone_junta_approx(
            f, cp, delta=0.01, eps=0.02, j_max=4)
        assert np.array_equal(g.values, f.values)
        assert err_q == 0.0 and err_p == 0.0

    def test_output_always_monotone(self):
        rng = np.random.default_rng(13)
        cp = CouplingParams(0.3, 0.6)
        for _ in range(5):
            f = DenseFunction(6, (rng.random(64) < 0.4).astype(float), boolean=True)
            g, _, _, _ = removal.monotone_junta_approx(f, cp, delta=0.05,
                                                       eps=0.2, j_max=4)
            assert removal.is_monotone(g)

    def test_two_branch_threshold_example(self):
        # coordinate 1 switches between a sparse branch and a dense one;
        # the approximation should find the single relevant coordinate
        n, q, p = 15, 0.3, 0.6

        def pred(x):
            rest = bin(x >> 1).count("1")
            return rest >= (0.6 * (n - 1) if x & 1 == 0 else 0.3 * (n - 1))

        f = DenseFunction.from_predicate(n, pred)
        cp = CouplingParams(q, p)
        g, err_q, err_p, rep = removal.monotone_junta_approx(
            f, cp, delta=0.012, eps=0.2, j_max=4)
        assert rep["J"] == [1]
        assert err_q <= 0.15 and err_p <= 0.15

    def test_boolean_required(self):
        with pytest.raises(ValueError):
            removal.monotone_junta_approx(DenseFunction.constant(3, 0.5),
                                          CouplingParams(0.3, 0.6))


class TestThresholdCurve:
    def test_dictator_curve(self):
        f = DenseFunction.dictator(5, 1)
        curve = removal.threshold_curve(f, [0.1, 0.5, 0.9])
        assert np.allclose(curve.mus, [0.1, 0.5, 0.9], atol=1e-12)
        assert abs(curve.p_c - 0.5) < 1e-6
        assert curve.monotone

    def test_majority_critical_half(self):
        curve = removal.threshold_curve(maj(9), [0.3, 0.5, 0.7])
        assert abs(curve.p_c - 0.5) < 1e-6
        assert curve.mus[0] < 0.5 < curve.mus[2]

    def test_and_curve(self):
        f = DenseFunction.from_predicate(3, lambda x: x == 7)
        curve = removal.threshold_curve(f, [0.2, 0.9])
        assert abs(curve.mus[0] - 0.2 ** 3) < 1e-12
        assert abs(curve.p_c - 0.5 ** (1 / 3)) < 1e-6

    def test_constant_zero_no_crossing(self):
        curve = removal.threshold_curve(DenseFunction.constant(4, 0.0), [0.5])
        assert curve.p_c is None


class TestRobustFK:
    def test_majority_instances_pass(self):
        cases = [(9, CouplingParams(0.35, 0.65), 0.5, 0.2),
                 (9, CouplingParams(0.35, 0.65), 0.6, 0.2),
                 (5, CouplingParams(0.3, 0.7), 0.6, 0.2),
                 (7, CouplingParams(0.3, 0.7), 0.5, 0.25)]
        for n, cp, delta, eps in cases:
            f = maj(n)
            out = removal.robust_fk_instance(f, f, cp, delta, eps)
            assert out["verdict"] == "pass"

    def test_constants_pass(self):
        cp = CouplingParams(0.3, 0.7)
        zero = DenseFunction.constant(6, 0.0)
        one = DenseFunction.constant(6, 1.0)
        assert removal.robust_fk_instance(zero, zero, cp, 0.5, 0.1)["verdict"] == "pass"
        assert removal.robust_fk_instance(one, one, cp, 0.5, 0.1)["verdict"] == "pass"

    def test_irregular_function_not_applicable(self):
        cp = CouplingParams(0.3, 0.7)
        d = DenseFunction.dictator(5, 1)
        assert removal.robust_fk_instance(d, d, cp, 0.5, 0.35)["verdict"] == "not_applicable"


class TestGreedyFamilyJunta:
    def test_star_recovered(self):
        F = SetFamily.star(9, 3)
        jf = removal.greedy_family_junta(F)
        assert jf.J == (1,)
        assert jf.generated().members == F.members

    def test_full_family_trivial_junta(self):
        F = SetFamily.full(8, 3)
        jf = removal.greedy_family_junta(F)
        assert jf.J == ()
        assert jf.generated() == F

    def test_matches_slice_oracle(self):
        # reg_delta at the default, low enough to grow J, and exactly at
        # the largest first-round deviation (a tie on the stopping rule);
        # g_threshold exactly at one slice measure of the oracle's J
        grown = 0
        for F, j_max, rng in junta_instances(210, seed=41):
            first = max(abs(family_slice(F, [i], [i]).measure - family_slice(F, [i], []).measure)
                        for i in range(1, F.n + 1))
            for reg_delta in (0.25, first, 0.05):
                want = greedy_family_junta_oracle(F, j_max, reg_delta)
                assert removal.greedy_family_junta(F, j_max, reg_delta) == want, (F, reg_delta)
                grown += len(want.J) > 0
            B = [c for c in want.J if rng.random() < 0.5][:F.k]  # on the J of reg_delta 0.05
            thr = family_slice(F, want.J, B).measure
            assert (removal.greedy_family_junta(F, j_max, 0.05, thr)
                    == greedy_family_junta_oracle(F, j_max, 0.05, thr))
        assert grown >= 100


class TestPipeline:
    def test_star_vs_sunflower(self):
        F = SetFamily.star(9, 3)
        H = k_expand(sunflower_hypergraph(2, 2), 3)
        rep = removal.removal_pipeline(F, H, s=1, seed=0, samples=4_000)
        assert rep["almost_free"]["exact"] == "1/9"
        assert rep["junta"]["J"] == [1]
        assert rep["junta"]["escaping_mass"] == 0.0
        assert rep["freeness"]["free"] is False  # star hosts sunflowers
        assert rep["converse_decay"]["within_band"]

    def test_star_vs_matching(self):
        F = SetFamily.star(9, 3)
        H = matching_hypergraph(2, 3)
        rep = removal.removal_pipeline(F, H, s=0, seed=1, samples=4_000)
        assert rep["freeness"]["free"] is True  # intersecting family
        # every copy needs both edges through vertex 1, impossible
        assert rep["almost_free"]["value"] == 0.0

    def test_reports_reproducible_hash(self):
        F = SetFamily.star(8, 3)
        H = matching_hypergraph(2, 3)
        a = removal.removal_pipeline(F, H, s=0, seed=3, samples=2_000)
        b = removal.removal_pipeline(F, H, s=0, seed=3, samples=2_000)
        assert a == b

    def test_malformed_instance_raises_without_fallback(self, monkeypatch):
        # edges of size 2 against a 3-uniform family: an input error, not a
        # refused work bound, so no Monte-Carlo estimate may stand in
        def fallback(*args, **kwargs):
            raise AssertionError("fell back to Monte-Carlo")

        monkeypatch.setattr(removal, "almost_free_estimate", fallback)
        with pytest.raises(ValueError, match="edge sizes"):
            removal.removal_pipeline(SetFamily.star(8, 3), matching_hypergraph(2, 2), s=0)

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            removal.removal_pipeline(SetFamily.full(15, 3),
                                     matching_hypergraph(2, 3), s=0)
