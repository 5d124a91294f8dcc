import math
from itertools import combinations

import numpy as np
import pytest

from biasedcube import removal
from biasedcube.cube import DenseFunction, expectation, mask_of, noisy_influence, restrict
from biasedcube.families import JuntaFamily, SetFamily, family_slice
from biasedcube.hypergraphs import (
    k_expand,
    matching_hypergraph,
    sunflower_hypergraph,
)
from biasedcube.noise import CouplingParams, _submasks


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


def decompose_oracle(f, q, rho, delta, j_max, neg_threshold=0.05):
    """The part loop decompose replaced: one restrict per part, then one
    expectation and one noisy_influence (a full transform) per remaining
    coordinate of each part."""
    J: list = []
    while True:
        statuses, diags, worst = {}, {}, None
        for a_mask in sorted(_submasks(mask_of(J))):
            mass = math.prod((q if a_mask >> (c - 1) & 1 else 1.0 - q for c in J), start=1.0)
            if len(J) == f.n:
                mean = float(f.values[a_mask])
                infs = []
            else:
                part = restrict(f, J, a_mask)
                mean = expectation(part, q)
                infs = [noisy_influence(part, i, rho, q) for i in range(1, part.n + 1)]
            maxinf = max(infs, default=0.0)
            if mean < neg_threshold:
                status = "negligible"
            elif maxinf < delta:
                status = "quasirandom"
            else:
                status = "bad"
            statuses[a_mask] = status
            diags[a_mask] = {"mass": mass, "mean": mean, "max_noisy_influence": maxinf}
            if status == "bad" and mass >= delta:
                rest = [c for c in range(1, f.n + 1) if c not in J]
                cand = (maxinf * mass, rest[int(np.argmax(infs))])
                if worst is None or cand > worst:
                    worst = cand
        bad_mass = sum(d["mass"] for a, d in diags.items() if statuses[a] == "bad")
        if worst is None or len(J) >= j_max:
            return removal.Decomposition(tuple(J), statuses, diags, worst is not None, bad_mass)
        J.append(worst[1])
        J.sort()


def decompose_instances(count, seed):
    """Seeded generic functions on n = 1..12 points: Boolean, real-valued in
    [0, 1], a junta plus noise, dictator and constant; q in {0.3, 0.4, 0.5},
    random rho and delta, j_max from 1 up to n."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = 1 + t % 12
        kind = t // 12 % 5
        j_max = int(rng.integers(1, n + 1))
        if kind == 0 and n >= 5:
            # a Boolean part on few free coordinates is often symmetric, and
            # then rounding alone breaks its exact ties: keep 4 coordinates free
            f = DenseFunction(n, (rng.random(1 << n) < rng.uniform(0.2, 0.8)).astype(float),
                              boolean=True)
            j_max = min(j_max, n - 4)
        elif kind <= 1:
            f = DenseFunction(n, rng.random(1 << n))
        elif kind == 2:
            junta = rng.random(1 << min(n, 3))[np.arange(1 << n) & ((1 << min(n, 3)) - 1)]
            f = DenseFunction(n, 0.9 * junta + 0.1 * rng.random(1 << n))
        elif kind == 3:
            f = DenseFunction.dictator(n, int(rng.integers(1, n + 1)))
        else:
            f = DenseFunction.constant(n, rng.uniform(0.0, 1.0))
        q = (0.3, 0.4, 0.5)[t % 3]
        yield f, q, rng.uniform(0.3, 1.0), 10 ** rng.uniform(-3.0, -0.7), j_max


def assert_same_decomposition(got, want):
    assert got.J == want.J and got.parts == want.parts and got.failed == want.failed
    assert abs(got.bad_mass - want.bad_mass) <= 1e-12
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for a, d in want.diagnostics.items():
        for key, value in d.items():
            assert abs(got.diagnostics[a][key] - value) <= 1e-12, (a, key)


class TestDecompose:
    def test_matches_part_loop_oracle(self):
        grown = full = 0
        for f, q, rho, delta, j_max in decompose_instances(240, seed=57):
            want = decompose_oracle(f, q, rho, delta, j_max)
            assert_same_decomposition(removal.decompose(f, q, rho, delta, j_max), want)
            grown += len(want.J) > 0
            full += len(want.J) == f.n
        assert grown >= 100 and full >= 10

    def test_parity_fixes_every_coordinate(self):
        # every part of parity keeps full noisy influence until J = [n]
        f = DenseFunction.from_predicate(3, lambda x: bin(x).count("1") % 2 == 1)
        for j_max in (2, 3, 4):
            want = decompose_oracle(f, 0.4, 0.9, 0.01, j_max)
            got = removal.decompose(f, 0.4, 0.9, 0.01, j_max)
            assert_same_decomposition(got, want)
        assert got.J == (1, 2, 3) and not got.failed
        assert all(d["max_noisy_influence"] == 0.0 for d in got.diagnostics.values())

    def test_one_part_spectra_per_round(self, monkeypatch):
        calls = []
        real = removal.part_spectra
        monkeypatch.setattr(removal, "part_spectra", lambda *a: calls.append(a) or real(*a))
        dec = removal.decompose(DenseFunction.dictator(6, 3), 0.4, 0.9, delta=0.05, j_max=4)
        assert dec.J == (3,) and len(calls) == 2

    def test_rho_checked(self):
        with pytest.raises(ValueError, match="rho"):
            removal.decompose(maj(4), 0.3, 1.5, 0.01, j_max=2)

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

    def test_junta_is_up_closure_of_quasirandom_parts(self):
        # g(x) = 1 exactly when some quasirandom part a has a inside x
        rng = np.random.default_rng(29)
        cp = CouplingParams(0.3, 0.6)
        sizes = set()
        for _ in range(30):
            n = int(rng.integers(3, 9))
            f = DenseFunction(n, (rng.random(1 << n) < rng.uniform(0.2, 0.8)).astype(float),
                              boolean=True)
            g, _, _, rep = removal.monotone_junta_approx(f, cp, delta=0.03, eps=0.2, j_max=4)
            dec = removal.decompose(f, cp.q, cp.rho, 0.03, 4, neg_threshold=0.1)
            good = [a for a, st in dec.parts.items() if st == "quasirandom"]
            assert g.values.tolist() == [float(any(a & ~x == 0 for a in good))
                                         for x in range(1 << n)]
            sizes.add((len(rep["J"]), len(good)))
        assert len(sizes) >= 5

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


def is_monotone_pairs(values, n):
    """Oracle for is_monotone: every pair x < x + e_i compared one at a time."""
    return all(values[x] <= values[x | 1 << i]
               for x in range(1 << n) for i in range(n) if not x >> i & 1)


class TestIsMonotone:
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_boolean_path_matches_float_path_and_pairs(self, n):
        rng = np.random.default_rng(300 + n)
        x = np.arange(1 << n)
        weights = rng.uniform(0.5, 1.5, n)
        real = sum(w * ((x >> b) & 1) for b, w in enumerate(weights))
        threshold = (real >= 0.5 * weights.sum()).astype(float)
        tables = [real, threshold, (rng.random(1 << n) < 0.5).astype(float),
                  np.zeros(1 << n), np.ones(1 << n)]
        for i in range(n):
            # reversing coordinate i plants violations along i and no other
            tables += [real[x ^ 1 << i], threshold[x ^ 1 << i]]
        for values in tables:
            want = is_monotone_pairs(values, n)
            assert removal.is_monotone(DenseFunction(n, values)) == want
            if np.all((values == 0.0) | (values == 1.0)):
                assert removal.is_monotone(DenseFunction(n, values, boolean=True)) == want
        planted = tables[5:]
        assert not any(is_monotone_pairs(v, n) for v in planted)
        assert is_monotone_pairs(real, n) and is_monotone_pairs(threshold, n)


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

    def test_flat_curve_has_no_critical_probability(self):
        # mu_p = 1/2 for every p; the end residuals round to 0.0 or -5.6e-17
        for n in range(1, 13):
            curve = removal.threshold_curve(DenseFunction.constant(n, 0.5), [0.2, 0.7])
            assert curve.p_c is None
            if n >= 2:
                x = np.arange(1 << n)
                f = DenseFunction(n, 0.5 + (x & 1) - (x >> 1 & 1))
                assert removal.threshold_curve(f, [0.3]).p_c is None


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

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            removal.removal_pipeline(SetFamily.star(9, 3), sunflower_hypergraph(2, 3), s=-1)

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            removal.removal_pipeline(SetFamily.full(15, 3),
                                     matching_hypergraph(2, 3), s=0)
