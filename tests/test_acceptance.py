"""Acceptance gate: one test per headline guarantee, each printing a
single pass/fail line at the stated tolerance and runtime budget."""

import contextlib
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from biasedcube import cube, families, gaussian, hypergraphs, matchings, noise, removal
from biasedcube.cube import DenseFunction, mask_of
from biasedcube.families import JuntaFamily, SetFamily
from biasedcube.hypergraphs import Hypergraph, k_expand
from biasedcube.matchings import MatchingSpec
from biasedcube.noise import CouplingParams


@contextlib.contextmanager
def criterion(capsys, num, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion-{num} {name}: FAIL "
                  f"({time.monotonic() - start:.1f}s)", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion-{num} {name}: PASS "
              f"({time.monotonic() - start:.1f}s)", flush=True)


def maj(n):
    return DenseFunction.from_predicate(n, lambda x: bin(x).count("1") > n // 2)


def test_criterion_1_exact_fourier_suite(capsys):
    with criterion(capsys, 1, "exact Fourier suite (1e-9, <10s)"):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        for trial in range(100):
            n = int(rng.integers(1, 11))
            p = float(rng.choice([0.2, 0.5, 0.8]))
            f = DenseFunction(n, rng.random(1 << n))
            g = DenseFunction(n, rng.random(1 << n))
            sf = cube.transform(f, p)
            sg = cube.transform(g, p)
            # round trip
            back = cube.inverse_transform(sf)
            assert float(np.max(np.abs(back.values - f.values))) < 1e-9
            # Parseval, both identities
            assert abs(float(np.sum(sf.coeffs ** 2))
                       - cube.inner_product(f, f, p)) < 1e-9
            assert abs(float(np.dot(sf.coeffs, sg.coeffs))
                       - cube.inner_product(f, g, p)) < 1e-9
            # averaging operator kills exactly the coefficients meeting T
            size = int(rng.integers(1, n + 1))
            T = [int(c) for c in rng.choice(np.arange(1, n + 1),
                                            size=size, replace=False)]
            sa = cube.transform(cube.average_over(f, T, p), p).coeffs
            expect = np.where(np.arange(1 << n) & mask_of(T), 0.0, sf.coeffs)
            assert float(np.max(np.abs(sa - expect))) < 1e-9
        # character orthonormality, dense check
        for p in (0.2, 0.5, 0.8):
            n = 6
            w = cube.BiasWeights(n, p).table()
            C = np.stack([cube.character_table(n, S, p) for S in range(1 << n)])
            gram = (C * w) @ C.T
            assert float(np.max(np.abs(gram - np.eye(1 << n)))) < 1e-9
        assert time.monotonic() - start < 10.0


def test_criterion_2_directed_operator_spectral_law(capsys):
    with criterion(capsys, 2, "directed operators, dual routes (1e-10, <5s)"):
        start = time.monotonic()
        rng = np.random.default_rng(1002)
        pairs = [(0.2, 0.5)]  # the exact rho = 0.5 instance, then random pairs
        while len(pairs) < 12:
            q, p = sorted(rng.uniform(0.05, 0.95, size=2))
            if p - q > 0.02:
                pairs.append((float(q), float(p)))
        assert abs(CouplingParams(0.2, 0.5).rho - 0.5) < 1e-15
        for q, p in pairs:
            cp = CouplingParams(q, p)
            n = int(rng.integers(1, 9))
            f = DenseFunction(n, rng.random(1 << n))
            up_s = noise.directed_up(f, cp, method="spectral")
            up_d = noise.directed_up(f, cp, method="definitional")
            assert float(np.max(np.abs(up_s.values - up_d.values))) < 1e-10
            dn_s = noise.directed_down(f, cp, method="spectral")
            dn_d = noise.directed_down(f, cp, method="definitional")
            assert float(np.max(np.abs(dn_s.values - dn_d.values))) < 1e-10
        assert time.monotonic() - start < 5.0


def test_criterion_3_character_conditional_identities(capsys):
    with criterion(capsys, 3, "single-coordinate conditional identities (1e-12)"):
        grid = [(i + 1) / 11 for i in range(10)]
        for q in grid:
            for p in grid:
                if not q < p:
                    continue
                cp = CouplingParams(q, p)
                chi_q = DenseFunction(1, cube.character_table(1, 1, q),
                                      boolean=False, bounded=False)
                chi_p = DenseFunction(1, cube.character_table(1, 1, p),
                                      boolean=False, bounded=False)
                # E[chi^q(x) | y] = rho chi^p(y)
                up = noise.directed_up(chi_q, cp, method="definitional")
                assert float(np.max(np.abs(up.values - cp.rho * chi_p.values))) < 1e-12
                # E[chi^p(y) | x] = rho chi^q(x)
                dn = noise.directed_down(chi_p, cp, method="definitional")
                assert float(np.max(np.abs(dn.values - cp.rho * chi_q.values))) < 1e-12


def test_criterion_4_lambda_suite(capsys):
    with criterion(capsys, 4, "correlated orthant suite (<60s)"):
        start = time.monotonic()
        rng = np.random.default_rng(1004)
        # independence and absorbing boundaries
        for mu in (0.05, 0.3, 0.5, 0.9):
            for nu in (0.1, 0.5, 0.77):
                assert abs(gaussian.lambda_rho(0.0, mu, nu) - mu * nu) < 1e-10
        for rho in (0.1, 0.5, 0.9):
            for mu in (0.2, 0.5, 0.8):
                assert abs(gaussian.lambda_rho(rho, mu, 1.0) - mu) < 1e-10
        # arcsine point against a 1e7-sample MC oracle and the closed form
        closed = 0.25 + math.asin(0.5) / (2.0 * math.pi)
        val = gaussian.lambda_rho(0.5, 0.5, 0.5)
        assert abs(val - closed) < 1e-9
        assert abs(val - 1.0 / 3.0) < 1e-6
        est, se = gaussian.lambda_mc(0.5, 0.5, 0.5, samples=10_000_000, seed=4)
        assert abs(est - val) < 4.0 * se
        # Lipschitz bound on 100 random tuples
        for _ in range(100):
            r1, r2 = sorted(rng.uniform(0.0, 0.97, size=2))
            if r2 - r1 < 1e-3:
                r2 = r1 + 1e-3
            mu, nu = rng.uniform(0.05, 0.95, size=2)
            lhs, bound = gaussian.lambda_lipschitz_check(float(r1), float(r2),
                                                         float(mu), float(nu))
            assert lhs <= bound
        # gap law at eps = 0.2 over an 11^3 grid
        eps = 0.2
        delta = gaussian.lambda_gap(eps)
        assert delta > 0.0
        rhos = np.linspace(0.01, 1.0 - eps - 0.01, 11)
        mus = np.linspace(eps + 0.01, 0.99, 11)
        nus = np.linspace(0.01, 1.0 - eps - 0.01, 11)
        for rho in rhos:
            for mu in mus:
                for nu in nus:
                    v = gaussian.lambda_rho(float(rho), float(mu), float(nu),
                                            tol=1e-9)
                    assert v <= mu - delta + 1e-8
        assert time.monotonic() - start < 60.0


def test_criterion_5_lift_identity_and_cut_stability(capsys):
    with criterion(capsys, 5, "family lift identity and cut stability (1e-10)"):
        rng = np.random.default_rng(1005)
        for _ in range(50):
            n = int(rng.integers(5, 13))
            k = int(rng.integers(1, min(5, n) + 1))
            F = SetFamily.random(n, k, float(rng.uniform(0.2, 0.8)),
                                 seed=int(rng.integers(1 << 30)))
            q = float(rng.uniform(0.1, 0.9))
            lhs, rhs = families.lift_measure_identity(F, q)
            assert abs(lhs - rhs) < 1e-10
        cp = CouplingParams(0.4, 0.6)
        delta = 0.3
        done = 0
        while done < 50:
            n = int(rng.integers(8, 12))
            k = int(rng.integers(1, 4))
            if cp.q <= k / n:
                continue
            F = SetFamily.random(n, k, float(rng.uniform(0.2, 0.8)),
                                 seed=int(rng.integers(1 << 30)))
            val = families.cut_stability_check(F, cp, delta)
            assert val <= delta + 1e-12
            done += 1


def test_criterion_6_star_law_and_pipeline_separation(capsys):
    with criterion(capsys, 6, "star counting law and pipeline separation"):
        for n in (6, 9, 12):
            k = n // 3
            F = SetFamily.star(n, k)
            H = k_expand(hypergraphs.sunflower_hypergraph(2, 2), k)
            assert hypergraphs.almost_free_exact(F, H) == Fraction(1, n)
        # the separation: the star is matching-free but hosts sunflowers
        F = SetFamily.star(9, 3)
        rep_m = removal.removal_pipeline(
            F, hypergraphs.matching_hypergraph(2, 3), s=0, seed=6, samples=4_000)
        assert rep_m["freeness"]["free"] is True
        assert rep_m["almost_free"]["value"] == 0.0
        rep_i = removal.removal_pipeline(
            F, k_expand(hypergraphs.sunflower_hypergraph(2, 2), 3), s=1,
            seed=6, samples=4_000)
        assert rep_i["freeness"]["free"] is False
        assert rep_i["almost_free"]["exact"] == "1/9"
        assert rep_i["converse_decay"]["within_band"]


def _freeness_instance(rng):
    while True:
        h = int(rng.integers(2, 4))
        if h == 3:
            k, n = 2, 8
        else:
            k, n = int(rng.integers(2, 4)), 9
        u = h * k
        edges = set()
        tries = 0
        while len(edges) < h and tries < 50:
            tries += 1
            size = int(rng.integers(1, k + 1))
            e = tuple(sorted(int(v) for v in
                             rng.choice(u, size=size, replace=False) + 1))
            edges.add(e)
        if len(edges) < h:
            continue
        H = Hypergraph(u, tuple(mask_of(e) for e in edges))
        j = int(rng.integers(1, 5))
        J = tuple(range(1, j + 1))
        subs = [mask_of(S) for size in range(j + 1)
                for S in combinations(J, size)]
        G = frozenset(m for m in subs if rng.random() < 0.5)
        s = int(rng.integers(0, 3))
        return JuntaFamily(n, k, J, G), H, s


def _breaks_trace_side_condition(jf, H):
    """Does the instance break h*k <= n - |J| or k >= c_max + |J|, the
    conditions under which the paper's trace criterion decides freeness?"""
    Hk = k_expand(H, jf.k)
    c_max = max((e & Hk.center()).bit_count() for e in Hk.edges)
    return Hk.h * jf.k > jf.n - len(jf.J) or jf.k < c_max + len(jf.J)


def test_criterion_7_freeness_equivalence(capsys):
    with criterion(capsys, 7, "Venn-cell freeness vs exhaustive search (200 instances)"):
        rng = np.random.default_rng(1007)
        verdicts = {True: 0, False: 0}
        broken = 0
        for _ in range(200):
            jf, H, s = _freeness_instance(rng)
            fast = hypergraphs.junta_is_Hs_free(jf, H, s)
            slow = hypergraphs.junta_is_Hs_free_exhaustive(jf, H, s)
            assert fast == slow
            verdicts[fast] += 1
            broken += _breaks_trace_side_condition(jf, H)
        # both outcomes must actually occur for the check to mean anything
        assert verdicts[True] > 10 and verdicts[False] > 10
        # and many must lie where the trace criterion cannot decide
        assert broken >= 50


def test_criterion_8_matching_suite(capsys):
    with criterion(capsys, 8, "matching distribution suite"):
        # chi-square goodness of fit for the uniform sampler
        n, sizes = 6, (2, 1)
        law = matchings.uniform_matching_distribution(n, sizes)
        keys = sorted(law)
        idx = {t: i for i, t in enumerate(keys)}
        rng = np.random.default_rng(1008)
        draws = 60_000
        counts = np.zeros(len(keys))
        spec = MatchingSpec(n, "uniform", sizes=sizes)
        for _ in range(draws):
            counts[idx[matchings.sample(spec, rng)]] += 1
        expected = np.array([law[t] * draws for t in keys])
        stat = float(np.sum((counts - expected) ** 2 / expected))
        dof = len(keys) - 1
        crit = dof * (1.0 - 2.0 / (9.0 * dof)
                      + 3.0902 * math.sqrt(2.0 / (9.0 * dof))) ** 3
        assert stat < crit
        # the exact 1/12 instance
        fams = [SetFamily(4, 1, frozenset([mask_of([1])])),
                SetFamily(4, 1, frozenset([mask_of([2])]))]
        assert matchings.cross_probability_exact(4, (1, 1), fams) == Fraction(1, 12)
        # exact vs MC within 4 sigma
        fams = [SetFamily.random(8, 2, 0.5, seed=81),
                SetFamily.random(8, 2, 0.5, seed=82)]
        exact = float(matchings.cross_probability_exact(8, (2, 2), fams))
        est, se = matchings.cross_probability_mc(8, (2, 2), fams, 40_000, seed=83)
        assert abs(est - exact) < 4.0 * se
        # event equivalence on 10^4 sampled copies, zero exceptions
        H = hypergraphs.sunflower_hypergraph(2, 3)
        fams = [SetFamily.random(9, 3, 0.5, seed=84),
                SetFamily.star(9, 3)]
        out = matchings.expanded_event_equivalence(H, fams, samples=10_000, seed=85)
        assert out["samples"] == 10_000 and out["mismatches"] == 0


def test_criterion_9_robust_fk_battery(capsys):
    with criterion(capsys, 9, "regular cross-term dichotomy battery"):
        rng = np.random.default_rng(1009)
        instances = []
        # majorities under the monotone coupling: hypotheses verify, must pass
        instances.append((maj(9), maj(9), CouplingParams(0.35, 0.65), 0.5, 0.2))
        instances.append((maj(9), maj(9), CouplingParams(0.35, 0.65), 0.6, 0.2))
        instances.append((maj(5), maj(5), CouplingParams(0.3, 0.7), 0.6, 0.2))
        instances.append((maj(7), maj(7), CouplingParams(0.3, 0.7), 0.5, 0.25))
        for c in (0.0, 1.0):
            f = DenseFunction.constant(6, c)
            instances.append((f, f, CouplingParams(0.3, 0.7), 0.5, 0.1))
        # random Boolean pairs with delta kept below eps: the dichotomy is
        # only claimed for small delta, so large-delta draws prove nothing
        for _ in range(60):
            nn = int(rng.integers(3, 8))
            vals = (rng.random(1 << nn) < rng.uniform(0.1, 0.9)).astype(float)
            f = DenseFunction(nn, vals, boolean=True)
            g = DenseFunction(nn, np.maximum.accumulate(vals), boolean=True) \
                if rng.random() < 0.5 else f
            q, p = sorted(rng.uniform(0.15, 0.85, size=2))
            if p - q < 0.05:
                continue
            eps = float(rng.uniform(0.15, 0.4))
            instances.append((f, g, CouplingParams(float(q), float(p)),
                              0.5 * eps, eps))
        verdicts = {"pass": 0, "fail": 0, "not_applicable": 0}
        for f, g, cp, delta, eps in instances:
            out = removal.robust_fk_instance(f, g, cp, delta, eps)
            verdicts[out["verdict"]] += 1
        assert verdicts["fail"] == 0
        assert verdicts["pass"] >= 6
