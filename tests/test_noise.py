import math
from itertools import combinations, product

import numpy as np
import pytest

from biasedcube import cube, noise
from biasedcube.cube import DenseFunction
from biasedcube.noise import CouplingParams


RNG = np.random.default_rng(202)


def rand_fn(n):
    return DenseFunction(n, RNG.random(1 << n))


def rand_bool(n):
    return DenseFunction(n, (RNG.random(1 << n) < 0.5).astype(float), boolean=True)


def sample_many_int64(cp, n, seed, count):
    """Oracle for CoupledSampler.sample_many: the int64 loop it replaced, one
    full-width temporary per coordinate and side."""
    rng = np.random.default_rng(seed)
    x = np.zeros(count, dtype=np.int64)
    y = np.zeros(count, dtype=np.int64)
    for i in range(n):
        u = rng.random(count)
        x |= (u < cp.q).astype(np.int64) << i
        y |= (u < cp.p).astype(np.int64) << i
    return x, y


def noise_operator_oracle(f, rho, p, method):
    """Oracle for noise_operator: its own copy of both routes, as it carried
    them before the three operators shared one route core."""
    if method == "spectral":
        s = cube.transform(f, p)
        s.coeffs *= cube.level_powers(rho, f.n)
        return cube.inverse_transform(s)
    a0 = (1.0 - rho) * p
    a1 = rho + (1.0 - rho) * p
    kernel = (1.0 - a0, a0, 1.0 - a1, a1)
    return DenseFunction(f.n, cube.apply_coordinatewise(f.values, f.n, [kernel] * f.n))


def directed_up_oracle(f, cp, method):
    """Oracle for directed_up, with its own copy of both routes."""
    if method == "spectral":
        s = cube.transform(f, cp.q)
        s.coeffs *= cube.level_powers(cp.rho, f.n)
        return cube.inverse_transform(cube.Spectrum(f.n, cp.p, s.coeffs))
    r = cp.q / cp.p
    kernel = (1.0, 0.0, 1.0 - r, r)
    return DenseFunction(f.n, cube.apply_coordinatewise(f.values, f.n, [kernel] * f.n))


def directed_down_oracle(g, cp, method):
    """Oracle for directed_down, with its own copy of both routes."""
    if method == "spectral":
        s = cube.transform(g, cp.p)
        s.coeffs *= cube.level_powers(cp.rho, g.n)
        return cube.inverse_transform(cube.Spectrum(g.n, cp.q, s.coeffs))
    r = (cp.p - cp.q) / (1.0 - cp.q)
    kernel = (1.0 - r, r, 0.0, 1.0)
    return DenseFunction(g.n, cube.apply_coordinatewise(g.values, g.n, [kernel] * g.n))


def subcube_deviations(f, r, p):
    """Oracle for is_regular: |mean - base| over every restriction on at most
    r coordinates, one restrict and expectation per (J, a)."""
    base = cube.expectation(f, p)
    for size in range(1, min(r, f.n) + 1):
        for J in combinations(range(1, f.n + 1), size):
            for bits in range(1 << size):
                a = {c: (bits >> idx) & 1 for idx, c in enumerate(J)}
                if size == f.n:
                    mask = sum((1 << (c - 1)) for c in J if a[c])
                    mean = float(f.values[mask])
                else:
                    mean = cube.expectation(cube.restrict(f, J, a), p)
                yield abs(mean - base)


def regularity_instances(count, seed):
    """Seeded (f, r, p): Boolean, real, constant and structured functions
    for n = 2..10, p in {0.3, 0.4, 0.5}; r up to n, and up to 2 above n = 7."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n, p = 2 + t % 9, (0.3, 0.4, 0.5)[t // 9 % 3]
        kind = t // 9 % 5
        if kind == 0:
            f = DenseFunction(n, (rng.random(1 << n) < rng.uniform(0.1, 0.9)).astype(float),
                              boolean=True)
        elif kind == 1:
            f = DenseFunction(n, rng.random(1 << n))
        elif kind == 2:
            f = DenseFunction.constant(n, rng.choice([0.0, 0.3, 1.0]))
        elif kind == 3:
            f = DenseFunction.dictator(n, int(rng.integers(1, n + 1)))
        else:
            f = DenseFunction(n, cube.popcounts(n) > n // 2, boolean=True)
        r = int(rng.integers(0, (n if n <= 7 else 2) + 1))
        yield f, r, p


class TestCoupling:
    def test_param_validation(self):
        for q, p in [(0.5, 0.5), (0.7, 0.3), (0.0, 0.5), (0.3, 1.0)]:
            with pytest.raises(ValueError):
                CouplingParams(q, p)

    def test_rho_value(self):
        cp = CouplingParams(0.2, 0.5)
        assert abs(cp.rho - math.sqrt(0.2 * 0.5 / (0.5 * 0.8))) < 1e-15
        assert abs(cp.rho - 0.5) < 1e-12

    def test_sampler_marginals_and_order(self):
        cp = CouplingParams(0.3, 0.6)
        s = noise.CoupledSampler(cp, 8, seed=7)
        x, y = s.sample_many(40_000)
        assert np.all((x & ~y) == 0)  # x <= y coordinatewise
        mq = np.mean([bin(int(v)).count("1") for v in x]) / 8
        mp = np.mean([bin(int(v)).count("1") for v in y]) / 8
        assert abs(mq - 0.3) < 0.01 and abs(mp - 0.6) < 0.01

    def test_sampler_reproducible(self):
        cp = CouplingParams(0.2, 0.7)
        a = noise.CoupledSampler(cp, 5, seed=3).sample_many(100)
        b = noise.CoupledSampler(cp, 5, seed=3).sample_many(100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 63])
    @pytest.mark.parametrize("count", [0, 1, 4097])
    def test_sampler_matches_int64_loop(self, n, count):
        cp = CouplingParams(0.15, 0.55)
        seed = 1000 * n + count
        got = noise.CoupledSampler(cp, n, seed).sample_many(count)
        want = sample_many_int64(cp, n, seed, count)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_sampler_continues_the_stream(self):
        # successive calls read on through one generator, as the loop did
        cp = CouplingParams(0.3, 0.6)
        s = noise.CoupledSampler(cp, 12, seed=5)
        got = [s.sample_many(300) for _ in range(3)]
        rng = np.random.default_rng(5)
        for x, y in got:
            want = sample_many_int64(cp, 12, rng, 300)
            assert np.array_equal(x, want[0]) and np.array_equal(y, want[1])
        assert s.sample() == tuple(int(v[0]) for v in sample_many_int64(cp, 12, rng, 1))

    @pytest.mark.parametrize("n", [-1, 0, 64, 70])
    def test_sampler_rejects_dimensions_outside_int64_masks(self, n):
        with pytest.raises(ValueError, match="outside"):
            noise.CoupledSampler(CouplingParams(0.2, 0.5), n, seed=0)

    def test_sampler_top_bit_at_n63(self):
        x, y = noise.CoupledSampler(CouplingParams(0.5, 0.9), 63, seed=2).sample_many(256)
        assert np.all(x >= 0) and np.all(y >= 0)
        assert np.any(y >> 62) and not np.any(x & ~y)


class TestNoiseOperator:
    def test_preserves_mean(self):
        f = rand_fn(6)
        for rho in (0.0, 0.4, 1.0):
            g = noise.noise_operator(f, rho, 0.3)
            assert abs(cube.expectation(g, 0.3) - cube.expectation(f, 0.3)) < 1e-10

    def test_rho_one_is_identity(self):
        f = rand_fn(5)
        g = noise.noise_operator(f, 1.0, 0.4)
        assert float(np.max(np.abs(g.values - f.values))) < 1e-10

    def test_rho_zero_is_constant(self):
        f = rand_fn(5)
        g = noise.noise_operator(f, 0.0, 0.4)
        assert np.allclose(g.values, cube.expectation(f, 0.4), atol=1e-10)

    def test_spectral_matches_definitional(self):
        for _ in range(5):
            n = int(RNG.integers(2, 8))
            f = rand_fn(n)
            p = float(RNG.uniform(0.15, 0.85))
            rho = float(RNG.uniform(0.0, 1.0))
            a = noise.noise_operator(f, rho, p, method="spectral")
            b = noise.noise_operator(f, rho, p, method="definitional")
            assert float(np.max(np.abs(a.values - b.values))) < 1e-10

    def test_semigroup(self):
        f = rand_fn(5)
        a = noise.noise_operator(noise.noise_operator(f, 0.7, 0.3), 0.8, 0.3)
        b = noise.noise_operator(f, 0.56, 0.3)
        assert float(np.max(np.abs(a.values - b.values))) < 1e-10


class TestDirectedOperators:
    def test_dual_routes_agree(self):
        cp = CouplingParams(0.2, 0.5)
        for n in (1, 3, 6):
            f = rand_fn(n)
            up_s = noise.directed_up(f, cp, method="spectral")
            up_d = noise.directed_up(f, cp, method="definitional")
            assert float(np.max(np.abs(up_s.values - up_d.values))) < 1e-10
            dn_s = noise.directed_down(f, cp, method="spectral")
            dn_d = noise.directed_down(f, cp, method="definitional")
            assert float(np.max(np.abs(dn_s.values - dn_d.values))) < 1e-10

    def test_up_mean_transfer(self):
        cp = CouplingParams(0.3, 0.6)
        f = rand_fn(5)
        up = noise.directed_up(f, cp)
        assert abs(cube.expectation(up, cp.p) - cube.expectation(f, cp.q)) < 1e-10

    def test_down_mean_transfer(self):
        cp = CouplingParams(0.3, 0.6)
        g = rand_fn(5)
        dn = noise.directed_down(g, cp)
        assert abs(cube.expectation(dn, cp.q) - cube.expectation(g, cp.p)) < 1e-10

    def test_adjointness(self):
        # <T^{q->p} f, g>_p = <f, T_{p->q} g>_q
        cp = CouplingParams(0.25, 0.55)
        f, g = rand_fn(6), rand_fn(6)
        lhs = cube.inner_product(noise.directed_up(f, cp), g, cp.p)
        rhs = cube.inner_product(f, noise.directed_down(g, cp), cp.q)
        assert abs(lhs - rhs) < 1e-10

    def test_up_agrees_with_coupling_mc(self):
        cp = CouplingParams(0.3, 0.6)
        f = rand_bool(4)
        up = noise.directed_up(f, cp)
        s = noise.CoupledSampler(cp, 4, seed=11)
        x, y = s.sample_many(200_000)
        for ypoint in (0, 5, 15):
            sel = y == ypoint
            if np.count_nonzero(sel) < 500:
                continue
            emp = float(np.mean(f.values[x[sel]]))
            se = math.sqrt(0.25 / np.count_nonzero(sel))
            assert abs(emp - up.values[ypoint]) < 5 * se + 1e-3

    def test_monotone_pointwise_growth(self):
        # for monotone f, E[f(x)|y] <= f(y)
        cp = CouplingParams(0.3, 0.7)
        f = DenseFunction.from_predicate(5, lambda x: bin(x).count("1") >= 3)
        up = noise.directed_up(f, cp, method="definitional")
        assert np.all(up.values <= f.values + 1e-12)


class TestRouteCore:
    """Both routes of the three operators, bit for bit against their oracles."""

    PAIRS = [tuple(sorted(float(v) for v in np.random.default_rng(seed).uniform(0.05, 0.95, 2)))
             for seed in range(6)]

    @pytest.mark.parametrize("method", ["spectral", "definitional"])
    def test_directed_operators_match_oracles(self, method):
        rng = np.random.default_rng(31)
        for n in range(1, 11):
            for boolean in (False, True):
                v = rng.random(1 << n)
                f = DenseFunction(n, (v < 0.5).astype(float) if boolean else v, boolean=boolean)
                for q, p in self.PAIRS:
                    cp = CouplingParams(q, p)
                    assert np.array_equal(noise.directed_up(f, cp, method).values,
                                          directed_up_oracle(f, cp, method).values)
                    assert np.array_equal(noise.directed_down(f, cp, method).values,
                                          directed_down_oracle(f, cp, method).values)

    @pytest.mark.parametrize("method", ["spectral", "definitional"])
    def test_noise_operator_matches_oracle(self, method):
        rng = np.random.default_rng(32)
        for n in range(1, 11):
            for boolean in (False, True):
                v = rng.random(1 << n)
                f = DenseFunction(n, (v < 0.5).astype(float) if boolean else v, boolean=boolean)
                for (_, p), rho in product(self.PAIRS, (0.0, 0.37, 1.0)):
                    assert np.array_equal(noise.noise_operator(f, rho, p, method).values,
                                          noise_operator_oracle(f, rho, p, method).values)

    def test_unknown_method(self):
        f, cp = rand_fn(3), CouplingParams(0.2, 0.5)
        for call in (lambda: noise.noise_operator(f, 0.5, 0.3, "fft"),
                     lambda: noise.directed_up(f, cp, "fft"),
                     lambda: noise.directed_down(f, cp, "fft")):
            with pytest.raises(ValueError, match="unknown method 'fft'"):
                call()


class TestCrossTerm:
    def test_routes_agree(self):
        cp = CouplingParams(0.2, 0.5)
        f, g = rand_fn(5), rand_fn(5)
        assert abs(noise.cross_term(f, g, cp)
                   - noise.cross_term_via_down(f, g, cp)) < 1e-10

    def test_bounded_g_range_checked(self):
        cp = CouplingParams(0.2, 0.5)
        g = DenseFunction(3, RNG.random(8), bounded=True)
        g.values[5] = 1.5
        with pytest.raises(ValueError, match="g flagged bounded"):
            noise.cross_term(rand_fn(3), g, cp)

    def test_monotone_defect_zero(self):
        cp = CouplingParams(0.3, 0.6)
        f = DenseFunction.from_predicate(5, lambda x: bin(x).count("1") >= 3)
        assert noise.monotonicity_defect(f, cp) < 1e-12

    def test_antimonotone_defect_positive(self):
        cp = CouplingParams(0.3, 0.6)
        f = DenseFunction.from_predicate(4, lambda x: bin(x).count("1") <= 1)
        assert noise.monotonicity_defect(f, cp) > 0.05

    def test_defect_matches_exhaustive_oracle(self):
        cp = CouplingParams(0.25, 0.65)
        for _ in range(5):
            f = rand_bool(5)
            fast = noise.monotonicity_defect(f, cp)
            slow = noise.monotonicity_defect_exhaustive(f, cp)
            assert abs(fast - slow) < 1e-10

    def test_boolean_required(self):
        cp = CouplingParams(0.3, 0.6)
        with pytest.raises(ValueError):
            noise.monotonicity_defect(rand_fn(3), cp)


class TestRegularity:
    def test_constant_is_regular(self):
        f = DenseFunction.constant(5, 0.5)
        assert noise.is_regular(f, 3, 0.01, 0.4)

    def test_dictator_not_regular(self):
        f = DenseFunction.dictator(5, 2)
        assert not noise.is_regular(f, 1, 0.3, 0.5)

    def test_parity_regular_but_sensitive(self):
        # parity mean is (1 - (1-2p)^m)/2 on m live coordinates, so a
        # single restriction shifts it by (1-2p)^2 (1 +- (1-2p)) / 2
        f = DenseFunction.from_predicate(3, lambda x: bin(x).count("1") % 2 == 1)
        assert noise.is_regular(f, 1, 0.05, 0.5)
        assert not noise.is_regular(f, 1, 0.05, 0.3)

    def test_matches_restriction_oracle(self):
        # eps between two distinct oracle deviations, so rounding cannot
        # move a verdict; also below and above all of them.  For Boolean f
        # at p = 1/2 every mean is a dyadic rational that both routes get
        # exactly, so there eps also sits exactly on a deviation.
        rng = np.random.default_rng(12)
        verdicts, ties = set(), 0
        for f, r, p in regularity_instances(216, seed=11):
            devs = list(subcube_deviations(f, r, p))
            levels = sorted(set(devs))
            gaps = [(a + b) / 2 for a, b in zip(levels, levels[1:]) if b - a > 1e-9]
            epss = [*gaps[:2], *gaps[-2:], max(devs, default=0.0) + 1e-6, 1e-6]
            if f.boolean and p == 0.5 and devs:
                epss += [levels[0], levels[-1], *rng.choice(levels, 2)]
                ties += 4
            for eps in epss:
                got = noise.is_regular(f, r, eps, p)
                assert got == all(d < eps for d in devs), (f.n, r, p, eps)
                verdicts.add(got)
        assert verdicts == {True, False} and ties >= 100

    def test_full_restriction_case(self):
        f = DenseFunction.from_predicate(2, lambda x: x == 3)
        assert not noise.is_regular(f, 2, 0.6, 0.5)

    def test_fourier_regularity(self):
        f = DenseFunction.constant(4, 0.3)
        assert noise.is_fourier_regular(f, 2, 1e-6, 0.5)
        assert not noise.is_fourier_regular(DenseFunction.dictator(4, 1), 1, 0.3, 0.5)

    def test_fourier_regular_implied_scale(self):
        # majority at p=1/2 has small high-level coefficients but
        # noticeable level-1 mass; check consistency of the two notions
        f = DenseFunction.from_predicate(7, lambda x: bin(x).count("1") >= 4)
        assert noise.is_fourier_regular(f, 1, 0.2, 0.5)
        assert noise.is_regular(f, 1, 0.35, 0.5)
