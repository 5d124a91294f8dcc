import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biasedcube import cube, gaussian
from biasedcube.cube import DenseFunction
from biasedcube.gaussian import GaussianPoly, Phi, lambda_rho, phi, phi_inv

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
BLOCK = cube._SAMPLE_BLOCK


def noise_scaled(poly: GaussianPoly, rho: float) -> GaussianPoly:
    """Ornstein-Uhlenbeck smoothing: scale a_S by rho^|S|."""
    return GaussianPoly(poly.n, poly.coeffs * cube.level_powers(rho, poly.n))


def x_integral(rho, mu, nu, tol=1e-14):
    """Oracle: int phi(x) Phi((k - rho x) / sqrt(1 - rho^2)) dx over x < h, by
    recursive Gauss-Legendre panels with an absolute tolerance."""
    h, k = phi_inv(mu), phi_inv(nu)
    s = math.sqrt(1.0 - rho * rho)

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(w * phi(mid + half * x) * Phi((k - rho * (mid + half * x)) / s)
                          for x, w in zip(_GL_NODES, _GL_WEIGHTS))

    def adaptive(a, b, tol, depth):
        whole, mid = panel(a, b), 0.5 * (a + b)
        split = panel(a, mid) + panel(mid, b)
        if abs(whole - split) < tol or depth >= 30:
            return split
        return adaptive(a, mid, 0.5 * tol, depth + 1) + adaptive(mid, b, 0.5 * tol, depth + 1)

    return adaptive(max(-39.0, h - 45.0), min(h, 39.0), tol, 0)


def lambda_mc_loop(rho, mu, nu, samples, seed):
    """Oracle for lambda_mc: the chunk loop it replaced, with fresh
    whole-chunk temporaries for x, z and y."""
    t_mu = phi_inv(mu) if 0.0 < mu < 1.0 else (math.inf if mu >= 1.0 else -math.inf)
    t_nu = phi_inv(nu) if 0.0 < nu < 1.0 else (math.inf if nu >= 1.0 else -math.inf)
    rng = np.random.default_rng(seed)
    s = math.sqrt(1.0 - rho * rho)
    hits = 0
    for m in cube._draw_chunks(samples, 1_000_000):
        x = rng.standard_normal(m)
        y = rho * x + s * rng.standard_normal(m)
        hits += int(np.count_nonzero((x < t_mu) & (y < t_nu)))
    return cube._binomial_estimate(hits, samples)


def tail_cells(seed, count):
    """(rho, mu, nu) with rho up to 1 - 1e-7 and mu, nu down to 1e-300 or up
    to 1 - 1e-7, mixed with central values."""
    rng = np.random.default_rng(seed)
    rho = np.where(rng.random(count) < 0.5, 1.0 - 10.0 ** rng.uniform(-7, 0, count),
                   rng.uniform(0.0, 1.0, count))

    def margin():
        kind = rng.integers(0, 3, count)
        return np.select([kind == 0, kind == 1],
                         [10.0 ** rng.uniform(-300, -1e-9, count),
                          1.0 - 10.0 ** rng.uniform(-7, -0.31, count)],
                         rng.uniform(1e-3, 1.0 - 1e-3, count))

    mu, nu = margin(), margin()
    return [tuple(map(float, c)) for c in zip(rho, mu, nu)]


class TestPhi:
    def test_cdf_known_values(self):
        assert abs(Phi(0.0) - 0.5) < 1e-15
        assert abs(Phi(1.959963984540054) - 0.975) < 1e-12
        assert abs(Phi(-1.0) - 0.15865525393145707) < 1e-12

    def test_phi_inv_round_trip(self):
        for mu in (1e-6, 0.01, 0.3, 0.5, 0.77, 0.999):
            assert abs(Phi(phi_inv(mu)) - mu) < 1e-11

    def test_phi_inv_symmetry(self):
        assert abs(phi_inv(0.3) + phi_inv(0.7)) < 1e-10

    def test_phi_inv_domain(self):
        for mu in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                phi_inv(mu)

    def test_phi_inv_deep_tail(self):
        # thresholds below -10 lie outside a [-10, 10] bisection bracket
        assert abs(Phi(phi_inv(1e-30)) - 1e-30) <= 1e-12 * 1e-30
        assert phi_inv(1e-30) < -11.0

    def test_phi_inv_seeded_scan(self):
        rng = np.random.default_rng(1804)
        lower = np.sort(10.0 ** rng.uniform(-300.0, math.log10(0.5), 10_000))
        upper = np.sort(rng.uniform(0.5, 1.0, 10_000))
        upper = upper[upper > 0.5]
        lo_t = [phi_inv(float(mu)) for mu in lower]
        hi_t = [phi_inv(float(mu)) for mu in upper]
        # half the documented 1e-12: the bare inv_cdf reaches 8.7e-13 relative on
        # this scan, and the Newton step is what keeps the margin
        assert all(abs(Phi(t) - mu) <= 0.5e-12 * mu for t, mu in zip(lo_t, lower))
        assert all(abs(Phi(t) - mu) <= 2e-16 for t, mu in zip(hi_t, upper))
        assert phi_inv(0.5) == 0.0
        ts = lo_t + [phi_inv(0.5)] + hi_t
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    @given(st.one_of(st.floats(1e-300, 0.5),
                     st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0 ** e)))
    def test_phi_inv_round_trip_lower_half_relative(self, mu):
        assert abs(Phi(phi_inv(mu)) - mu) <= 1e-12 * mu

    @given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    def test_phi_inv_round_trip_upper_half_absolute(self, mu):
        assert abs(Phi(phi_inv(mu)) - mu) <= 1e-15


class TestLambda:
    def test_independent_product(self):
        for mu in (0.1, 0.4, 0.9):
            for nu in (0.2, 0.5):
                assert abs(lambda_rho(0.0, mu, nu) - mu * nu) < 1e-12

    def test_boundary_masses(self):
        assert lambda_rho(0.5, 0.0, 0.7) == 0.0
        assert lambda_rho(0.5, 0.7, 0.0) == 0.0
        assert abs(lambda_rho(0.5, 1.0, 0.7) - 0.7) < 1e-15
        assert abs(lambda_rho(0.5, 0.7, 1.0) - 0.7) < 1e-15

    def test_sheppard_quarter(self):
        # closed form at mu = nu = 1/2: 1/4 + arcsin(rho)/(2 pi)
        for rho in (0.1, 0.5, 0.9, 0.999):
            closed = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert abs(lambda_rho(rho, 0.5, 0.5) - closed) <= 5e-16

    def test_symmetry_in_arguments(self):
        assert abs(lambda_rho(0.6, 0.3, 0.8) - lambda_rho(0.6, 0.8, 0.3)) < 1e-10

    def test_monotone_in_rho(self):
        vals = [lambda_rho(r, 0.3, 0.4) for r in (0.0, 0.2, 0.5, 0.8, 0.95)]
        assert all(a < b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_min(self):
        v = lambda_rho(0.7, 0.25, 0.6)
        assert 0.25 * 0.6 - 1e-12 <= v <= 0.25 + 1e-12

    def test_tail_threshold_bounded_by_min(self):
        # with phi_inv(1e-30) clipped to the old bracket this read 1.37e-25
        assert 0.0 < lambda_rho(0.999999, 1e-30, 0.5) <= 1e-30

    def test_far_tail_cells_return_min(self):
        # an absolute tolerance of 1e-10 gave 1.8e-265 and 1.17e-124 here
        for rho, mu, nu in ((0.9999995, 1.33e-99, 3.39e-266), (0.9964, 0.96, 4.03e-125)):
            low = min(mu, nu)
            assert abs(lambda_rho(rho, mu, nu) - low) <= 2e-12 * low

    def test_unclamped_sum_within_frechet_bounds(self):
        # through the unclamped helper, so the clamp cannot hide an error
        for rho, mu, nu in tail_cells(909, 5000):
            v = gaussian._sheppard(rho, phi_inv(mu), phi_inv(nu), 1e-10)
            lo, hi = max(0.0, mu + nu - 1.0), min(mu, nu)
            assert lo * (1.0 - 2e-12) <= v <= hi * (1.0 + 2e-12), (rho, mu, nu, v)
            assert lo <= lambda_rho(rho, mu, nu) <= hi

    def test_central_cells_match_x_integral(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rho, mu, nu = (float(v) for v in rng.uniform([0.01, 0.02, 0.02],
                                                         [0.95, 0.98, 0.98]))
            assert abs(lambda_rho(rho, mu, nu) - x_integral(rho, mu, nu)) <= 1e-13

    @given(st.floats(0.0, 1.0, exclude_max=True),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_frechet_bounds(self, rho, mu, nu):
        v = lambda_rho(rho, mu, nu)
        assert max(0.0, mu + nu - 1.0) <= v <= min(mu, nu)

    def test_against_mc(self):
        est, se = gaussian.lambda_mc(0.6, 0.3, 0.7, samples=2_000_000, seed=5)
        exact = lambda_rho(0.6, 0.3, 0.7)
        assert abs(est - exact) < 4.5 * se

    def test_gap_positive_and_monotone_instances(self):
        g1 = gaussian.lambda_gap(0.1)
        g2 = gaussian.lambda_gap(0.3)
        assert g1 > 0.0 and g2 > 0.0

    def test_gap_domain(self):
        with pytest.raises(ValueError):
            gaussian.lambda_gap(0.6)

    def test_lipschitz_check(self):
        lhs, bound = gaussian.lambda_lipschitz_check(0.2, 0.5, 0.3, 0.7)
        assert lhs <= bound

    def test_query_object_validation(self):
        with pytest.raises(ValueError):
            lambda_rho(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            lambda_rho(0.5, 1.5, 0.5)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_finite_and_positive(self, tol):
        # a NaN or infinite tol never accepts a panel: the panel count would
        # double for 40 rounds (MemoryError under a 1 GB address-space cap)
        for mu, nu in ((0.3, 0.4), (1e-300, 1e-300)):
            with pytest.raises(ValueError, match="tolerance must be finite and positive"):
                lambda_rho(0.5, mu, nu, tol=tol)

    def test_mc_stream_pinned(self):
        # values of the hand-rolled chunk loop this replaced, chunk 10^6
        assert gaussian.lambda_mc(0.6, 0.3, 0.7, 2_500_000, seed=5) == (
            0.2776472, 0.0002832378734083138)
        assert gaussian.lambda_mc(0.6, 0.3, 0.7, 2_500_000, seed=17) == (
            0.2772604, 0.00028311628041625584)

    @pytest.mark.parametrize("samples, seed, rho, mu, nu", [
        (1, 3, 0.6, 0.3, 0.7),
        (BLOCK - 1, 5, -0.4, 1.0, 0.35),
        (BLOCK, 17, 0.9, 0.2, 0.0),
        (BLOCK + 1, 3, 1.0, 0.45, 0.8),
        (10**6, 5, 0.6, 0.3, 0.7),
        (10**6 + 1, 17, -1.0, 0.5, 1.0),
        (2 * 10**6 + 3 * BLOCK + 7, 3, 0.25, 0.6, 0.1),
    ])
    def test_mc_matches_chunk_loop(self, samples, seed, rho, mu, nu):
        # the blocked, in-place arithmetic must give the loop's value exactly
        got = gaussian.lambda_mc(rho, mu, nu, samples, seed)
        assert got == lambda_mc_loop(rho, mu, nu, samples, seed)

    @pytest.mark.parametrize("rho, mu, nu, name", [
        (1.5, 0.3, 0.4, "rho"), (-1.01, 0.3, 0.4, "rho"), (math.nan, 0.3, 0.4, "rho"),
        (0.5, 1.5, 0.4, "mu"), (0.5, -0.1, 0.4, "mu"), (0.5, math.nan, 0.4, "mu"),
        (0.5, 0.3, math.inf, "nu"), (0.5, 0.3, math.nan, "nu"),
    ])
    def test_mc_argument_domain(self, rho, mu, nu, name):
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            gaussian.lambda_mc(rho, mu, nu, 1000, 1)

    def test_mc_memory_is_two_chunk_buffers(self):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gaussian.lambda_mc(0.6, 0.3, 0.7, 2_000_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16_000_000 + 2_000_000


class TestGaussianPoly:
    def test_evaluate_linear(self):
        poly = GaussianPoly(2, [0.5, 2.0, -1.0, 0.0])
        assert abs(poly.evaluate([3.0, 4.0]) - (0.5 + 6.0 - 4.0)) < 1e-12

    def test_evaluate_product_term(self):
        poly = GaussianPoly(2, [0.0, 0.0, 0.0, 1.0])
        assert abs(poly.evaluate([2.0, 5.0]) - 10.0) < 1e-12

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        poly = GaussianPoly(4, rng.standard_normal(16))
        Z = rng.standard_normal((50, 4))
        batch = poly.evaluate_many(Z)
        for i in range(50):
            assert batch[i] == poly.evaluate(Z[i])

    def test_noise_scaled(self):
        poly = GaussianPoly(2, [1.0, 2.0, 3.0, 4.0])
        s = noise_scaled(poly, 0.5)
        assert np.allclose(s.coeffs, [1.0, 1.0, 1.5, 1.0])

    def test_analogue_preserves_l2(self):
        rng = np.random.default_rng(9)
        f = DenseFunction(5, rng.random(32))
        s = cube.transform(f, 0.35)
        poly = gaussian.gaussian_analogue(s)
        # both bases are orthonormal, so squared norms agree
        assert abs(float(np.sum(poly.coeffs ** 2))
                   - cube.inner_product(f, f, 0.35)) < 1e-10

    def test_analogue_mc_mean(self):
        rng = np.random.default_rng(10)
        f = DenseFunction(3, rng.random(8))
        poly = gaussian.gaussian_analogue(cube.transform(f, 0.4))
        Z = np.random.default_rng(11).standard_normal((400_000, 3))
        emp = float(np.mean(poly.evaluate_many(Z)))
        assert abs(emp - cube.expectation(f, 0.4)) < 0.01


class TestChop:
    def test_clamp(self):
        out = gaussian.chop(np.array([-0.5, 0.3, 1.7]))
        assert np.allclose(out, [0.0, 0.3, 1.0])

    def test_distance_zero_for_bounded_constant(self):
        poly = GaussianPoly(1, [0.5, 0.0])
        rms, se = gaussian.chop_distance(poly, 20_000, seed=0)
        assert rms == 0.0

    def test_distance_positive_for_linear(self):
        poly = GaussianPoly(1, [0.5, 1.0])
        rms, se = gaussian.chop_distance(poly, 50_000, seed=0)
        assert rms > 0.1

    def test_stream_pinned(self):
        # values of the hand-rolled chunk loop this replaced, chunk 2000
        poly = GaussianPoly(3, [0.5, 0.4, -0.3, 0.2, 0.1, -0.6, 0.3, 0.25])
        assert np.array_equal(gaussian.chop_distance(poly, 11_500, seed=1),
                              (0.6194193558078009, 0.012856708970511938))
        assert np.array_equal(gaussian.chop_distance(poly, 11_500, seed=8),
                              (0.6181726517809285, 0.013479280933511447))

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            gaussian.chop_distance(GaussianPoly(1, [0.5, 0.0]), 100, seed=0)

    def test_smoothing_shrinks_distance(self):
        rng = np.random.default_rng(12)
        f = DenseFunction(4, (rng.random(16) < 0.5).astype(float))
        poly = gaussian.gaussian_analogue(cube.transform(f, 0.3))
        d_raw, _ = gaussian.chop_distance(poly, 40_000, seed=1)
        d_smooth, _ = gaussian.chop_distance(noise_scaled(poly, 0.3), 40_000, seed=1)
        assert d_smooth <= d_raw + 1e-9
