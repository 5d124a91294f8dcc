"""Gaussian-space quantities: Phi inverse, the correlated orthant
probability Lambda_rho(mu, nu), its gap and Lipschitz diagnostics, and
Gaussian analogues of biased spectra with the Chop clamp.

Phi^{-1} is statistics.NormalDist.inv_cdf (Wichura's AS 241) followed by
one Newton step on Phi, which brings the round trip Phi(Phi^{-1}(mu)) to
about 1e-12 relative in the lower tail.

Lambda_rho(mu, nu) is the probability that two rho-correlated standard
normals land below Phi^{-1}(mu) = h and Phi^{-1}(nu) = k.  It is computed
from Sheppard's theta-form (Drezner-Wesolowsky 1990; Genz 2004),
Phi(h) Phi(k) + (1/2pi) int_0^{asin rho} exp(-(h^2 - 2hk sin t + k^2) /
(2 cos^2 t)) dt, whose positive integrand admits a relative tolerance even
in the far tails, and clamped to the Frechet bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .cube import _SAMPLE_BLOCK, Spectrum, _binomial_estimate, _draw_chunks

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()


def phi(t: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * t * t)


def Phi(t: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-t / _SQRT2)


def phi_inv(mu: float) -> float:
    """The threshold t with Phi(t) = mu.

    Wichura's AS 241 (statistics.NormalDist.inv_cdf) polished by one Newton
    step: Phi(t) meets mu to about 1e-12 relative for mu <= 1/2 (down to
    1e-300) and to about 1e-16 absolute above.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("threshold is unbounded for mu in {0,1}")
    t = _STANDARD_NORMAL.inv_cdf(mu)
    return t - (Phi(t) - mu) / phi(t)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _sheppard(rho: float, h: float, k: float, tol: float) -> float:
    """The theta-form at thresholds h, k, unclamped, over u = pi/2 - theta.

    The exponent (h-k)^2 / (2 sin^2 u) + hk / (1 + cos u) does not cancel
    when h ~ k and u ~ 0.  Each round evaluates all open 20-point
    Gauss-Legendre panels at once; a panel is accepted once its halves
    agree with it to tol relative.
    """
    d2, hk = 0.5 * (h - k) ** 2, h * k
    tol = max(tol, 1e-13)  # tail exponents near 700 carry rounding of ~1.6e-13

    def panels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        half = 0.5 * (b - a)
        u = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        return half * (np.exp(-d2 / np.sin(u) ** 2 - hk / (1.0 + np.cos(u))) @ _GL_WEIGHTS)

    a, b = np.array([math.acos(rho)]), np.array([0.5 * math.pi])
    whole, total = panels(a, b), 0.0
    for depth in range(40):
        m = 0.5 * (a + b)
        left, right = np.split(panels(np.concatenate((a, m)), np.concatenate((m, b))), 2)
        split = left + right
        done = (np.abs(split - whole) <= tol * split) | (depth == 39)
        total += float(np.sum(split[done]))
        if done.all():
            break
        a, b = np.concatenate((a[~done], m[~done])), np.concatenate((m[~done], b[~done]))
        whole = np.concatenate((left[~done], right[~done]))
    return Phi(h) * Phi(k) + total / (2.0 * math.pi)


def lambda_rho(rho: float, mu: float, nu: float, tol: float = 1e-10) -> float:
    """Lambda_rho(mu, nu), the rho-correlated orthant probability, to tol relative."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0,1)")
    if not (0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0):
        raise ValueError("mu, nu must lie in [0,1]")
    if not (math.isfinite(tol) and tol > 0.0):  # a NaN never accepts a panel
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if mu == 0.0 or nu == 0.0:
        return 0.0
    if mu == 1.0:
        return nu
    if nu == 1.0:
        return mu
    if rho == 0.0:
        return mu * nu
    v = _sheppard(rho, phi_inv(mu), phi_inv(nu), tol)
    return min(max(v, mu + nu - 1.0, 0.0), mu, nu)


def lambda_mc(rho: float, mu: float, nu: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo Lambda with its standard error.

    Each chunk of up to 10^6 samples draws its x, then its z, from one
    default_rng(seed) stream, and y = rho x + s z with s = sqrt(1 - rho^2).
    Both draws fill two reused buffers; y and the hits are formed in place,
    cube._SAMPLE_BLOCK samples at a time, so the value is that of the
    whole-chunk arithmetic bit for bit.  rho outside [-1, 1] and mu or nu
    outside [0, 1] (NaN included) raise ValueError before any allocation.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    for name, value in (("mu", mu), ("nu", nu)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    chunks = _draw_chunks(samples, 1_000_000)
    t_mu = phi_inv(mu) if 0.0 < mu < 1.0 else (math.inf if mu == 1.0 else -math.inf)
    t_nu = phi_inv(nu) if 0.0 < nu < 1.0 else (math.inf if nu == 1.0 else -math.inf)
    rng = np.random.default_rng(seed)
    s = math.sqrt(1.0 - rho * rho)
    x_buf, z_buf = np.empty(chunks[0]), np.empty(chunks[0])
    size = min(chunks[0], _SAMPLE_BLOCK)
    rx_buf = np.empty(size)
    below_buf, both_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    hits = 0
    for m in chunks:
        rng.standard_normal(out=x_buf[:m])
        rng.standard_normal(out=z_buf[:m])
        for lo in range(0, m, _SAMPLE_BLOCK):
            hi = min(lo + _SAMPLE_BLOCK, m)
            x, y = x_buf[lo:hi], z_buf[lo:hi]
            rx, below, both = rx_buf[:hi - lo], below_buf[:hi - lo], both_buf[:hi - lo]
            y *= s
            y += np.multiply(x, rho, out=rx)  # s z + rho x is rho x + s z exactly
            np.less(x, t_mu, out=both)
            both &= np.less(y, t_nu, out=below)
            hits += int(np.count_nonzero(both))
    return _binomial_estimate(hits, samples)


def lambda_gap(eps: float) -> float:
    """delta(eps) = eps - Lambda_{1-eps}(eps, 1-eps), strictly positive.

    For every mu in (eps, 1) and rho, nu in (0, 1-eps) the bound
    Lambda_rho(mu, nu) <= mu - delta(eps) holds.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    return eps - lambda_rho(1.0 - eps, eps, 1.0 - eps)


def lambda_lipschitz_check(rho1: float, rho2: float, mu: float, nu: float) -> tuple[float, float]:
    """|Lambda_{rho1} - Lambda_{rho2}| against the 10 (rho2-rho1)/(1-rho2) bound."""
    if not 0.0 <= rho1 < rho2 < 1.0:
        raise ValueError("need 0 <= rho1 < rho2 < 1")
    lhs = abs(lambda_rho(rho1, mu, nu) - lambda_rho(rho2, mu, nu))
    bound = 10.0 * (rho2 - rho1) / (1.0 - rho2)
    if lhs > bound:
        raise ArithmeticError(f"Lipschitz bound violated: {lhs} > {bound}")
    return lhs, bound


@dataclass
class GaussianPoly:
    """Multilinear polynomial sum_S a_S prod_{i in S} z_i over subset masks."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (1 << self.n,):
            raise ValueError("coefficient table length mismatch")

    def evaluate(self, z) -> float:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.n,):
            raise ValueError("point dimension mismatch")
        return float(self.evaluate_many(z[None, :])[0])

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate at each row of an (m, n) sample matrix."""
        m = Z.shape[0]
        # fold out one variable per pass; after folding bit i each row is
        # indexed by the remaining higher bits, so the pair stride stays 2
        c = np.broadcast_to(self.coeffs, (m, 1 << self.n)).copy()
        for i in range(self.n):
            v = c.reshape(m, -1, 2)
            c = v[:, :, 0] + Z[:, i, None] * v[:, :, 1]
        return c[:, 0]


def gaussian_analogue(s: Spectrum) -> GaussianPoly:
    """Replace chi_S^p by products of independent standard normals."""
    return GaussianPoly(s.n, s.coeffs.copy())


def chop(value):
    """Clamp to [0,1]; accepts scalars or arrays."""
    return np.clip(value, 0.0, 1.0)


def chop_distance(poly: GaussianPoly, samples: int, seed: int) -> tuple[float, float]:
    """MC estimate of || poly - Chop(poly) ||_2 under the Gaussian measure.

    Returns (rms, stderr) where stderr is the standard error of the mean
    of the squared deviation.
    """
    if samples < 10_000:
        raise ValueError("use at least 10^4 samples")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for m in _draw_chunks(samples, 2_000):
        vals = poly.evaluate_many(rng.standard_normal((m, poly.n)))
        d2 = (vals - np.clip(vals, 0.0, 1.0)) ** 2
        total += float(np.sum(d2))
        total_sq += float(np.sum(d2 ** 2))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return math.sqrt(mean), math.sqrt(var / samples)
