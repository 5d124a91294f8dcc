"""Noise operators on the biased cube and the monotone coupling D(q,p).

The coupling draws each coordinate pair independently with
Pr[x_i=1, y_i=1] = q, Pr[x_i=0, y_i=1] = p - q, Pr[x_i=0, y_i=0] = 1 - p,
so x <= y always, x ~ mu_q and y ~ mu_p.  Conditioning one side on the
other gives the two directed operators; both contract the level-|S|
Fourier weight by rho^|S| with rho = sqrt(q(1-p)/(p(1-q))).

The conditional kernels used below follow from the table above:
given y_i = 1, x_i = 1 with probability q/p; given x_i = 0, y_i = 1 with
probability (p-q)/(1-q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cube import (
    BiasWeights,
    DenseFunction,
    Spectrum,
    _level_table,
    apply_coordinatewise,
    expectation,
    inner_product,
    inverse_transform,
    level_powers,
    trace_sums,
    transform,
)


@dataclass(frozen=True)
class CouplingParams:
    """A bias pair q < p with its derived correlation."""

    q: float
    p: float

    def __post_init__(self):
        if not (0.0 < self.q < self.p < 1.0):
            raise ValueError(f"need 0 < q < p < 1, got q={self.q}, p={self.p}")

    @property
    def rho(self) -> float:
        return math.sqrt(self.q * (1.0 - self.p) / (self.p * (1.0 - self.q)))


class CoupledSampler:
    """Seeded sampler of coordinatewise-monotone pairs (x, y) from D(q, p).

    Points are int64 bitmasks, so n is at most 63.
    """

    def __init__(self, params: CouplingParams, n: int, seed: int):
        if not 1 <= n <= 63:
            raise ValueError(f"coupled samples are int64 masks: n={n} outside [1, 63]")
        self.params = params
        self.n = n
        self.rng = np.random.default_rng(seed)

    def sample(self) -> tuple[int, int]:
        x, y = self.sample_many(1)
        return int(x[0]), int(y[0])

    def sample_many(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized draws; returns int64 arrays of point bitmasks.

        One rng.random(count) per coordinate, coordinate-major.  The masks
        are built in place in the narrowest unsigned type that holds n bits.
        """
        q, p = self.params.q, self.params.p
        width = np.min_scalar_type((1 << self.n) - 1)
        x = np.zeros(count, dtype=width)
        y = np.zeros(count, dtype=width)
        u = np.empty(count)
        bit = np.empty(count, dtype=bool)
        shifted = np.empty(count, dtype=width)
        for i in range(self.n):
            self.rng.random(out=u)
            for mask, bias in ((x, q), (y, p)):
                np.less(u, bias, out=bit)
                np.left_shift(bit, i, out=shifted, dtype=width)
                mask |= shifted
        return x.astype(np.int64), y.astype(np.int64)


def _operator(f: DenseFunction, method: str, p_in: float, p_out: float, rho: float,
              kernel: tuple) -> DenseFunction:
    """The one route core behind the three operators.

    "spectral" transforms at p_in, scales fhat(S) by rho^|S| and rebuilds
    at p_out; "definitional" applies the 2x2 kernel on every coordinate.
    """
    if method == "spectral":
        s = transform(f, p_in)
        s.coeffs *= level_powers(rho, f.n)
        return inverse_transform(Spectrum(f.n, p_out, s.coeffs))
    if method == "definitional":
        return DenseFunction(f.n, apply_coordinatewise(f.values, f.n, [kernel] * f.n))
    raise ValueError(f"unknown method {method!r}")


def noise_operator(f: DenseFunction, rho: float, p: float,
                   method: str = "spectral") -> DenseFunction:
    """T_{rho,p}: rerandomize each coordinate with probability 1 - rho.

    "spectral" scales fhat(S) by rho^|S|; "definitional" computes the
    exact expectation over the resampling kernel by per-coordinate DP.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho outside [0,1]")
    # a coordinate at 0 (at 1) reads 1 after resampling w.p. a0 (a1)
    a0 = (1.0 - rho) * p
    a1 = rho + (1.0 - rho) * p
    return _operator(f, method, p, p, rho, (1.0 - a0, a0, 1.0 - a1, a1))


def directed_up(f: DenseFunction, cp: CouplingParams,
                method: str = "spectral") -> DenseFunction:
    """T^{q->p} f: the conditional expectation E[f(x) | y] along D(q,p).

    Input is read at bias q, output lives at bias p.  Spectrally the
    coefficients are scaled by rho^|S| and re-tagged to the p basis.
    """
    r = cp.q / cp.p
    # y_i = 0 forces x_i = 0; y_i = 1 keeps x_i = 1 w.p. q/p
    return _operator(f, method, cp.q, cp.p, cp.rho, (1.0, 0.0, 1.0 - r, r))


def directed_down(g: DenseFunction, cp: CouplingParams,
                  method: str = "spectral") -> DenseFunction:
    """T_{p->q} g: the conditional expectation E[g(y) | x] along D(q,p)."""
    r = (cp.p - cp.q) / (1.0 - cp.q)
    # x_i = 1 forces y_i = 1; x_i = 0 raises y_i to 1 w.p. (p-q)/(1-q)
    return _operator(g, method, cp.p, cp.q, cp.rho, (1.0 - r, r, 0.0, 1.0))


def cross_term(f: DenseFunction, g: DenseFunction, cp: CouplingParams) -> float:
    """E over D(q,p) of f(x) (1 - g(y)), with f read at q and g at p."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    for name, h in (("f", f), ("g", g)):
        if h.bounded and (np.any(h.values < 0) or np.any(h.values > 1)):
            raise ValueError(f"{name} flagged bounded but leaves [0,1]")
    one_minus_g = DenseFunction(g.n, 1.0 - g.values)
    return inner_product(directed_up(f, cp, method="definitional"), one_minus_g, cp.p)


def cross_term_via_down(f: DenseFunction, g: DenseFunction, cp: CouplingParams) -> float:
    """Same quantity through the adjoint route; agrees with cross_term."""
    one_minus_g = DenseFunction(g.n, 1.0 - g.values)
    return inner_product(f, directed_down(one_minus_g, cp, method="definitional"), cp.q)


def monotonicity_defect(f: DenseFunction, cp: CouplingParams) -> float:
    """Pr over D(q,p) that f(x) > f(y); zero exactly for monotone f."""
    if not f.boolean:
        raise ValueError("monotonicity defect is defined for Boolean functions")
    return cross_term(f, f, cp)


def monotonicity_defect_exhaustive(f: DenseFunction, cp: CouplingParams) -> float:
    """Oracle: sum the coupling mass of violating pairs over all x <= y."""
    q, p = cp.q, cp.p
    n = f.n
    total = 0.0
    for y in range(1 << n):
        for x_sub in _submasks(y):
            # coordinates: x=y=1 on x_sub, x=0<y=1 on y^x_sub, both 0 elsewhere
            k11 = bin(x_sub).count("1")
            k01 = bin(y ^ x_sub).count("1")
            k00 = n - k11 - k01
            w = q ** k11 * (p - q) ** k01 * (1.0 - p) ** k00
            if f.values[x_sub] > f.values[y]:
                total += w
    return total


def _submasks(m: int):
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


def is_regular(f: DenseFunction, r: int, eps: float, p: float) -> bool:
    """All restrictions on at most r coordinates shift the mean by < eps.

    The mean of f on the subcube x cap J = a is its mu_p-weighted trace sum
    over the mu_p-mass of that subcube; one trace_sums call per |J|.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    base = expectation(f, p)
    points = np.arange(1 << f.n)
    weighted = f.values * BiasWeights(f.n, p).table()
    for size in range(1, min(r, f.n) + 1):
        sums = trace_sums(points, weighted, list(combinations(range(1, f.n + 1), size)))
        if np.any(np.abs(sums / BiasWeights(size, p).table() - base) >= eps):
            return False
    return True


def is_fourier_regular(f: DenseFunction, r: int, delta: float, p: float) -> bool:
    """All coefficients at levels 1..r are < delta in absolute value."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r < 1:
        return True
    j = np.arange(f.n + 1)
    sel = _level_table((j >= 1) & (j <= r), f.n)
    return bool(np.max(np.abs(transform(f, p).coeffs[sel])) < delta)
