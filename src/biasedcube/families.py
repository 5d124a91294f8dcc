"""k-uniform set families over [n]: slices, the f_F lift, Cut, fairness,
and family-level regularity.

Members are stored as bitmasks with popcount k under the global
convention (bit i holds element i+1).  The lift f_F sends a point x to
the density of F among the k-subsets of x, and satisfies the exact
identity mu_q(f_F) = Pr[Bin(n,q) >= k] * mu(F).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .cube import (DenseFunction, _bit_weights, _json_object, _level_table,
                   apply_coordinatewise, coords_of, expectation, mask_of, popcounts,
                   trace_sums)
from .noise import CouplingParams, cross_term


@dataclass(frozen=True)
class SetFamily:
    n: int
    k: int
    members: frozenset

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")
        for m in self.members:
            if m >> self.n:
                raise ValueError(f"member {m:#x} leaves the ground set")
            if bin(m).count("1") != self.k:
                raise ValueError(f"member {m:#x} is not a {self.k}-set")

    @property
    def measure(self) -> float:
        return len(self.members) / math.comb(self.n, self.k)

    @property
    def measure_exact(self) -> Fraction:
        return Fraction(len(self.members), math.comb(self.n, self.k))

    @staticmethod
    def full(n: int, k: int) -> "SetFamily":
        members = frozenset(mask_of(c) for c in combinations(range(1, n + 1), k))
        return SetFamily(n, k, members)

    @staticmethod
    def empty(n: int, k: int) -> "SetFamily":
        return SetFamily(n, k, frozenset())

    @staticmethod
    def star(n: int, k: int, center: int = 1) -> "SetFamily":
        if k < 1:
            raise ValueError(f"a star needs k >= 1, got k={k}")
        bit = 1 << (center - 1)
        members = frozenset(m | bit
                            for m in (mask_of(c) for c in
                                      combinations([i for i in range(1, n + 1) if i != center],
                                                   k - 1)))
        return SetFamily(n, k, members)

    @staticmethod
    def random(n: int, k: int, density: float, seed: int) -> "SetFamily":
        rng = np.random.default_rng(seed)
        members = frozenset(mask_of(c)
                            for c in combinations(range(1, n + 1), k)
                            if rng.random() < density)
        return SetFamily(n, k, members)

    # -- file formats ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.n} {self.k}"]
        for m in sorted(self.members):
            lines.append(" ".join(str(c) for c in coords_of(m)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "SetFamily":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty family text: need an 'n k' header line")
        n, k = (int(t) for t in lines[0].split())
        members = frozenset(mask_of(int(t) for t in ln.split()) for ln in lines[1:])
        return SetFamily(n, k, members)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k,
                           "members": sorted(coords_of(m) for m in self.members)})

    @staticmethod
    def from_json(text: str) -> "SetFamily":
        obj = _json_object(text, "family", n="int", k="int", members="[[int]]")
        return SetFamily(obj["n"], obj["k"],
                         frozenset(mask_of(m) for m in obj["members"]))


@dataclass(frozen=True)
class JuntaFamily:
    """The family {A in C([n],k) : A cap J in G}, determined by J alone."""

    n: int
    k: int
    J: tuple  # sorted 1-based coordinates
    G: frozenset  # masks over the bits of J (global bit positions)

    def __post_init__(self):
        if list(self.J) != _coords_in(self.J, self.n):
            raise ValueError(f"J must be strictly increasing, got {self.J}")
        jmask = mask_of(self.J)
        for g in self.G:
            if g & ~jmask:
                raise ValueError("generator member leaves J")

    @property
    def j_mask(self) -> int:
        return mask_of(self.J)

    def contains(self, member_mask: int) -> bool:
        return (member_mask & self.j_mask) in self.G

    def generated(self) -> SetFamily:
        members = frozenset(m for m in SetFamily.full(self.n, self.k).members
                            if self.contains(m))
        return SetFamily(self.n, self.k, members)


def _coords_in(J, n: int) -> list:
    """J's distinct coordinates in order, or a ValueError if one leaves [n]."""
    Jset = sorted(set(J))
    if Jset and not 1 <= Jset[0] <= Jset[-1] <= n:
        raise ValueError("J leaves the ground set")
    return Jset


def family_slice(F: SetFamily, J, B) -> SetFamily:
    """F_J^B: members containing exactly B inside J, with J cut away.

    The result lives on the compacted ground set [n] minus J and is
    (k - |B|)-uniform.
    """
    Jset = _coords_in(J, F.n)
    Bset = set(B)
    if not Bset <= set(Jset):
        raise ValueError("B must be a subset of J")
    if len(Bset) > F.k:
        raise ValueError("|B| exceeds the uniformity")
    rest = [c for c in range(1, F.n + 1) if c not in Jset]
    new_k = F.k - len(Bset)
    if new_k > len(rest):
        raise ValueError("slice ground set too small for its uniformity")
    jmask = mask_of(Jset)
    bmask = mask_of(Bset)
    members = frozenset(sum(1 << j for j, c in enumerate(rest) if m >> (c - 1) & 1)
                        for m in F.members if (m & jmask) == bmask)
    return SetFamily(len(rest), new_k, members)


def lift(F: SetFamily) -> DenseFunction:
    """f_F(x): zero below level k, else the F-density among k-subsets of x.

    Subset counts come from a zeta transform (subset-sum DP), O(n 2^n);
    below level k they are zero, since every member is a k-set.
    """
    n, k = F.n, F.k
    g = np.zeros(1 << n)
    g[list(F.members)] = 1.0
    counts = apply_coordinatewise(g, n, [(1.0, 0.0, 1.0, 1.0)] * n)
    denom = np.array([max(math.comb(c, k), 1) for c in range(n + 1)], dtype=np.float64)
    return DenseFunction(n, counts / _level_table(denom, n), bounded=True)


def lift_direct(F: SetFamily) -> DenseFunction:
    """Enumeration oracle for lift, quadratic in the table size per layer."""
    n, k = F.n, F.k
    vals = np.zeros(1 << n)
    for x in range(1 << n):
        size = bin(x).count("1")
        if size < k:
            continue
        elems = coords_of(x)
        hits = sum(1 for c in combinations(elems, k) if mask_of(c) in F.members)
        vals[x] = hits / math.comb(size, k)
    return DenseFunction(n, vals, bounded=True)


def binomial_tail(n: int, q: float, k: int) -> float:
    """Pr[Bin(n, q) >= k]."""
    return sum(math.comb(n, j) * q ** j * (1.0 - q) ** (n - j) for j in range(k, n + 1))


def lift_measure_identity(F: SetFamily, q: float) -> tuple[float, float]:
    """Both sides of mu_q(f_F) = Pr[Bin(n,q) >= k] mu(F); exact, not asymptotic."""
    lhs = expectation(lift(F), q)
    rhs = binomial_tail(F.n, q, F.k) * F.measure
    if abs(lhs - rhs) > 1e-10:
        raise ArithmeticError(f"lift measure identity violated: {lhs} vs {rhs}")
    return lhs, rhs


def cut(f: DenseFunction, delta: float) -> DenseFunction:
    """Threshold into a Boolean function, closed at delta (f >= delta -> 1)."""
    return DenseFunction(f.n, (f.values >= delta).astype(np.float64), boolean=True)


def cut_stability_check(F: SetFamily, cp: CouplingParams, delta: float) -> float:
    """E over D(q,p) of f_F(x) (1 - Cut_delta(f_F)(y)); always at most delta."""
    if cp.q <= F.k / F.n:
        raise ValueError("need q > k/n")
    f = lift(F)
    b = cut(f, delta)
    value = cross_term(f, b, cp)
    if value > delta + 1e-12:
        raise ArithmeticError(f"cut stability bound violated: {value} > {delta}")
    return value


def _slice_measures(F: SetFamily, Js) -> np.ndarray:
    """Measures of the slices F_J^B for every J in Js and every B inside J.

    Entry [t, b] is mu(F_J^B) for J = Js[t] and B the coordinates of J at
    the bits of b, as in cube.trace_sums; it is nan where |B| > k, so every
    comparison with it is false.  The counts are integers, so each entry
    is the float family_slice(F, J, B).measure.
    """
    j = len(Js[0])
    members = np.fromiter(F.members, dtype=_bit_weights(F.n).dtype, count=len(F.members))
    denom = np.array([math.comb(F.n - j, F.k - b) if b <= F.k else math.nan
                      for b in range(j + 1)])
    return trace_sums(members, None, Js) / denom[popcounts(j)]


def is_fair(F: SetFamily, J, eps: float) -> bool:
    """Every slice F_J^B keeps at least a (1-eps) fraction of mu(F).

    Slices with |B| > k are empty by uniformity and are skipped.
    """
    Jset = _coords_in(J, F.n)
    if len(Jset) > F.n - F.k:
        raise ValueError("J too large: need |J| <= n - k")
    return not np.any(_slice_measures(F, [Jset]) < (1.0 - eps) * F.measure)


def family_regular(F: SetFamily, r: int, delta: float) -> bool:
    """All slice measures on at most r coordinates stay within delta of mu(F).

    This specializes function regularity to uniform slice measures.
    """
    if r > F.n - F.k:
        raise ValueError("need r <= n - k")
    base = F.measure
    for size in range(1, r + 1):
        m = _slice_measures(F, list(combinations(range(1, F.n + 1), size)))
        if np.any(np.abs(m - base) >= delta):
            return False
    return True
