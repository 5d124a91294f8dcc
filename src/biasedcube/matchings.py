"""Matching distributions and cross-containment probabilities.

Three samplers: the uniform ordered disjoint tuple (consecutive slices of
a uniform random order of [n]), the 1/h-biased matching (bucket each
element by which of h intervals its uniform variable falls into), and the
conditioned variant that rejects until every bucket holds at least k
elements.  A uniform ordered disjoint tuple is a uniform random copy of
the hypergraph of consecutive disjoint blocks with the part sizes, so the
cross probabilities Pr[A_i in F_i for all i] are copy probabilities with
one family per edge, counted exactly or estimated by the hypergraphs
cores.  The MC estimators draw their samples in batches, one array row
per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .cube import _bit_weights, _draw_chunks, _is_member, _uniform_buckets, coords_of, mask_of
from .families import family_slice
from .hypergraphs import (Hypergraph, _block_hypergraph, _check_families, _copy_masks,
                          _count_inside, _estimate_inside, _inside, _random_copies,
                          _random_images)


@dataclass(frozen=True)
class MatchingSpec:
    n: int
    mode: str  # "uniform" | "biased" | "conditioned"
    sizes: tuple | None = None
    h: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.mode == "uniform":
            if not self.sizes or sum(self.sizes) > self.n:
                raise ValueError("uniform mode needs sizes with sum <= n")
        elif self.mode == "biased":
            if not self.h or self.h < 1:
                raise ValueError("biased mode needs h >= 1")
        elif self.mode == "conditioned":
            if not self.h or self.k is None:
                raise ValueError("conditioned mode needs h and k")
            if self.h * self.k > self.n:
                raise ValueError("infeasible: h*k > n")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")


def sample(spec: MatchingSpec, seed, max_tries: int = 10_000) -> tuple:
    """One draw from the spec's distribution, as a tuple of disjoint masks."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if spec.mode == "uniform":
        copy = _random_copies(_block_hypergraph(spec.sizes), spec.n, rng, 1)
        return tuple(int(masks[0]) for masks in copy)
    if spec.mode == "biased":
        return _sample_biased(spec.n, spec.h, rng)
    # conditioned: reject until every bucket has >= k elements
    for t in range(1, max_tries + 1):
        parts = _sample_biased(spec.n, spec.h, rng)
        if all(bin(b).count("1") >= spec.k for b in parts):
            return parts
    raise RuntimeError(
        f"rejection budget exhausted after {max_tries} tries "
        f"(acceptance rate below {1.0 / max_tries:.2e})")


def _sample_biased(n: int, h: int, rng) -> tuple:
    return tuple(int(b) for b in _sample_biased_many(n, h, rng, 1)[0])


def _sample_biased_many(n: int, h: int, rng, m: int) -> np.ndarray:
    """(m, h) array of bucket masks of m successive 1/h-biased matchings.

    Row r reads the same uniforms as the r-th of m _sample_biased calls.
    """
    idx = _uniform_buckets(rng, m, n, h)
    weights = _bit_weights(n)
    return np.stack([np.where(idx == i, weights, 0).sum(axis=1) for i in range(h)], axis=1)


def acceptance_rate(spec: MatchingSpec, trials: int, seed: int) -> float:
    """Empirical acceptance probability of the conditioned sampler."""
    if spec.mode != "conditioned":
        raise ValueError("acceptance rate applies to conditioned mode")
    rng = np.random.default_rng(seed)
    ok = 0
    for m in _draw_chunks(trials):
        idx = _uniform_buckets(rng, m, spec.n, spec.h)
        accept = np.ones(m, dtype=bool)
        for i in range(spec.h):
            accept &= np.count_nonzero(idx == i, axis=1) >= spec.k
        ok += int(np.count_nonzero(accept))
    return ok / trials


def cross_probability_exact(n: int, sizes, families) -> Fraction:
    """Exact Pr[A_i in F_i for all i] over uniform ordered disjoint tuples.

    Refuses at once with WorkBoundExceeded when prod max(|F_i|, 1) exceeds
    hypergraphs._EXACT_LEAVES, about 0.7 s of search.
    """
    return _count_inside(n, families, _block_hypergraph(sizes))


def cross_probability_mc(n: int, sizes, families, samples: int,
                         seed: int) -> tuple[float, float]:
    """MC estimate with binomial standard error."""
    return _estimate_inside(n, families, _block_hypergraph(sizes), samples, seed)


def conditioned_subsample_distribution(n: int, h: int, sizes) -> dict:
    """Exact law of (M_1..M_h) where M_i is a uniform size_i-subset of the
    i-th bucket of a conditioned biased matching (all |B_i| >= size_i).

    Used to confirm this equals the uniform ordered-disjoint-tuple law.
    Cost h^n, so n must stay small.
    """
    out: dict = {}
    total = 0.0
    for assignment in range(h ** n):
        buckets = [0] * h
        a = assignment
        for j in range(n):
            buckets[a % h] |= 1 << j
            a //= h
        if any(bin(buckets[i]).count("1") < sizes[i] for i in range(h)):
            continue
        w = (1.0 / h) ** n
        total += w
        # spread over uniform subset choices inside each bucket
        choice_lists = []
        for i in range(h):
            elems = coords_of(buckets[i])
            subs = [mask_of(c) for c in combinations(elems, sizes[i])]
            choice_lists.append(subs)
        weight_each = w
        for subs in choice_lists:
            weight_each /= len(subs)
        stack = [()]
        for subs in choice_lists:
            stack = [t + (m,) for t in stack for m in subs]
        for t in stack:
            out[t] = out.get(t, 0.0) + weight_each
    # condition on acceptance
    return {t: v / total for t, v in out.items()}


def uniform_matching_distribution(n: int, sizes) -> dict:
    """Exact uniform law over ordered disjoint tuples."""
    den = 1
    left = n
    for k in sizes:
        den *= math.comb(left, k)
        left -= k
    out = {}

    def rec(i, used, t):
        if i == len(sizes):
            out[t] = 1.0 / den
            return
        elems = [c for c in range(1, n + 1) if not (used >> (c - 1)) & 1]
        for c in combinations(elems, sizes[i]):
            m = mask_of(c)
            rec(i + 1, used | m, t + (m,))

    rec(0, 0, ())
    return out


def expanded_event_equivalence(H: Hypergraph, families, samples: int,
                               seed: int) -> dict:
    """Per-sample check of the two descriptions of 'the copy lands in
    prod F_i' for an expanded hypergraph with center C: directly, and via
    the slices F_i at the image of C cross-containing the petal matching.

    The samples are drawn in batches.  The slices depend only on the image
    J of C and the traces B_i = A_i cap J, so family_slice runs once per
    distinct (J, B_1..B_h); each petal A_i minus J is squeezed onto the
    compacted ground set [n] minus J by deleting the bits of J.
    """
    C = H.center()
    n = families[0].n
    _check_families(n, families, H)
    rng = np.random.default_rng(seed)
    verts = coords_of(H.support())
    center_cols = [verts.index(v) for v in coords_of(C)]
    weights = _bit_weights(n)
    low_bits = weights - 1  # low_bits[c]: the bits below bit c
    slices: dict = {}
    mismatches = 0
    for m in _draw_chunks(samples):
        images = _random_images(H, n, rng, m)
        copies = _copy_masks(H, images, weights)
        ev1 = _inside(copies, families, m)

        centers = images[:, center_cols]
        jmasks = weights[centers].sum(axis=1)
        petals = [masks & ~jmasks for masks in copies]
        for c in np.sort(centers, axis=1)[:, ::-1].T:  # highest bit of J first
            low = low_bits[c]
            petals = [(p & low) | ((p >> 1) & ~low) for p in petals]

        ev2 = np.ones(m, dtype=bool)
        groups, inverse = np.unique(centers, axis=0, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        starts = np.cumsum([0, *np.bincount(inverse, minlength=len(groups))])
        for a, b in zip(starts, starts[1:]):
            rows = order[a:b]
            J = int(jmasks[rows[0]])
            key = (J, *(int(masks[rows[0]]) & J for masks in copies))
            if key not in slices:
                slices[key] = [family_slice(F, coords_of(J), coords_of(B)).members
                               for F, B in zip(families, key[1:])]
            for p, members in zip(petals, slices[key]):
                ev2[rows] &= _is_member(p[rows], members)
        mismatches += int(np.count_nonzero(ev1 != ev2))
    return {"samples": samples, "mismatches": mismatches}
