"""Hypergraph structure operations: center, k-expansion, resolution,
traces, freeness of junta families, and copy counting: the chance that
a uniform random copy of H has its i-th edge in F_i, exact or estimated.

A hypergraph is an ordered list of edge bitmasks over an explicit vertex
universe.  A resolution at a vertex set S replaces each occurrence of a
vertex of S by a fresh per-edge vertex; a trace is the tuple of edge
intersections with a fixed set.  A family is (H, s)-free when it
contains no copy of a resolution of H whose center has size at most s;
for a junta family, placing J in each resolution's Venn cells decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from .cube import (_binomial_estimate, _bit_weights, _draw_chunks, _is_member,
                   _uniform_orders, coords_of, mask_of)
from .families import JuntaFamily, SetFamily


class WorkBoundExceeded(ValueError):
    """Raised when an exact count would visit more than _EXACT_LEAVES leaves."""


# Unpruned leaves, prod max(|F_i|, 1), past which an exact count refuses.  One
# core of a 2-vCPU Xeon VM (Python 3.11) took 3.9-7.2e-8 s a leaf for full(n, 4)
# against M_2 and for 3-uniform families against the 3-edge sunflower, and up to
# 1.8e-7 s for stars against it: at most about 0.7 s a search (1.8 s for a star).
_EXACT_LEAVES = 10 ** 7


@dataclass(frozen=True)
class Hypergraph:
    universe_size: int
    edges: tuple
    allow_repeats: bool = False

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(int(e) for e in self.edges))
        full = (1 << self.universe_size) - 1
        for e in self.edges:
            if e & ~full:
                raise ValueError("edge leaves the universe")
        if not self.allow_repeats and len(set(self.edges)) != len(self.edges):
            raise ValueError("repeated edges only allowed in trace outputs")

    @property
    def h(self) -> int:
        return len(self.edges)

    def support(self) -> int:
        m = 0
        for e in self.edges:
            m |= e
        return m

    def center(self) -> int:
        """Mask of vertices lying in at least two edges (list positions count)."""
        c = 0
        for i, a in enumerate(self.edges):
            for b in self.edges[i + 1:]:
                c |= a & b
        return c

    def max_edge_size(self) -> int:
        return max((bin(e).count("1") for e in self.edges), default=0)

    # -- file format -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.universe_size} {self.h}"]
        for e in self.edges:
            lines.append(" ".join(str(c) for c in coords_of(e)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Hypergraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty hypergraph text: need a 'universe h' header line")
        universe, h = (int(t) for t in lines[0].split())
        if len(lines) - 1 != h:
            raise ValueError(f"expected {h} edge lines, found {len(lines) - 1}")
        edges = tuple(mask_of(int(t) for t in ln.split()) for ln in lines[1:])
        return Hypergraph(universe, edges)


def matching_hypergraph(h: int, k: int) -> Hypergraph:
    """M_h: h pairwise disjoint k-edges."""
    return _block_hypergraph([k] * h)


def _block_hypergraph(sizes) -> Hypergraph:
    """Consecutive disjoint blocks of [sum(sizes)], one edge per size.

    A uniform random copy is a uniform ordered disjoint tuple with these
    part sizes.  Zero sizes give empty edges, which may repeat.
    """
    edges = []
    v = 0
    for k in sizes:
        edges.append(mask_of(range(v + 1, v + k + 1)))
        v += k
    return Hypergraph(v, tuple(edges), allow_repeats=0 in sizes)


def sunflower_hypergraph(h: int, k: int) -> Hypergraph:
    """I_{h,1} style: h k-edges sharing exactly one common vertex."""
    edges = []
    v = 2
    for _ in range(h):
        edges.append(1 | mask_of(range(v, v + k - 1)))
        v += k - 1
    return Hypergraph(v - 1, tuple(edges))


def is_expanded(H: Hypergraph, h: int, d: int) -> bool:
    """At most h edges and all pairwise intersections of size at most d."""
    if H.h > h:
        return False
    for i, a in enumerate(H.edges):
        for b in H.edges[i + 1:]:
            if bin(a & b).count("1") > d:
                return False
    return True


def k_expand(H: Hypergraph, k: int) -> Hypergraph:
    """Pad every edge to size k with globally fresh vertices, in edge order."""
    if H.max_edge_size() > k:
        raise ValueError("k smaller than an existing edge")
    fresh = H.universe_size + 1
    edges = []
    for e in H.edges:
        need = k - bin(e).count("1")
        e |= mask_of(range(fresh, fresh + need))
        fresh += need
        edges.append(e)
    return Hypergraph(fresh - 1, tuple(edges))


def resolve(H: Hypergraph, S) -> Hypergraph:
    """Resolution at S: each vertex of S is replaced, in every containing
    edge, by a distinct fresh vertex (ascending allocation)."""
    Sset = sorted(set(S))
    edges = list(H.edges)
    fresh = H.universe_size + 1
    for v in Sset:
        bit = 1 << (v - 1)
        for i, e in enumerate(edges):
            if e & bit:
                edges[i] = (e & ~bit) | (1 << (fresh - 1))
                fresh += 1
    return Hypergraph(fresh - 1, tuple(edges), allow_repeats=True)


def traces(H: Hypergraph, support_bound: int | None = None,
           center_bound: int | None = None) -> list:
    """All distinct ordered tuples (A_1 cap S, ..., A_h cap S).

    S ranges over subsets of the edge support (vertices outside every
    edge cannot change a trace).  support_bound caps |S|; center_bound
    filters by the trace's center size.
    """
    sup = coords_of(H.support())
    cap = len(sup) if support_bound is None else min(support_bound, len(sup))
    seen = set()
    out = []
    for size in range(cap + 1):
        for S in combinations(sup, size):
            smask = mask_of(S)
            t = tuple(e & smask for e in H.edges)
            if t in seen:
                continue
            seen.add(t)
            if center_bound is not None:
                tc = Hypergraph(H.universe_size, t, allow_repeats=True).center()
                if bin(tc).count("1") > center_bound:
                    continue
            out.append(t)
    return out


def _venn_signature(edges) -> tuple:
    """Cell sizes of the Venn diagram of an ordered edge tuple.

    Entry T (1-based bitmask over edge indices) is the number of vertices
    lying in exactly the edges of T.  Two ordered tuples with equal
    signatures are copies of each other.
    """
    h = len(edges)
    sig = []
    for T in range(1, 1 << h):
        inter = ~0
        union_rest = 0
        for i in range(h):
            if (T >> i) & 1:
                inter &= edges[i]
            else:
                union_rest |= edges[i]
        sig.append(bin(inter & ~union_rest).count("1"))
    return tuple(sig)


def _admissible_resolutions(Hk: Hypergraph, s: int):
    """Resolutions of Hk with at most s center vertices.  Resolving a private
    vertex leaves the copy type unchanged, so only center subsets are resolved."""
    if s < 0:
        raise ValueError(f"center bound s must be non-negative, got {s}")
    cverts = coords_of(Hk.center())
    for size in range(len(cverts) + 1):
        for S in combinations(cverts, size):
            R = resolve(Hk, S)
            if R.center().bit_count() <= s:
                yield R


def _venn_pattern_fits(cells, jf: JuntaFamily) -> bool:
    """Does <G> hold a copy whose Venn cell T has cells[T - 1] vertices?

    Each coordinate of J goes to a cell T with room left (it then lies in
    exactly the edges of T) or outside the copy (T = 0).  A placement is
    a copy when every edge's trace on J is in G and the slots left fit in
    the n - |J| points outside J.  A prefix of the placement is cut when
    a trace is no prefix of a member of G, or the rest cannot close the gap.
    """
    bits = [1 << (c - 1) for c in jf.J]
    prefixes = [{g & sum(bits[:d]) for g in jf.G} for d in range(len(bits) + 1)]
    left = [len(bits), *cells]  # free slots per cell; T = 0 takes every coordinate
    room = jf.n - len(bits)
    nonempty = [T for T, c in enumerate(left) if c]

    def place(d, edge_traces, need):
        if need - (len(bits) - d) > room or any(t not in prefixes[d] for t in edge_traces):
            return False
        if d == len(bits):
            return True
        for T in nonempty:
            if left[T]:
                left[T] -= 1
                found = place(d + 1, tuple(t | bits[d] if T >> i & 1 else t
                                           for i, t in enumerate(edge_traces)), need - (T > 0))
                left[T] += 1
                if found:
                    return True
        return False

    return place(0, (0,) * (len(left).bit_length() - 1), sum(cells))


def junta_is_Hs_free(jf: JuntaFamily, H: Hypergraph, s: int) -> bool:
    """Exact (H, s)-freeness of <G> = {A : A cap J in G}, at any n and k.

    <G> holds a copy of a resolution R of the k-expanded H exactly when J
    can be placed into R's Venn cells (_venn_pattern_fits).  Resolutions
    with equal Venn signatures are one copy type and are tried once.
    """
    Hk = k_expand(H, jf.k)
    signatures = {_venn_signature(R.edges) for R in _admissible_resolutions(Hk, s)}
    return not any(_venn_pattern_fits(sig, jf) for sig in signatures)


def junta_is_Hs_free_exhaustive(jf: JuntaFamily, H: Hypergraph, s: int) -> bool:
    """Oracle: search the generated family directly for a copy of any
    resolution of H (k-expanded) with center of size at most s.

    Copies are recognized by Venn signatures: an ordered tuple of k-sets
    is a copy of a resolution iff its signature matches the signature of
    that resolution under some edge reordering.  Refuses past _EXACT_LEAVES tuples.
    """
    Hk = k_expand(H, jf.k)
    h = Hk.h
    admissible = {_venn_signature([R.edges[i] for i in perm])
                  for R in _admissible_resolutions(Hk, s)
                  for perm in permutations(range(h))}
    members = sorted(jf.generated().members)
    if len(members) ** h > _EXACT_LEAVES:
        raise WorkBoundExceeded("work bound exceeded; shrink the instance")
    return not any(_venn_signature(t) in admissible for t in product(members, repeat=h))


def random_copy(H: Hypergraph, n: int, seed) -> tuple:
    """Image of a uniform injection of the edge support into [n]."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    verts = coords_of(H.support())
    if len(verts) > n:
        raise ValueError("not enough vertices to host a copy")
    image = rng.choice(n, size=len(verts), replace=False) + 1
    vmap = {v: int(image[i]) for i, v in enumerate(verts)}
    return tuple(mask_of(vmap[v] for v in coords_of(e)) for e in H.edges)


def _copy_masks(H: Hypergraph, images: np.ndarray, weights: np.ndarray) -> list:
    """Edge masks of a batch of copies of H, one array per edge.

    Column i of images holds the 0-based image of the i-th support vertex
    of H; weights is _bit_weights(n).
    """
    col = {v: i for i, v in enumerate(coords_of(H.support()))}
    return [weights[images[:, [col[v] for v in coords_of(e)]]].sum(axis=1) for e in H.edges]


def _random_images(H: Hypergraph, n: int, rng, m: int) -> np.ndarray:
    """(m, v) images of H's support vertices under m uniform injections."""
    v = bin(H.support()).count("1")
    if v > n:
        raise ValueError("not enough vertices to host a copy")
    return _uniform_orders(rng, m, n)[:, :v]


def _random_copies(H: Hypergraph, n: int, rng, m: int) -> list:
    """Edge masks of m uniform random copies of H in [n], one array per edge."""
    return _copy_masks(H, _random_images(H, n, rng, m), _bit_weights(n))


def _inside(copies: list, families, m: int) -> np.ndarray:
    """Which of m copies have their i-th edge in families[i] for every i."""
    inside = np.ones(m, dtype=bool)
    for masks, F in zip(copies, families):
        inside &= _is_member(masks, F.members)
    return inside


def _check_families(n: int, families, H: Hypergraph) -> None:
    """One family per edge of H, all on [n], each as uniform as its edge,
    and room in [n] for a copy of H."""
    if len(families) != H.h:
        raise ValueError(f"one family per edge or part required, got "
                         f"{len(families)} for {H.h}")
    for i, (e, F) in enumerate(zip(H.edges, families)):
        if F.n != n:
            raise ValueError(f"family {i + 1} lives on [{F.n}], not on [{n}]")
        if F.k != e.bit_count():
            raise ValueError(f"edge sizes must match the family uniformity: edge "
                             f"{i + 1} has size {e.bit_count()}, its family {F.k}")
    if H.support().bit_count() > n:
        raise ValueError("not enough vertices to host a copy")


def _estimate_inside(n: int, families, H: Hypergraph, samples: int,
                     seed: int) -> tuple[float, float]:
    """MC estimate of the chance that a uniform random copy of H in [n] has
    its i-th edge in families[i] for every i."""
    _check_families(n, families, H)
    rng = np.random.default_rng(seed)
    hits = 0
    for m in _draw_chunks(samples):
        hits += int(np.count_nonzero(_inside(_random_copies(H, n, rng, m), families, m)))
    return _binomial_estimate(hits, samples)


def _count_inside(n: int, families, H: Hypergraph) -> Fraction:
    """Exact chance that a uniform random copy of H in [n] has its i-th edge
    in families[i] for every i.

    A uniform injection of the support induces the uniform distribution
    over ordered edge tuples sharing H's Venn signature, and each tuple
    is hit by exactly prod |cell|! injections.  So the probability is
    (#signature-matching tuples inside prod F_i) * prod |cell|! / (n)_v.

    The matching tuples are counted by depth-first search, position i
    drawing from families[i].  The sizes |cap_{i in T} A_i|, over nonempty
    sets T of edge positions, are sums of the Venn cells U containing T and
    determine the cells back (Moebius inversion), so a candidate joins a
    prefix only when its intersections with the prefix's running
    intersections have the target sizes; the leaves are exactly the
    matching tuples.  Pruning changes only the time: the count refuses at
    once when the unpruned leaves, prod max(|F_i|, 1), exceed _EXACT_LEAVES.
    """
    _check_families(n, families, H)
    if math.prod(max(len(F.members), 1) for F in families) > _EXACT_LEAVES:
        raise WorkBoundExceeded("work bound exceeded; use the Monte-Carlo estimate")
    h = H.h
    member_lists = [sorted(F.members) for F in families]
    cells = _venn_signature(H.edges)
    sizes = [0, *cells]  # summed over supersets: sizes[T] = |cap_{i in T} A_i|
    for i in range(h):
        for T in range(1 << h):
            if not T >> i & 1:
                sizes[T] += sizes[T | 1 << i]

    def count(inters, d):
        # inters[T - 1] is the intersection of the chosen members in T, for
        # nonempty T over positions < d.  A new member b at position d forms
        # T | (1 << d): b itself for T = 0 (a k-set, like A_d), else
        # inters[T - 1] & b, whose size must be sizes[T | (1 << d)].
        cands = member_lists[d]
        for m, w in zip(inters, sizes[(1 << d) + 1:2 << d]):
            cands = [b for b in cands if (m & b).bit_count() == w]
        if d + 1 == h:
            return len(cands)
        return sum(count(inters + [b] + [m & b for m in inters], d + 1)
                   for b in cands)

    matches = count([], 0) if h else 1  # an edgeless H has one copy: ()
    cell_perms = math.prod(math.factorial(c) for c in cells)
    return Fraction(matches * cell_perms, math.perm(n, H.support().bit_count()))


def almost_free_estimate(F: SetFamily, H: Hypergraph, samples: int,
                         seed: int) -> tuple[float, float]:
    """Fraction of uniform random copies of H lying entirely inside F."""
    return _estimate_inside(F.n, [F] * H.h, H, samples, seed)


def almost_free_exact(F: SetFamily, H: Hypergraph) -> Fraction:
    """Exact probability that a uniform random copy of H lies inside F.

    Counted by the pruned search of _count_inside with F at every edge,
    which never enumerates injections.  Raises WorkBoundExceeded at once
    when max(|F|, 1)**h exceeds _EXACT_LEAVES.
    """
    return _count_inside(F.n, [F] * H.h, H)


def trace_probability_order(H: Hypergraph, J, trace, n: int, samples: int,
                            seed: int) -> tuple[float, float]:
    """MC estimate of Pr[A_i cap J = B_i for all i] for a uniform copy.

    J is a set of 1-based coordinates of [n]; trace gives the target
    masks B_i over those coordinates.
    """
    jmask = mask_of(J)
    for B in trace:
        if B & ~jmask:
            return 0.0, 0.0
    rng = np.random.default_rng(seed)
    jmask_n = jmask & ((1 << n) - 1)  # copies live in [n]
    hits = 0
    for m in _draw_chunks(samples):
        match = np.ones(m, dtype=bool)
        for masks, B in zip(_random_copies(H, n, rng, m), trace):
            match &= (masks & jmask_n) == B
        hits += int(np.count_nonzero(match))
    return _binomial_estimate(hits, samples)
