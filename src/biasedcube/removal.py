"""Desk-scale pipelines: greedy regularity decompositions, monotone
junta approximation, threshold curves, and the removal-lemma experiments.

The decomposition heuristic grows a coordinate set J greedily by largest
noisy influence; part statuses (quasirandom / negligible / bad) are then
computed exactly, so downstream conclusions never rest on the heuristic.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .cube import (DenseFunction, _bias_levels, _level_tiles, apply_coordinatewise,
                   expectation, mask_of, part_spectra, popcounts)
from .noise import CouplingParams, _submasks, cross_term, is_regular, monotonicity_defect
from .families import JuntaFamily, SetFamily, _slice_measures
from .hypergraphs import (Hypergraph, WorkBoundExceeded, almost_free_estimate,
                          almost_free_exact, junta_is_Hs_free)


@dataclass
class Decomposition:
    J: tuple
    parts: dict          # assignment mask over J -> "quasirandom" | "negligible" | "bad"
    diagnostics: dict    # assignment mask -> {"mass", "mean", "max_noisy_influence"}
    failed: bool
    bad_mass: float


def decompose(f: DenseFunction, q: float, rho: float, delta: float,
              j_max: int, neg_threshold: float = 0.05) -> Decomposition:
    """Greedy junta decomposition by maximal noisy influence.

    Grows J until every part of mu_q-mass >= delta is quasirandom (all
    noisy influences < delta) or negligible (mean < neg_threshold,
    strictly), or j_max is hit; final statuses are exact.  Each round
    reads every part's mean and noisy influences from one part_spectra.
    """
    if j_max > 12:
        raise ValueError("j_max capped at 12")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho outside [0,1]")
    J: list = []
    while True:
        spectra = part_spectra(f, J, q)
        rest = [c for c in range(1, f.n + 1) if c not in J]
        # up[b, T] sums rho^|S| fhat(S)^2 of part b over the S containing T,
        # so infs[b, i] is its noisy influence at rest[i]
        up = apply_coordinatewise(spectra ** 2, len(rest), [(1.0, rho, 0.0, rho)] * len(rest))
        infs = up.reshape(spectra.shape)[:, 1 << np.arange(len(rest))]
        statuses, diags, worst = {}, {}, None
        for b, row in enumerate(infs):
            a_mask = mask_of(c for idx, c in enumerate(J) if b >> idx & 1)
            mass = math.prod((q if a_mask >> (c - 1) & 1 else 1.0 - q for c in J), start=1.0)
            mean = float(spectra[b, 0])
            maxinf = float(row.max(initial=0.0))
            if mean < neg_threshold:
                status = "negligible"
            elif maxinf < delta:
                status = "quasirandom"
            else:
                status = "bad"
            statuses[a_mask] = status
            diags[a_mask] = {"mass": mass, "mean": mean,
                             "max_noisy_influence": maxinf}
            if status == "bad" and mass >= delta:
                cand = (maxinf * mass, rest[int(np.argmax(row))])
                if worst is None or cand > worst:
                    worst = cand
        bad_mass = sum(d["mass"] for a, d in diags.items() if statuses[a] == "bad")
        if worst is None or len(J) >= j_max:
            return Decomposition(tuple(J), statuses, diags, worst is not None, bad_mass)
        J.append(worst[1])
        J.sort()


def monotone_junta_approx(f: DenseFunction, cp: CouplingParams,
                          delta: float = 0.1, eps: float = 0.2,
                          j_max: int = 6) -> tuple:
    """Monotone junta approximation built from a decomposition at bias q.

    Takes the up-closure of the dense quasirandom parts on {0,1}^J and
    lifts its indicator to all n coordinates.  Returns (g, err_q, err_p,
    report) with exact one-sided errors Pr_q[f > g] and Pr_p[f < g].
    """
    if not f.boolean:
        raise ValueError("input must be Boolean")
    defect = monotonicity_defect(f, cp)
    dec = decompose(f, cp.q, cp.rho, delta, j_max, neg_threshold=eps / 2.0)
    J = dec.J
    jmask = mask_of(J)
    # the up-closure of the quasirandom parts (dense, every noisy influence
    # < delta): a joins when it is one, or when some a minus one bit has joined
    A: set = set()
    for a in sorted(_submasks(jmask)):  # every subset of a comes first
        if dec.parts[a] == "quasirandom" or any(a & ~(1 << (c - 1)) in A for c in J):
            A.add(a)
    x = np.arange(1 << f.n)
    member = np.isin(x & jmask, sorted(A)) if A else np.zeros(1 << f.n, dtype=bool)
    g = DenseFunction(f.n, member.astype(np.float64), boolean=True)

    if not is_monotone(g):
        raise AssertionError("up-closure failed to be monotone")

    err_q = math.fsum(np.dot(w, f.values[t] * (1.0 - g.values[t]))
                      for t, w in _level_tiles(_bias_levels(f.n, cp.q), f.n))
    err_p = math.fsum(np.dot(w, (1.0 - f.values[t]) * g.values[t])
                      for t, w in _level_tiles(_bias_levels(f.n, cp.p), f.n))
    report = {"J": list(J), "defect": defect, "decomposition_failed": dec.failed,
              "bad_mass": dec.bad_mass, "err_q": err_q, "err_p": err_p}
    return g, err_q, err_p, report


# the bits of a 64-bit word whose position has bit i clear, for i < 6
_LOW_HALVES = np.array([0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                        0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF],
                       dtype=np.uint64)


def is_monotone(f: DenseFunction) -> bool:
    """f(x) <= f(x + e_i) for every point x and coordinate i outside x."""
    if not f.boolean:
        for i in range(f.n):
            v = f.values.reshape(-1, 2, 1 << i)
            if np.any(v[:, 0, :] > v[:, 1, :]):
                return False
        return True
    # a Boolean table as bits, 64 points a word: point 64 w + k is bit k of
    # word w, and zeros pad a table of fewer points to one word
    bits = np.packbits(f.values.astype(bool), bitorder="little")
    words = np.pad(bits, (0, -len(bits) % 8)).view("<u8")
    for i in range(f.n):
        if i < 6:  # x and x + e_i share a word, 2^i bits apart
            lo, hi = words & _LOW_HALVES[i], (words >> np.uint64(1 << i)) & _LOW_HALVES[i]
        else:
            v = words.reshape(-1, 2, 1 << (i - 6))
            lo, hi = v[:, 0, :], v[:, 1, :]
        if np.any(lo & ~hi):
            return False
    return True


@dataclass
class ThresholdCurve:
    ps: list
    mus: list
    p_c: float | None
    bracket: tuple
    monotone: bool


def _mu_from_layers(layer_sums: np.ndarray, n: int, p: float) -> float:
    j = np.arange(n + 1)
    return float(np.dot(layer_sums, p ** j * (1.0 - p) ** (n - j)))


def threshold_curve(f: DenseFunction, grid) -> ThresholdCurve:
    """Exact mu_p(f) on a grid plus the critical probability by bisection.

    p_c is None when mu_p - 1/2 has one strict sign at both ends of
    [1e-6, 1 - 1e-6], or when the curve is flat: mu_p = 1/2 for every p,
    that is layer sums C(n, j)/2.  Rounding leaves a flat curve's end
    residuals at 0.0 or -5.6e-17, which the sign test alone would bisect.
    """
    n = f.n
    # np.bincount would copy the read-only table; np.add.at adds in the same
    # order, so the sums are bit-identical, and needs no copy
    layer_sums = np.zeros(n + 1)
    np.add.at(layer_sums, popcounts(n), f.values)
    monotone = is_monotone(f)
    mus = [_mu_from_layers(layer_sums, n, p) for p in grid]
    lo, hi = 1e-6, 1.0 - 1e-6
    p_c = None
    mlo = _mu_from_layers(layer_sums, n, lo) - 0.5
    mhi = _mu_from_layers(layer_sums, n, hi) - 0.5
    flat = np.array_equal(layer_sums, [math.comb(n, j) / 2 for j in range(n + 1)])
    if mlo * mhi <= 0.0 and not flat:
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if (_mu_from_layers(layer_sums, n, mid) - 0.5) * mlo > 0.0:
                lo = mid
            else:
                hi = mid
        p_c = 0.5 * (lo + hi)
    return ThresholdCurve(list(grid), mus, p_c, (lo, hi), monotone)


def robust_fk_instance(f: DenseFunction, g: DenseFunction, cp: CouplingParams,
                       delta: float, eps: float) -> dict:
    """One instance of the regular cross-term dichotomy.

    Hypotheses: f is (ceil(1/delta), delta)-regular at mu_q and the
    coupling cross term is below delta.  Conclusion checked: mu_q(f) < eps
    or mu_p(g) > 1 - eps.  Failing hypotheses yield 'not_applicable'.
    """
    r = math.ceil(1.0 / delta)
    regular = is_regular(f, min(r, f.n), delta, cp.q)
    ct = cross_term(f, g, cp)
    mu_q_f = expectation(f, cp.q)
    mu_p_g = expectation(g, cp.p)
    out = {"regular": regular, "cross_term": ct, "delta": delta, "eps": eps,
           "mu_q_f": mu_q_f, "mu_p_g": mu_p_g}
    if not regular or ct >= delta:
        out["verdict"] = "not_applicable"
        return out
    out["verdict"] = "pass" if (mu_q_f < eps or mu_p_g > 1.0 - eps) else "fail"
    return out


def greedy_family_junta(F: SetFamily, j_max: int = 4, reg_delta: float = 0.25,
                        g_threshold: float | None = None) -> JuntaFamily:
    """Greedy junta for a family: repeatedly add the coordinate to which
    some current slice is most sensitive, until every slice is nearly
    indifferent to every remaining coordinate; the generator keeps the
    slices of significant measure."""
    J: list = []
    while len(J) < min(j_max, F.n - F.k):
        rest = [i for i in range(1, F.n + 1) if i not in J]
        # candidate i is the top bit of its row: the halves are B + [i] and B
        m = _slice_measures(F, [J + [i] for i in rest])
        dev = np.fmax.reduce(np.abs(m[:, 1 << len(J):] - m[:, :1 << len(J)]),
                             axis=1, initial=0.0)
        best = int(np.argmax(dev))  # the first maximum: the smallest such i
        if dev[best] < reg_delta:
            break
        J = sorted(J + [rest[best]])
    thr = 0.5 * F.measure if g_threshold is None else g_threshold
    keep = np.flatnonzero(_slice_measures(F, [J])[0] >= thr)
    G = frozenset(mask_of(c for idx, c in enumerate(J) if b >> idx & 1) for b in keep)
    return JuntaFamily(F.n, F.k, tuple(J), G)


def _almost_free(F: SetFamily, H: Hypergraph, samples: int, seed: int) -> tuple:
    """(value, exact Fraction or None, stderr or None); estimated if the count refuses."""
    try:
        exact = almost_free_exact(F, H)
    except WorkBoundExceeded:
        est, se = almost_free_estimate(F, H, samples, seed)
        return est, None, se
    return float(exact), exact, None


def removal_pipeline(F: SetFamily, H: Hypergraph, s: int, seed: int = 0,
                     samples: int = 20_000) -> dict:
    """Four-stage removal experiment, returning a stage-keyed report.

    (a) almost-H-freeness of F, exact unless the count refuses, else MC;
    (b) greedy junta approximation with the escaping mass mu(F minus <G>);
    (c) exact (H, s)-freeness of the junta, from Venn-cell placements of J;
    (d) converse decay: almost-freeness of the junta along the n-ladder
        n, n+2, n+4, checked against the n^-(s+1) rate with a factor-3 ratio band.
    """
    if F.n > 14 or bin(H.support()).count("1") > 8:
        raise ValueError("pipeline is desk-scale: n <= 14, |V(H)| <= 8")
    report: dict = {"inputs_hash": _inputs_hash(F, H, s), "seed": seed}

    # (a)
    value, exact, se = _almost_free(F, H, samples, seed)
    report["almost_free"] = ({"value": value, "stderr": se} if exact is None else
                             {"exact": f"{exact.numerator}/{exact.denominator}", "value": value})

    # (b)
    jf = greedy_family_junta(F)
    escape = sum(not jf.contains(m) for m in F.members) / math.comb(F.n, F.k)
    report["junta"] = {"J": list(jf.J), "G": sorted(jf.G),
                       "escaping_mass": escape}

    # (c)
    report["freeness"] = {"free": junta_is_Hs_free(jf, H, s)}

    # (d)
    decay = []
    for n2 in (F.n, F.n + 2, F.n + 4):
        jf2 = JuntaFamily(n2, F.k, jf.J, jf.G)
        value, exact, se = _almost_free(jf2.generated(), H, samples, seed + n2)
        rung = {"n": n2, "value": value, "exact": exact is not None}
        if exact is None:
            rung["stderr"] = se
        decay.append(rung)
    ok = True
    for a, b in zip(decay, decay[1:]):
        if a["value"] <= 0.0:
            continue
        ratio = b["value"] / a["value"]
        bound = 3.0 * (a["n"] / b["n"]) ** (s + 1)
        if ratio > bound:
            ok = False
    report["converse_decay"] = {"ladder": decay, "within_band": ok}
    return report


def _inputs_hash(F: SetFamily, H: Hypergraph, s: int) -> str:
    blob = json.dumps({"F": sorted(F.members), "n": F.n, "k": F.k,
                       "H": list(H.edges), "u": H.universe_size, "s": s},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
