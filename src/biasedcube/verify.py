"""Invariant battery: one place that exercises every module's identities.

Each check returns a dict {name, passed, value}; run_battery collects
them all.  The base tolerance tol (default 1e-9) is scaled per check so
that tightening it to 0 fails every numeric comparison.
"""

from __future__ import annotations

import math

import numpy as np

from . import cube, families, gaussian, hypergraphs, matchings, noise, removal
from .cube import DenseFunction
from .families import SetFamily
from .hypergraphs import Hypergraph
from .noise import CouplingParams


def _c(name: str, passed: bool, value) -> dict:
    return {"name": name, "passed": bool(passed), "value": float(value)}


def _rand_fn(rng, n: int, boolean: bool = False) -> DenseFunction:
    if boolean:
        return DenseFunction(n, (rng.random(1 << n) < 0.5).astype(float), boolean=True)
    return DenseFunction(n, rng.random(1 << n))


# ---------------------------------------------------------------- fourier


def checks_fourier(rng, tol: float) -> list:
    out = []
    worst_rt = worst_p1 = worst_p2 = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        p = float(rng.choice([0.2, 0.5, 0.8]))
        f = _rand_fn(rng, n)
        g = _rand_fn(rng, n)
        s = cube.transform(f, p)
        sg = cube.transform(g, p)
        worst_rt = max(worst_rt, float(np.max(np.abs(
            cube.inverse_transform(s).values - f.values))))
        worst_p1 = max(worst_p1, abs(float(np.sum(s.coeffs ** 2))
                                     - cube.inner_product(f, f, p)))
        worst_p2 = max(worst_p2, abs(float(np.dot(s.coeffs, sg.coeffs))
                                     - cube.inner_product(f, g, p)))
    out.append(_c("fourier.round_trip", worst_rt < 0.1 * tol, worst_rt))
    out.append(_c("fourier.parseval_energy", worst_p1 < tol, worst_p1))
    out.append(_c("fourier.parseval_inner", worst_p2 < tol, worst_p2))

    n, p = 5, 0.3
    worst = 0.0
    chis = [DenseFunction(n, cube.character_table(n, S, p)) for S in range(1 << n)]
    for S, chi_s in enumerate(chis):
        for T, chi_t in enumerate(chis):
            ip = cube.inner_product(chi_s, chi_t, p)
            worst = max(worst, abs(ip - (1.0 if S == T else 0.0)))
    out.append(_c("fourier.character_orthonormality", worst < 0.1 * tol, worst))

    p = 0.25
    tab = cube.character_table(1, 1, p)
    err = max(abs(tab[0] - math.sqrt(p / (1 - p))),
              abs(tab[1] + math.sqrt((1 - p) / p)))
    out.append(_c("fourier.character_values", err < 0.001 * tol, err))

    f = _rand_fn(rng, 6)
    d = cube.transform_direct(f, 0.35)
    b = cube.transform(f, 0.35)
    err = float(np.max(np.abs(d.coeffs - b.coeffs)))
    out.append(_c("fourier.butterfly_vs_direct_oracle", err < tol, err))

    f = DenseFunction.dictator(1, 1)
    coeff = cube.transform(f, 0.25).coeffs[1]
    err = abs(coeff + math.sqrt(0.25 * 0.75))
    out.append(_c("fourier.dictator_coefficient", err < tol, err))

    f = _rand_fn(rng, 7)
    T = [2, 5]
    s_avg = cube.transform(cube.average_over(f, T, 0.4), 0.4)
    s_f = cube.transform(f, 0.4)
    tmask = cube.mask_of(T)
    masks = np.arange(1 << 7)
    expect = np.where(masks & tmask, 0.0, s_f.coeffs)
    err = float(np.max(np.abs(s_avg.coeffs - expect)))
    out.append(_c("fourier.averaging_spectral", err < 0.1 * tol, err))

    f = _rand_fn(rng, 6)
    err = max(abs(cube.influence(f, i, 0.6)
                  - cube.influence_definitional(f, i, 0.6)) for i in range(1, 7))
    out.append(_c("fourier.influence_definitional", err < tol, err))

    rho, p = 0.7, 0.45
    s = cube.transform(f, p)
    pc = cube.popcounts(6)
    rhs = float(np.sum(pc * rho ** pc * s.coeffs ** 2))
    lhs = sum(cube.noisy_influence(f, i, rho, p) for i in range(1, 7))
    out.append(_c("fourier.noisy_influence_sum", abs(lhs - rhs) < tol, abs(lhs - rhs)))

    stab = cube.stability(DenseFunction.dictator(3, 1), 0.8, 0.5)
    out.append(_c("fourier.dictator_stability", abs(stab - 0.45) < tol, abs(stab - 0.45)))

    f = _rand_fn(rng, 5)
    rt = DenseFunction.from_bytes(f.to_bytes())
    rt2 = DenseFunction.from_json(f.to_json())
    ok = np.array_equal(rt.values, f.values) and np.allclose(rt2.values, f.values, atol=1e-15)
    out.append(_c("fourier.serialization_round_trip", ok, 0.0))
    return out


# ------------------------------------------------------------------ noise


def checks_noise(rng, tol: float) -> list:
    out = []
    cp = CouplingParams(0.2, 0.5)
    out.append(_c("noise.rho_closed_form", abs(cp.rho - 0.5) < 0.001 * tol,
                  abs(cp.rho - 0.5)))

    f = _rand_fn(rng, 7)
    err = float(np.max(np.abs(
        noise.noise_operator(f, 0.3, 0.6, "spectral").values
        - noise.noise_operator(f, 0.3, 0.6, "definitional").values)))
    out.append(_c("noise.operator_dual_route", err < 0.1 * tol, err))

    ident = float(np.max(np.abs(noise.noise_operator(f, 1.0, 0.6).values - f.values)))
    const = noise.noise_operator(f, 0.0, 0.6).values
    errc = float(np.max(np.abs(const - cube.expectation(f, 0.6))))
    out.append(_c("noise.rho_one_identity", ident < 0.1 * tol, ident))
    out.append(_c("noise.rho_zero_mean", errc < 0.1 * tol, errc))

    cp2 = CouplingParams(0.3, 0.7)
    fq = _rand_fn(rng, 6)
    gp = _rand_fn(rng, 6)
    err_up = float(np.max(np.abs(noise.directed_up(fq, cp2, "spectral").values
                                 - noise.directed_up(fq, cp2, "definitional").values)))
    err_dn = float(np.max(np.abs(noise.directed_down(gp, cp2, "spectral").values
                                 - noise.directed_down(gp, cp2, "definitional").values)))
    out.append(_c("noise.directed_up_dual_route", err_up < 0.1 * tol, err_up))
    out.append(_c("noise.directed_down_dual_route", err_dn < 0.1 * tol, err_dn))

    lhs = cube.inner_product(noise.directed_up(fq, cp2), gp, cp2.p)
    rhs = cube.inner_product(fq, noise.directed_down(gp, cp2), cp2.q)
    out.append(_c("noise.adjointness", abs(lhs - rhs) < 0.1 * tol, abs(lhs - rhs)))

    worst = 0.0
    for q in np.linspace(0.1, 0.45, 5):
        for p in np.linspace(0.5, 0.9, 5):
            cpx = CouplingParams(float(q), float(p))
            chi_q = DenseFunction(1, cube.character_table(1, 1, cpx.q))
            chi_p = DenseFunction(1, cube.character_table(1, 1, cpx.p))
            up = noise.directed_up(chi_q, cpx, "definitional")
            dn = noise.directed_down(chi_p, cpx, "definitional")
            worst = max(worst, float(np.max(np.abs(up.values - cpx.rho * chi_p.values))),
                        float(np.max(np.abs(dn.values - cpx.rho * chi_q.values))))
    out.append(_c("noise.conditional_character_identity", worst < 0.001 * tol, worst))

    sampler = noise.CoupledSampler(cp2, 10, seed=7)
    xs, ys = sampler.sample_many(20_000)
    dominated = bool(np.all((xs & ~ys) == 0))
    mean_x = float(np.mean(cube.popcounts(10)[xs])) / 10
    mean_y = float(np.mean(cube.popcounts(10)[ys])) / 10
    band = 3 * math.sqrt(0.25 / (20_000 * 10))
    mok = abs(mean_x - cp2.q) < band and abs(mean_y - cp2.p) < band
    out.append(_c("noise.coupling_domination", dominated, 0.0))
    out.append(_c("noise.coupling_marginals", mok,
                  max(abs(mean_x - cp2.q), abs(mean_y - cp2.p))))

    fb = _rand_fn(rng, 6, boolean=True)
    gb = _rand_fn(rng, 6, boolean=True)
    d = abs(noise.cross_term(fb, gb, cp2) - noise.cross_term_via_down(fb, gb, cp2))
    out.append(_c("noise.cross_term_dual_route", d < 0.1 * tol, d))

    or3 = DenseFunction.from_predicate(3, lambda x: x != 0)
    out.append(_c("noise.monotone_defect_zero",
                  noise.monotonicity_defect(or3, cp) < 0.001 * tol,
                  noise.monotonicity_defect(or3, cp)))
    not1 = DenseFunction.from_predicate(1, lambda x: x == 0)
    d = abs(noise.monotonicity_defect(not1, cp) - (cp.p - cp.q))
    out.append(_c("noise.antitone_defect_value", d < 0.1 * tol, d))

    worst = 0.0
    for _ in range(5):
        fb = _rand_fn(rng, 6, boolean=True)
        worst = max(worst, abs(noise.monotonicity_defect(fb, cp2)
                               - noise.monotonicity_defect_exhaustive(fb, cp2)))
    out.append(_c("noise.defect_vs_pair_enumeration", worst < 0.1 * tol, worst))

    impl1 = impl2 = True
    for _ in range(10):
        fb = _rand_fn(rng, 5, boolean=True)
        r, dlt = 2, 0.3
        if noise.is_regular(fb, r, dlt, 0.4) and not noise.is_fourier_regular(fb, r, dlt, 0.4):
            impl1 = False
        if noise.is_fourier_regular(fb, r, dlt, 0.4) and not noise.is_regular(fb, r, (2 ** r) * dlt, 0.4):
            impl2 = False
    out.append(_c("noise.regular_implies_fourier_regular", impl1, 0.0))
    out.append(_c("noise.fourier_regular_implies_regular", impl2, 0.0))

    xor9 = DenseFunction.from_predicate(9, lambda x: bin(x).count("1") % 2 == 1)
    out.append(_c("noise.xor9_fourier_regular",
                  noise.is_fourier_regular(xor9, 2, 0.34, 0.5), 0.0))
    return out


# --------------------------------------------------------------- gaussian


def checks_gaussian(rng, tol: float) -> list:
    out = []
    e1 = abs(gaussian.phi_inv(0.5))
    e2 = abs(gaussian.phi_inv(0.975) - 1.959964)
    e3 = abs(gaussian.phi_inv(0.3) + gaussian.phi_inv(0.7))
    out.append(_c("gaussian.phi_inv_center", e1 < 0.01 * tol, e1))
    out.append(_c("gaussian.phi_inv_0975", e2 < 1e-6 / 1e-9 * tol, e2))
    out.append(_c("gaussian.phi_inv_symmetry", e3 < 0.01 * tol, e3))

    e = abs(gaussian.lambda_rho(0.0, 0.3, 0.7) - 0.21)
    out.append(_c("gaussian.lambda_rho_zero", e < 0.1 * tol, e))
    e = abs(gaussian.lambda_rho(0.4, 0.3, 1.0) - 0.3)
    out.append(_c("gaussian.lambda_nu_one", e < 0.1 * tol, e))
    e = abs(gaussian.lambda_rho(0.6, 0.25, 0.65) - gaussian.lambda_rho(0.6, 0.65, 0.25))
    out.append(_c("gaussian.lambda_symmetry", e < tol, e))

    truth = 0.25 + math.asin(0.5) / (2 * math.pi)
    e = abs(gaussian.lambda_rho(0.5, 0.5, 0.5) - truth)
    out.append(_c("gaussian.lambda_arcsine_value", e < tol, e))

    ok = True
    worst = 0.0
    for _ in range(10):
        rho = float(rng.uniform(0.05, 0.9))
        mu = float(rng.uniform(0.05, 0.95))
        nu = float(rng.uniform(0.05, 0.95))
        lam = gaussian.lambda_rho(rho, mu, nu)
        lo, hi = max(0.0, mu + nu - 1.0), min(mu, nu)
        if not lo - 1e-8 <= lam <= hi + 1e-8:
            ok = False
        lam2 = gaussian.lambda_rho(rho, min(mu + 0.05, 0.99), nu)
        worst = min(worst, lam2 - lam)
    out.append(_c("gaussian.lambda_bounds", ok, 0.0))
    out.append(_c("gaussian.lambda_monotone_mu", worst > -1e-8, worst))

    est, se = gaussian.lambda_mc(0.5, 0.5, 0.5, 200_000, seed=11)
    e = abs(est - truth)
    out.append(_c("gaussian.lambda_vs_mc", e < 4 * se, e))

    gap_pos = all(gaussian.lambda_gap(e) > 0 for e in (0.1, 0.2, 0.3))
    out.append(_c("gaussian.lambda_gap_positive", gap_pos, gaussian.lambda_gap(0.2)))
    e = abs(gaussian.lambda_gap(0.5) - (0.5 - truth))
    out.append(_c("gaussian.lambda_gap_half", e < tol, e))

    ok = True
    for _ in range(20):
        r1 = float(rng.uniform(0.0, 0.8))
        r2 = float(rng.uniform(r1 + 0.01, 0.95))
        mu = float(rng.uniform(0.05, 0.95))
        nu = float(rng.uniform(0.05, 0.95))
        lhs, bound = gaussian.lambda_lipschitz_check(r1, r2, mu, nu)
        if lhs > bound:
            ok = False
    out.append(_c("gaussian.lambda_lipschitz", ok, 0.0))

    s = cube.transform(DenseFunction.dictator(1, 1), 0.5)
    poly = gaussian.gaussian_analogue(s)
    e = abs(poly.evaluate([0.0]) - 0.5) + abs(poly.evaluate([1.0]) - 0.0)
    out.append(_c("gaussian.analogue_dictator", e < 0.1 * tol, e))
    out.append(_c("gaussian.chop_values",
                  gaussian.chop(1.3) == 1.0 and gaussian.chop(-0.2) == 0.0
                  and gaussian.chop(0.4) == 0.4, 0.0))

    const = gaussian.GaussianPoly(1, [0.3, 0.0])
    d0, _ = gaussian.chop_distance(const, 10_000, seed=3)
    out.append(_c("gaussian.chop_distance_constant", d0 == 0.0, d0))
    dd, _ = gaussian.chop_distance(poly, 20_000, seed=4)
    out.append(_c("gaussian.chop_distance_dictator", 0.0 < dd < 0.25, dd))

    # Borell-style bound on a majority battery (low-influence instances)
    ok = True
    for n in (5, 7):
        maj = DenseFunction.from_predicate(n, lambda x: bin(x).count("1") > n // 2)
        for p in (0.4, 0.5):
            s = cube.transform(maj, p)
            pc = cube.popcounts(n)
            for rho in (0.3, 0.6):
                stab = float(np.sum(rho ** pc * s.coeffs ** 2))
                mu = cube.expectation(maj, p)
                if stab > gaussian.lambda_rho(rho, mu, mu) + 0.02:
                    ok = False
    out.append(_c("gaussian.borell_majority_battery", ok, 0.0))
    return out


# --------------------------------------------------------------- families


def checks_families(rng, tol: float) -> list:
    out = []
    full = SetFamily.full(4, 2)
    sl = families.family_slice(full, [1], [1])
    out.append(_c("families.slice_full", sl.measure == 1.0 and sl.k == 1, sl.measure))
    star = SetFamily.star(5, 2)
    out.append(_c("families.slice_star_empty",
                  families.family_slice(star, [1], []).measure == 0.0, 0.0))

    F = SetFamily.random(10, 3, 0.4, seed=5)
    # the inner slice drops coordinate 2, so original coordinate 4 becomes 3
    a = families.family_slice(families.family_slice(F, [2], [2]), [3], [])
    direct = families.family_slice(F, [2, 4], [2])
    out.append(_c("families.slice_compose_shapes", a == direct, float(len(direct.members))))

    F8 = SetFamily.random(8, 3, 0.5, seed=6)
    e = float(np.max(np.abs(families.lift(F8).values - families.lift_direct(F8).values)))
    out.append(_c("families.lift_vs_enumeration", e < 0.1 * tol, e))

    fullf = families.lift(SetFamily.full(6, 2))
    pc = cube.popcounts(6)
    e = float(np.max(np.abs(fullf.values - (pc >= 2))))
    out.append(_c("families.lift_full_indicator", e < 0.1 * tol, e))

    worst = 0.0
    for _ in range(5):
        F = SetFamily.random(9, 3, float(rng.uniform(0.2, 0.8)),
                             int(rng.integers(0, 2 ** 31)))
        lhs, rhs = families.lift_measure_identity(F, 0.6)
        worst = max(worst, abs(lhs - rhs))
    out.append(_c("families.lift_measure_identity", worst < 0.1 * tol, worst))

    f = DenseFunction.constant(3, 0.7)
    out.append(_c("families.cut_closed_at_delta",
                  families.cut(f, 0.7).values[0] == 1.0
                  and families.cut(f, 0.8).values[0] == 0.0, 0.0))

    cp = CouplingParams(0.4, 0.6)
    worst = 0.0
    ok = True
    for _ in range(5):
        F = SetFamily.random(8, 3, float(rng.uniform(0.2, 0.9)),
                             int(rng.integers(0, 2 ** 31)))
        v = families.cut_stability_check(F, cp, 0.3)
        worst = max(worst, v)
        if v > 0.3 + 1e-12:
            ok = False
    out.append(_c("families.cut_stability_bound", ok, worst))

    out.append(_c("families.fairness_full",
                  families.is_fair(SetFamily.full(7, 2), [1, 2], 0.1), 0.0))
    out.append(_c("families.fairness_star",
                  not families.is_fair(SetFamily.star(7, 2), [1], 0.5), 0.0))
    out.append(_c("families.regular_full",
                  families.family_regular(SetFamily.full(7, 2), 2, 0.05), 0.0))
    out.append(_c("families.regular_star",
                  not families.family_regular(SetFamily.star(7, 2), 1, 0.25), 0.0))

    F = SetFamily.random(7, 3, 0.5, seed=8)
    rt = SetFamily.from_text(F.to_text())
    rt2 = SetFamily.from_json(F.to_json())
    out.append(_c("families.file_round_trip",
                  rt.members == F.members and rt2.members == F.members, 0.0))
    return out


# ------------------------------------------------------------ hypergraphs


def checks_hypergraphs(rng, tol: float) -> list:
    out = []
    m2 = hypergraphs.matching_hypergraph(2, 2)
    i21 = hypergraphs.sunflower_hypergraph(2, 2)
    out.append(_c("hypergraphs.expanded_m2",
                  hypergraphs.is_expanded(m2, 2, 0), 0.0))
    out.append(_c("hypergraphs.expanded_i21",
                  hypergraphs.is_expanded(i21, 2, 1)
                  and not hypergraphs.is_expanded(i21, 2, 0), 0.0))

    H = Hypergraph(4, (0b0011, 0b1100))
    He = hypergraphs.k_expand(H, 3)
    out.append(_c("hypergraphs.k_expand_fresh",
                  He.edges == (0b10011, 0b101100), 0.0))
    out.append(_c("hypergraphs.k_expand_center",
                  He.center() == H.center(), 0.0))

    out.append(_c("hypergraphs.resolve_empty",
                  hypergraphs.resolve(H, []).edges == H.edges, 0.0))
    r = hypergraphs.resolve(i21, [1])
    out.append(_c("hypergraphs.resolve_sunflower_center",
                  r.center() == 0, float(bin(r.center()).count("1"))))
    triangle = Hypergraph(3, (0b011, 0b110, 0b101))
    rc = hypergraphs.resolve(triangle, hypergraphs.coords_of(triangle.center()))
    out.append(_c("hypergraphs.resolve_full_center_disjoint",
                  rc.center() == 0, 0.0))

    path = Hypergraph(3, (0b011, 0b110))
    ts = hypergraphs.traces(path)
    out.append(_c("hypergraphs.trace_example", (0b010, 0b010) in ts, 0.0))

    star_jf = families.JuntaFamily(9, 3, (1,), frozenset([1]))
    out.append(_c("hypergraphs.star_not_i21_free",
                  not hypergraphs.junta_is_Hs_free(star_jf, i21, 1), 0.0))
    out.append(_c("hypergraphs.star_m2_free",
                  hypergraphs.junta_is_Hs_free(star_jf, m2, 0), 0.0))
    empty_jf = families.JuntaFamily(9, 3, (1,), frozenset())
    out.append(_c("hypergraphs.empty_generator_free",
                  hypergraphs.junta_is_Hs_free(empty_jf, i21, 2), 0.0))

    star9 = SetFamily.star(9, 3)
    i21k = hypergraphs.k_expand(i21, 3)
    val = hypergraphs.almost_free_exact(star9, i21k)
    out.append(_c("hypergraphs.star_law_exact_ninth",
                  val.numerator == 1 and val.denominator == 9, float(val)))

    est, se = hypergraphs.almost_free_estimate(star9, i21k, 4000, seed=2)
    out.append(_c("hypergraphs.star_law_mc", abs(est - 1.0 / 9.0) < 4 * se + 1e-12, est))

    rt = Hypergraph.from_text(i21.to_text())
    out.append(_c("hypergraphs.file_round_trip", rt.edges == i21.edges, 0.0))
    return out


# -------------------------------------------------------------- matchings


def checks_matchings(rng, tol: float) -> list:
    out = []
    F1 = SetFamily(4, 1, frozenset([0b0001]))
    Fall = SetFamily.full(4, 1)
    v = matchings.cross_probability_exact(4, (1, 1), [F1, Fall])
    # Pr[A_1={1}] alone is 1/4; the {1},{2} point event is 1/12
    out.append(_c("matchings.exact_quarter", v == matchings.Fraction(1, 4), float(v)))
    singleton = matchings.cross_probability_exact(
        4, (1, 1), [F1, SetFamily(4, 1, frozenset([0b0010]))])
    out.append(_c("matchings.exact_twelfth",
                  singleton == matchings.Fraction(1, 12), float(singleton)))

    est, se = matchings.cross_probability_mc(4, (1, 1), [F1, Fall], 20_000, seed=5)
    out.append(_c("matchings.exact_vs_mc", abs(est - 0.25) < 4 * se, est))

    trials = 3000
    parts = matchings._sample_biased_many(12, 3, np.random.default_rng(17), trials)
    sizes = cube.popcounts(12)[parts]
    # buckets must partition [n]: their union is [n] and their sizes sum to n
    disjoint = bool(np.all(np.bitwise_or.reduce(parts, axis=1) == (1 << 12) - 1)
                    and np.all(sizes.sum(axis=1) == 12))
    counts = np.bincount(sizes[:, 0], minlength=13)
    mean = float(np.dot(np.arange(13), counts)) / trials
    band = 3 * math.sqrt(12 * (1 / 3) * (2 / 3) / trials)
    out.append(_c("matchings.biased_partition", disjoint, 0.0))
    out.append(_c("matchings.biased_marginal_mean", abs(mean - 4.0) < band, mean))

    dist_a = matchings.conditioned_subsample_distribution(6, 2, (1, 1))
    dist_b = matchings.uniform_matching_distribution(6, (1, 1))
    worst = max(abs(dist_a.get(t, 0.0) - pb) for t, pb in dist_b.items())
    out.append(_c("matchings.conditioned_equals_uniform", worst < 1e-12 + 0.1 * tol, worst))

    i21 = hypergraphs.sunflower_hypergraph(2, 3)
    fams = [SetFamily.random(9, 3, 0.6, seed=21), SetFamily.random(9, 3, 0.6, seed=22)]
    eq = matchings.expanded_event_equivalence(i21, fams, 1000, seed=9)
    out.append(_c("matchings.event_equivalence", eq["mismatches"] == 0,
                  float(eq["mismatches"])))
    return out


# ---------------------------------------------------------------- removal


def checks_removal(rng, tol: float) -> list:
    out = []
    xor9 = DenseFunction.from_predicate(9, lambda x: bin(x).count("1") % 2 == 1)
    dec = removal.decompose(xor9, 0.5, 0.5, 0.01, j_max=4)
    out.append(_c("removal.decompose_xor9_empty", dec.J == () and not dec.failed, 0.0))

    dict5 = DenseFunction.dictator(5, 1)
    dec = removal.decompose(dict5, 0.5, 0.7, 0.05, j_max=4, neg_threshold=0.01)
    out.append(_c("removal.decompose_dictator", dec.J == (1,), float(len(dec.J))))

    tribes = DenseFunction.from_predicate(
        4, lambda x: (x & 0b0011) == 0b0011 or (x & 0b1100) == 0b1100)
    dec = removal.decompose(tribes, 0.5, 0.8, 0.05, j_max=4, neg_threshold=0.01)
    out.append(_c("removal.decompose_tribes_budget", not dec.failed, float(len(dec.J))))

    cp = CouplingParams(0.3, 0.6)
    maj3 = DenseFunction.from_predicate(3, lambda x: bin(x).count("1") >= 2)
    g, eq_, ep_, _rep = removal.monotone_junta_approx(maj3, cp, delta=0.01, eps=0.02, j_max=3)
    out.append(_c("removal.approx_monotone_junta_exact",
                  eq_ < 0.1 * tol and ep_ < 0.1 * tol, max(eq_, ep_)))

    or4 = DenseFunction.from_predicate(4, lambda x: x != 0)
    curve = removal.threshold_curve(or4, [0.5])
    out.append(_c("removal.or4_curve", abs(curve.mus[0] - 15 / 16) < 0.1 * tol,
                  curve.mus[0]))
    curve = removal.threshold_curve(DenseFunction.dictator(4, 2), [0.3])
    out.append(_c("removal.dictator_pc", abs(curve.p_c - 0.5) < 1e-7, curve.p_c))
    maj5 = DenseFunction.from_predicate(5, lambda x: bin(x).count("1") >= 3)
    curve = removal.threshold_curve(maj5, [0.6])
    out.append(_c("removal.maj5_value", abs(curve.mus[0] - 0.68256) < 1e-5,
                  curve.mus[0]))

    cp2 = CouplingParams(0.35, 0.65)
    maj9 = DenseFunction.from_predicate(9, lambda x: bin(x).count("1") >= 5)
    res = removal.robust_fk_instance(maj9, maj9, cp2, delta=0.35, eps=0.2)
    out.append(_c("removal.fk_maj9", res["verdict"] in ("pass", "not_applicable")
                  and res["verdict"] != "fail", 0.0))
    ones = DenseFunction.constant(5, 1.0)
    zeros = DenseFunction.constant(5, 0.0)
    r1 = removal.robust_fk_instance(zeros, ones, CouplingParams(0.3, 0.7), 0.4, 0.2)
    out.append(_c("removal.fk_trivial", r1["verdict"] == "pass", 0.0))

    star9 = SetFamily.star(9, 3)
    m2 = hypergraphs.matching_hypergraph(2, 3)
    i21 = hypergraphs.sunflower_hypergraph(2, 3)
    rep = removal.removal_pipeline(star9, m2, 0, seed=1)
    half1 = (rep["freeness"]["free"] is True
             and rep["junta"]["escaping_mass"] == 0.0)
    rep2 = removal.removal_pipeline(star9, i21, 1, seed=1)
    half2 = (rep2["freeness"]["free"] is False
             and rep2["almost_free"].get("exact") == "1/9")
    out.append(_c("removal.pipeline_star_m2", half1, 0.0))
    out.append(_c("removal.pipeline_star_i21", half2, 0.0))
    return out


GROUPS = [checks_fourier, checks_noise, checks_gaussian, checks_families,
          checks_hypergraphs, checks_matchings, checks_removal]


def run_battery(seed: int = 0, tol: float = 1e-9) -> list:
    rng = np.random.default_rng(seed)
    results = []
    for group in GROUPS:
        results.extend(group(rng, tol))
    return results
