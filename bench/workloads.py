"""The four benchmark workloads.

Each workload turns a seed into a deterministic sequence of jobs.  Job i
is built by `make(i)` from the seed and i alone, so a run and its traced
re-run see the same inputs.  A fixed cyclic pattern decides each job's
class (table size, family kind, estimator, CLI command); the seed decides
the data inside it.  Stratifying the mix this way keeps the share of each
class the same on every seed, so run-to-run spread comes from timing, not
from the draw.  `run` is the only part that is timed; `check` runs after
it, outside the timed region, and returns (failures, known_defects).

See WORKLOADS.md for why each workload exists and what it predicts.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from biasedcube import cube, families, gaussian, hypergraphs, matchings, noise, removal

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Monte-Carlo band.  With 100-130 estimates a run, 4 sigma would flag a
# correct sampler in about one run of 140; 5 sigma keeps the chance of
# any false alarm in a run near 1e-4.
Z_BAND = 5.0


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _is_monotone(values: np.ndarray, n: int) -> bool:
    """Oracle: f(x) <= f(x + e_i) for every coordinate i."""
    for i in range(n):
        v = values.reshape(-1, 2, 1 << i)
        if np.any(v[:, 0, :] > v[:, 1, :]):
            return False
    return True


def _job_rng(seed: int, i: int):
    return np.random.default_rng([seed, i])


class Workload:
    """Subclasses set `name`, `probe` (the host-speed probe matching
    their code, see probe.py), `tail_pct` (the percentile reported as
    job_ms_tail), `block` (jobs per repetition of the class pattern) and
    `trace_jobs` (the fixed job list of a traced run, whole blocks)."""

    def setup(self, seed: int) -> None:
        self.seed = seed

    def peak_rss_mb(self) -> float:
        return _maxrss_mb(resource.RUSAGE_SELF)


# --------------------------------------------------------------- dense_tables


class DenseTables(Workload):
    """Kernel layer: cube, noise, families.lift, removal.threshold_curve.

    Pattern n = 14, 20, 16, 20, 16: three small tables (at most 512 KiB,
    inside a core's 2 MiB L2) and two 8 MiB tables every five jobs.  p50
    falls three quarters of the way into the n=16 jobs and p70 a quarter
    of the way into the n=20 jobs, away from the class boundary at 60%.
    """

    name = "dense_tables"
    probe = "py+np"
    tail_pct = 70
    PATTERN = (14, 20, 16, 20, 16)
    block = len(PATTERN)
    trace_jobs = 3 * block
    LARGE_N = 20

    def make(self, i: int) -> dict:
        rng = _job_rng(self.seed, i)
        n = self.PATTERN[i % len(self.PATTERN)]
        kind = "threshold" if i % 2 else "random"
        if kind == "random":
            f = cube.DenseFunction(n, rng.random(1 << n), bounded=True)
        else:
            w = rng.uniform(0.5, 1.5, n)
            x = np.arange(1 << n)
            sums = np.zeros(1 << n)
            for b in range(n):
                sums += w[b] * ((x >> b) & 1)
            f = cube.DenseFunction(n, (sums >= 0.5 * w.sum()).astype(np.float64), boolean=True)
        q = float(rng.uniform(0.15, 0.4))
        p = q + float(rng.uniform(0.15, 0.4))
        grid = sorted(float(g) for g in rng.uniform(0.05, 0.95, 4)) + [p]
        F = families.SetFamily.random(n, 3, float(rng.uniform(0.05, 0.5)),
                                      int(rng.integers(0, 2 ** 31)))
        return {"f": f, "cp": noise.CouplingParams(q, p), "rho": float(rng.uniform(0.3, 0.9)),
                "coords": [int(c) + 1 for c in rng.choice(n, 2, replace=False)],
                "grid": grid, "F": F, "kind": kind,
                "props": {"n": n, "kind": kind, "table_mib": 8 * (1 << n) / 2 ** 20,
                          "class": "large" if n >= self.LARGE_N else "small"}}

    def run(self, job: dict) -> dict:
        f, cp, rho = job["f"], job["cp"], job["rho"]
        s = cube.transform(f, cp.q)
        return {
            "spectrum": s,
            "back": cube.inverse_transform(s),
            "up_spectral": noise.directed_up(f, cp, "spectral"),
            "up_definitional": noise.directed_up(f, cp, "definitional"),
            "cross": noise.cross_term(f, f, cp),
            "mu_p": cube.expectation(f, cp.p),
            "norm_q": cube.inner_product(f, f, cp.q),
            "stability": cube.stability(f, rho, cp.q),
            "noisy": [cube.noisy_influence(f, i, rho, cp.q) for i in job["coords"]],
            "curve": removal.threshold_curve(f, job["grid"]),
            "lift": families.lift(job["F"]),
        }

    def check(self, job: dict, out: dict) -> tuple:
        f, cp = job["f"], job["cp"]
        bad = []
        rt = float(np.max(np.abs(out["back"].values - f.values)))
        if rt > 1e-9:
            bad.append(f"round trip error {rt:.3g}")
        up = float(np.max(np.abs(out["up_spectral"].values - out["up_definitional"].values)))
        if up > 1e-9:
            bad.append(f"directed_up spectral vs definitional {up:.3g}")
        via_down = noise.cross_term_via_down(f, f, cp)
        if abs(out["cross"] - via_down) > 1e-9:
            bad.append(f"cross_term {out['cross']} vs via_down {via_down}")
        energy = float(np.sum(out["spectrum"].coeffs ** 2))
        if abs(energy - out["norm_q"]) > 1e-9 * max(1.0, out["norm_q"]):
            bad.append(f"Parseval {energy} vs {out['norm_q']}")
        curve = out["curve"]
        if abs(curve.mus[-1] - out["mu_p"]) > 1e-9:
            bad.append(f"threshold_curve mu {curve.mus[-1]} vs expectation {out['mu_p']}")
        lifted, F = out["lift"].values, job["F"]
        # f_F is the density of F among the 3-subsets of x: 0 below |x| = 3, mu(F) at the top
        if lifted[0b11] != 0.0 or abs(lifted[-1] - F.measure) > 1e-12:
            bad.append(f"lift values {lifted[0b11]}, {lifted[-1]} vs 0, {F.measure}")
        defects = []
        truth = _is_monotone(f.values, f.n)
        if curve.monotone != truth:
            if truth and f.n > 16:
                defects.append(f"monotone flag False for a monotone n={f.n} input")
            else:
                bad.append(f"monotone flag {curve.monotone}, truth {truth}")
        return bad, defects


# ------------------------------------------------------------- exact_counting


_I21 = hypergraphs.sunflower_hypergraph(2, 3)
_M2 = hypergraphs.matching_hypergraph(2, 3)
_S33 = hypergraphs.sunflower_hypergraph(3, 3)
_HYPERGRAPHS = {"i21": (_I21, 1), "m2": (_M2, 0), "s33": (_S33, 1)}


class ExactCounting(Workload):
    """Enumeration layer: removal_pipeline, freeness, cross_probability_exact.

    Pattern per ten jobs: three stars (n 9-12, h=2), three random
    families at n=9 and three at n=10 (h=2), one star at n=9 against the
    3-edge sunflower (h=3).  p50 sits inside the n=9 random jobs and p75
    in the middle of the n=10 random jobs.
    """

    name = "exact_counting"
    probe = "py"
    tail_pct = 75
    PATTERN = ("star", "rand9", "rand10", "star", "rand9", "rand10",
               "star", "rand9", "rand10", "star_s33")
    block = len(PATTERN)
    trace_jobs = 2 * block
    LADDER = (0, 2, 4)  # removal_pipeline's default ladder n, n+2, n+4
    WORK_CAP = 10 ** 6  # tuples per job; a larger job would take minutes

    def setup(self, seed: int) -> None:
        super().setup(seed)
        # The star's junta is fixed by the family; knowing it bounds the ladder.
        self.star_junta = {n: removal.greedy_family_junta(families.SetFamily.star(n, 3))
                           for n in (9, 10, 11, 12)}

    def _generated_size(self, n: int, n2: int, star: bool) -> int:
        """Size of the junta's family at n2, for a family on n points."""
        if not star:
            return math.comb(n2, 3)  # a junta generates at most every 3-set
        jf = self.star_junta[n]
        return sum(math.comb(n2 - len(jf.J), 3 - bin(g).count("1")) for g in jf.G)

    def make(self, i: int) -> dict:
        rng = _job_rng(self.seed, i)
        kind = self.PATTERN[i % len(self.PATTERN)]
        if kind == "star":
            n = int(rng.integers(9, 13))
            F = families.SetFamily.star(n, 3)
            hname = ("i21", "m2")[int(rng.integers(0, 2))]
        elif kind == "star_s33":
            n = 9
            F = families.SetFamily.star(n, 3)
            hname = "s33"
        else:
            n = 9 if kind == "rand9" else 10
            F = families.SetFamily.random(n, 3, float(rng.uniform(0.2, 0.5)),
                                          int(rng.integers(0, 2 ** 31)))
            hname = ("i21", "m2")[int(rng.integers(0, 2))]
        H, s = _HYPERGRAPHS[hname]
        h, star = H.h, kind.startswith("star")
        work = len(F.members) ** h + len(F.members) ** 2
        work += sum(self._generated_size(n, n + d, star) ** h for d in self.LADDER)
        work += self._generated_size(n, n, star) ** h  # the exhaustive oracle
        if work > self.WORK_CAP:
            raise ValueError(f"job {i} would enumerate {work} tuples")
        return {"F": F, "H": H, "s": s, "hname": hname, "kind": kind,
                "seed": int(rng.integers(0, 2 ** 31)),
                "props": {"n": n, "family": kind, "F_size": len(F.members), "h": h,
                          "hypergraph": hname, "tuples_bound": work}}

    def run(self, job: dict) -> dict:
        F, H, s = job["F"], job["H"], job["s"]
        rep = removal.removal_pipeline(F, H, s, seed=job["seed"])
        jf = families.JuntaFamily(F.n, F.k, tuple(rep["junta"]["J"]),
                                  frozenset(rep["junta"]["G"]))
        try:
            pred = hypergraphs.junta_is_Hs_free(jf, H, s)
        except hypergraphs.FreenessInconclusive:
            pred = None
        oracle = hypergraphs.junta_is_Hs_free_exhaustive(jf, H, s)
        cross = matchings.cross_probability_exact(F.n, (3, 3), [F, F])
        return {"report": rep, "pred": pred, "oracle": oracle, "cross": cross}

    def check(self, job: dict, out: dict) -> tuple:
        bad = []
        n = job["F"].n
        if job["kind"].startswith("star"):
            want = "0/1" if job["hname"] == "m2" else f"1/{n}"
            got = out["report"]["almost_free"].get("exact")
            if got != want:
                bad.append(f"star vs {job['hname']} almost-free {got}, want {want}")
            if out["cross"] != 0:
                bad.append(f"star,star cross probability {out['cross']}, want 0")
        if out["pred"] is not None and out["pred"] != out["oracle"]:
            bad.append(f"trace predicate {out['pred']} vs exhaustive {out['oracle']}")
        return bad, []


# ---------------------------------------------------------------- monte_carlo


def _acceptance_exact(n: int, h: int, k: int) -> float:
    """Pr[every one of h uniform buckets of n elements gets >= k]."""
    total = 0
    for counts in itertools.product(range(k, n + 1), repeat=h - 1):
        last = n - sum(counts)
        if last >= k:
            ways = math.factorial(n) // math.prod(math.factorial(c) for c in (*counts, last))
            total += ways
    return total / h ** n


def _trace_probability_exact(H, J, trace, n: int) -> float:
    """Enumerate every injection of H's support into [n]."""
    verts = cube.coords_of(H.support())
    jmask = cube.mask_of(J)
    hits = total = 0
    for image in itertools.permutations(range(1, n + 1), len(verts)):
        vmap = dict(zip(verts, image))
        total += 1
        if all((cube.mask_of(vmap[v] for v in cube.coords_of(e)) & jmask) == B
               for e, B in zip(H.edges, trace)):
            hits += 1
    return hits / total


class MonteCarlo(Workload):
    """Sampling layer: one seeded estimator per job at a fixed sample count.

    Seven estimators in a fixed cycle, each sized to about 0.2-0.3 s.
    Two instance sets alternate by cycle; their exact references are
    computed once in setup, where the dense kernels and enumeration run.
    """

    name = "monte_carlo"
    probe = "py"
    tail_pct = 90
    PATTERN = ("almost_free_estimate", "trace_probability_order", "cross_probability_mc",
               "acceptance_rate", "expanded_event_equivalence", "lambda_mc", "sample_many")
    block = len(PATTERN)
    trace_jobs = 8 * block
    SAMPLES = {"almost_free_estimate": 10_000, "trace_probability_order": 10_000,
               "cross_probability_mc": 8_000, "acceptance_rate": 8_000,
               "expanded_event_equivalence": 3_000, "lambda_mc": 4_000_000,
               "sample_many": 2_000_000}

    def setup(self, seed: int) -> None:
        super().setup(seed)
        rng = np.random.default_rng([seed, 1 << 20])
        self.instances = []
        for hyper, (an, ah, ak) in ((_I21, (12, 3, 3)), (_M2, (10, 2, 4))):
            Fa, Fb = (families.SetFamily.random(10, 3, float(rng.uniform(0.3, 0.6)),
                                                int(rng.integers(0, 2 ** 31))) for _ in range(2))
            J = sorted(int(c) + 1 for c in rng.choice(9, 3, replace=False))
            copy = hypergraphs.random_copy(_I21, 9, rng)
            trace = tuple(e & cube.mask_of(J) for e in copy)
            rho, mu, nu = (float(v) for v in rng.uniform(0.2, 0.8, 3))
            q = float(rng.uniform(0.1, 0.4))
            p = q + float(rng.uniform(0.1, 0.4))
            self.instances.append({
                "Fa": Fa, "Fb": Fb, "H": hyper, "J": J, "trace": trace,
                "spec": matchings.MatchingSpec(an, "conditioned", h=ah, k=ak),
                "lam": (rho, mu, nu), "cp": noise.CouplingParams(q, p),
                "exact": {
                    "almost_free_estimate": float(hypergraphs.almost_free_exact(Fa, hyper)),
                    "trace_probability_order": _trace_probability_exact(_I21, J, trace, 9),
                    "cross_probability_mc": float(
                        matchings.cross_probability_exact(10, (3, 3), [Fa, Fb])),
                    "acceptance_rate": _acceptance_exact(an, ah, ak),
                    "lambda_mc": gaussian.lambda_rho(rho, mu, nu),
                },
            })

    def make(self, i: int) -> dict:
        kind = self.PATTERN[i % len(self.PATTERN)]
        inst = self.instances[(i // len(self.PATTERN)) % len(self.instances)]
        return {"kind": kind, "inst": inst, "m": self.SAMPLES[kind],
                "seed": int(_job_rng(self.seed, i).integers(0, 2 ** 31)),
                "props": {"estimator": kind, "samples": self.SAMPLES[kind]}}

    def run(self, job: dict):
        kind, inst, m, seed = job["kind"], job["inst"], job["m"], job["seed"]
        if kind == "almost_free_estimate":
            return hypergraphs.almost_free_estimate(inst["Fa"], inst["H"], m, seed)[0]
        if kind == "trace_probability_order":
            return hypergraphs.trace_probability_order(_I21, inst["J"], inst["trace"], 9, m, seed)[0]
        if kind == "cross_probability_mc":
            return matchings.cross_probability_mc(10, (3, 3), [inst["Fa"], inst["Fb"]], m, seed)[0]
        if kind == "acceptance_rate":
            return matchings.acceptance_rate(inst["spec"], m, seed)
        if kind == "expanded_event_equivalence":
            return matchings.expanded_event_equivalence(_I21, [inst["Fa"], inst["Fb"]], m, seed)
        if kind == "lambda_mc":
            return gaussian.lambda_mc(*inst["lam"], m, seed)[0]
        return noise.CoupledSampler(inst["cp"], 12, seed).sample_many(m)

    def check(self, job: dict, out) -> tuple:
        kind, inst, m = job["kind"], job["inst"], job["m"]
        if kind == "expanded_event_equivalence":
            ok = out["mismatches"] == 0 and out["samples"] == m
            return ([] if ok else [f"event equivalence {out}"]), []
        if kind == "sample_many":
            x, y = out
            if len(x) != m or np.any(x & ~y):
                return ["coupled pair not dominated"], []
            bad = []
            for arr, target in ((x, inst["cp"].q), (y, inst["cp"].p)):
                ones = sum(int(np.count_nonzero((arr >> b) & 1)) for b in range(12))
                draws = 12 * m
                band = Z_BAND * math.sqrt(target * (1 - target) / draws)
                if abs(ones / draws - target) > band:
                    bad.append(f"coupled marginal {ones / draws} vs {target}")
            return bad, []
        ref = inst["exact"][kind]
        band = Z_BAND * math.sqrt(ref * (1 - ref) / m) + 1e-12
        if abs(out - ref) > band:
            return [f"{kind} estimate {out} vs exact {ref} (band {band:.3g})"], []
        return [], []


# ------------------------------------------------------------------ cli_batch


class CliBatch(Workload):
    """The CLI as users run it: one `python -m biasedcube.cli` per job.

    Blocks of five jobs: three `verify` and two other commands, `curve`
    and `removal` in one block, `count` and `lambda` in the next.  Per
    ten jobs that is five new verify seeds, from a seeded order of 0-11,
    and one repeat of the first, whose body must be byte-identical.
    verify is the slowest command, so p50 and p60 both sit inside the
    verify jobs.
    """

    name = "cli_batch"
    probe = "py"
    tail_pct = 60
    PATTERN = ("verify", "curve", "verify", "removal", "verify",
               "verify", "count", "verify", "lambda", "verify_repeat")
    block = 5
    trace_jobs = 2 * block

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.verify_seeds = [int(s) for s in np.random.default_rng([seed, 1 << 21]).permutation(12)]
        self.bodies: dict = {}
        self.spans_dir = None
        with open(ROOT / "src" / "biasedcube" / "report_schema.json") as fh:
            schema = json.load(fh)
        try:
            import jsonschema
            self.validate = jsonschema.Draft202012Validator(schema).validate
        except ImportError:
            required = schema["required"]

            def validate(report):
                if any(key not in report for key in required):
                    raise ValueError(f"report lacks one of {required}")
            self.validate = validate

    def make(self, i: int) -> dict:
        rng = _job_rng(self.seed, i)
        period, pos = divmod(i, len(self.PATTERN))
        kind = self.PATTERN[pos]
        if kind.startswith("verify"):
            k = period * 5 + (0 if kind == "verify_repeat" else (pos + 1) // 2)
            args = ["verify", "--seed", str(self.verify_seeds[k % 12])]
            kind = "verify"
        elif kind == "curve":
            lo, hi = float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.7, 0.95))
            args = ["curve", "--function", "maj", "--n", "20",
                    "--grid", f"{lo:.3f}:{hi:.3f}:{int(rng.integers(9, 26))}"]
        elif kind == "removal":
            args = ["removal", "--family", "star", "--hypergraph", "i21", "--n", "9",
                    "--k", "3", "--s", "1", "--seed", str(int(rng.integers(0, 1000)))]
        elif kind == "count":
            args = ["count", "--n", "9", "--sizes", "3,3", "--families", "star,star",
                    "--seed", str(int(rng.integers(0, 1000)))]
        else:
            vals = [",".join(f"{v:.3f}" for v in rng.uniform(lo, hi, size))
                    for lo, hi, size in ((0.1, 0.9, 3), (0.1, 0.9, 3), (0.1, 0.9, 2))]
            args = ["lambda", "--rho", vals[0], "--mu", vals[1], "--nu", vals[2]]
        return {"kind": kind, "args": args, "index": i,
                "props": {"command": kind, "args": " ".join(args)}}

    def run(self, job: dict) -> dict:
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "biasedcube.cli", *job["args"]]
        else:
            spans = self.spans_dir / f"job{job['index']:04d}.jsonl"
            cmd = [sys.executable, str(BENCH / "cli_launcher.py"), str(spans), *job["args"]]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=150)
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, job: dict, out: dict) -> tuple:
        if out["rc"] != 0:
            tail = out["stderr"].decode(errors="replace").strip().splitlines()[-1:]
            return [f"{' '.join(job['args'])}: exit {out['rc']} {tail}"], []
        report = json.loads(out["stdout"])
        self.validate(report)
        body = report["body"]
        key = tuple(job["args"])
        text = json.dumps(body, sort_keys=True, indent=2)
        if self.bodies.setdefault(key, text) != text:
            return [f"{' '.join(job['args'])}: body differs on a repeated run"], []
        kind = job["kind"]
        bad, defects = [], []
        if kind == "verify" and (body["failed"] or not body["total"]):
            bad.append(f"verify failed checks {body['failed']}")
        elif kind == "curve":
            mus = body["curve"]["mu"]
            if any(b < a for a, b in zip(mus, mus[1:])) or not 0 <= mus[0] <= mus[-1] <= 1:
                bad.append("majority curve not nondecreasing in [0,1]")
            if body["curve"]["monotone"] is not True:
                defects.append("curve reports monotone False for maj at n=20")
        elif kind == "removal":
            pipe = body["pipeline"]
            if pipe["almost_free"].get("exact") != "1/9" or pipe["freeness"]["free"] is not False:
                bad.append(f"star9/i21 pipeline {pipe['almost_free']} {pipe['freeness']}")
        elif kind == "count":
            if body.get("probability_exact") != "0/1" or body["mc"]["probability"] != 0:
                bad.append(f"star,star count {body.get('probability_exact')} {body['mc']}")
        elif kind == "lambda":
            for e in body["lambda"]:
                lo, hi = max(0.0, e["mu"] + e["nu"] - 1.0), min(e["mu"], e["nu"])
                if not lo - 1e-9 <= e["value"] <= hi + 1e-9:
                    bad.append(f"lambda {e} outside Frechet bounds")
        return bad, defects

    def peak_rss_mb(self) -> float:
        return _maxrss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {w.name: w for w in (DenseTables, ExactCounting, MonteCarlo, CliBatch)}
