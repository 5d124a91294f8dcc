"""Batch front-end: verification battery, threshold curves, Gaussian
orthant tables, matching counts, and removal experiments.

Reports are JSON objects with a volatile header (timestamp) and a fully
seed-determined body, so identical configs give byte-identical bodies.
CSV output flattens the body's tabular part.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .cube import DenseFunction, _check_n, popcounts
from .families import SetFamily
from .gaussian import lambda_rho
from .hypergraphs import Hypergraph, WorkBoundExceeded, matching_hypergraph, sunflower_hypergraph
from .matchings import cross_probability_exact, cross_probability_mc
from .removal import removal_pipeline, threshold_curve
from .verify import run_battery


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    tolerance: float = 1e-9
    out: str | None = None
    fmt: str = "json"
    max_n: int = 24
    samples: int = 20_000
    extra: dict = field(default_factory=dict)

    def body_config(self) -> dict:
        return {"seed": self.seed, "tolerance": self.tolerance,
                "max_n": self.max_n, "samples": self.samples, **self.extra}


def _emit(cfg: RunConfig, body: dict, rows=None) -> None:
    report = {
        "header": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
            "command": cfg.command,
        },
        "body": {"config": cfg.body_config(), **body},
    }
    if cfg.fmt == "csv":
        if rows is None:
            raise ValueError(f"{cfg.command} has no CSV output; use --format json")
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def cmd_verify(cfg: RunConfig) -> int:
    results = run_battery(seed=cfg.seed, tol=cfg.tolerance)
    failed = [r["name"] for r in results if not r["passed"]]
    body = {"checks": results, "total": len(results), "failed": failed}
    rows = [["name", "passed", "value"]] + [
        [r["name"], r["passed"], r["value"]] for r in results]
    _emit(cfg, body, rows)
    return 0 if not failed else 1


_NAMED_FUNCTIONS = {
    "or": lambda n: DenseFunction(n, np.arange(1 << n) != 0, boolean=True),
    "and": lambda n: DenseFunction(n, np.arange(1 << n) == (1 << n) - 1, boolean=True),
    "maj": lambda n: DenseFunction(n, popcounts(n) > n // 2, boolean=True),
    "dictator": lambda n: DenseFunction.dictator(n, 1),
}


def _load_function(spec: str, n: int, max_n: int) -> DenseFunction:
    if spec.startswith("file:"):
        path = spec[5:]
        with open(path, "rb") as fh:
            data = fh.read()
        f = (DenseFunction.from_json(data.decode())
             if path.endswith(".json") else DenseFunction.from_bytes(data))
    else:
        if spec not in _NAMED_FUNCTIONS:
            raise ValueError(f"unknown function {spec!r}; options: "
                             f"{sorted(_NAMED_FUNCTIONS)} or file:PATH")
        _check_n(n)  # before a table of 2^n entries is built
        f = _NAMED_FUNCTIONS[spec](n)
    if f.n > max_n:
        raise ValueError(f"function dimension {f.n} exceeds --max-n {max_n}")
    return f


def cmd_curve(cfg: RunConfig) -> int:
    f = _load_function(cfg.extra["function"], cfg.extra["n"], cfg.max_n)
    lo, hi, steps = cfg.extra["grid"]
    grid = list(np.linspace(lo, hi, steps))
    curve = threshold_curve(f, grid)
    body = {"curve": {"p": curve.ps, "mu": curve.mus, "p_c": curve.p_c,
                      "monotone": curve.monotone}}
    rows = [["p", "mu"]] + [[p, m] for p, m in zip(curve.ps, curve.mus)]
    _emit(cfg, body, rows)
    return 0


def cmd_lambda(cfg: RunConfig) -> int:
    entries = []
    rows = [["rho", "mu", "nu", "lambda"]]
    for rho in cfg.extra["rho"]:
        for mu in cfg.extra["mu"]:
            for nu in cfg.extra["nu"]:
                val = lambda_rho(rho, mu, nu, tol=min(cfg.tolerance, 1e-10))
                entries.append({"rho": rho, "mu": mu, "nu": nu, "value": val})
                rows.append([rho, mu, nu, val])
    _emit(cfg, {"lambda": entries}, rows)
    return 0


def _load_family(spec: str, n: int, k: int) -> SetFamily:
    if spec.startswith("file:"):
        path = spec[5:]
        with open(path) as fh:
            text = fh.read()
        return (SetFamily.from_json(text) if path.endswith(".json")
                else SetFamily.from_text(text))
    if spec == "star":
        return SetFamily.star(n, k)
    if spec == "full":
        return SetFamily.full(n, k)
    if spec.startswith("singleton:"):
        from .cube import mask_of
        elems = [int(t) for t in spec.split(":")[1].split(",")]
        return SetFamily(n, k, frozenset([mask_of(elems)]))
    raise ValueError(f"unknown family spec {spec!r}")


def _check_max_n(n: int, max_n: int) -> None:
    if n > max_n:
        raise ValueError(f"--n {n} exceeds --max-n {max_n}")


def cmd_count(cfg: RunConfig) -> int:
    n = cfg.extra["n"]
    _check_max_n(n, cfg.max_n)
    sizes, specs = cfg.extra["sizes"], cfg.extra["families"]
    if len(specs) > len(sizes):  # fewer specs fail the families check below
        raise ValueError(f"{len(specs)} family specs for {len(sizes)} parts")
    fams = [_load_family(s, n, k) for s, k in zip(specs, sizes)]
    body: dict = {"n": n, "sizes": sizes,
                  "measures": [F.measure for F in fams]}
    try:
        exact = cross_probability_exact(n, sizes, fams)
        body["probability"] = float(exact)
        body["probability_exact"] = _rational(exact)
    except WorkBoundExceeded as exc:
        body["exact_refused"] = str(exc)
    est, se = cross_probability_mc(n, sizes, fams, cfg.samples, cfg.seed)
    body["mc"] = {"probability": est, "stderr": se}
    _emit(cfg, body)
    return 0


_NAMED_HYPERGRAPHS = {
    "m2": lambda k: matching_hypergraph(2, k),
    "i21": lambda k: sunflower_hypergraph(2, k),
}


def cmd_removal(cfg: RunConfig) -> int:
    n, k, s = cfg.extra["n"], cfg.extra["k"], cfg.extra["s"]
    _check_max_n(n, cfg.max_n)
    F = _load_family(cfg.extra["family"], n, k)
    hspec = cfg.extra["hypergraph"]
    if hspec.startswith("file:"):
        with open(hspec[5:]) as fh:
            H = Hypergraph.from_text(fh.read())
    elif hspec in _NAMED_HYPERGRAPHS:
        H = _NAMED_HYPERGRAPHS[hspec](k)
    else:
        raise ValueError(f"unknown hypergraph spec {hspec!r}")
    report = removal_pipeline(F, H, s, seed=cfg.seed, samples=cfg.samples)
    _emit(cfg, {"pipeline": report})
    return 0


def _parse_floats(option: str, text: str) -> list:
    values = [float(t) for t in text.split(",") if t]
    if not values:
        raise ValueError(f"{option} {text!r}: need at least one number")
    return values


def _parse_grid(text: str) -> tuple:
    """lo:hi:steps, with lo and hi in (0, 1) and steps >= 1."""
    fields = text.split(":")
    try:
        lo, hi, steps = float(fields[0]), float(fields[1]), int(fields[2])
        ok = len(fields) == 3 and 0.0 < lo < 1.0 and 0.0 < hi < 1.0 and steps >= 1
    except (ValueError, IndexError):
        ok = False
    if not ok:
        raise ValueError(f"--grid {text}: need lo:hi:steps with lo and hi in (0, 1) "
                         "and steps >= 1")
    return lo, hi, steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biasedcube")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--max-n", type=int, default=24)
        p.add_argument("--samples", type=int, default=20_000)

    common(sub.add_parser("verify", help="run the full invariant battery"))

    pc = sub.add_parser("curve", help="threshold curve of a monotone function")
    common(pc)
    pc.add_argument("--function", required=True)
    pc.add_argument("--n", type=int, default=5)
    pc.add_argument("--grid", default="0.05:0.95:19",
                    help="lo:hi:steps for the bias grid")

    pl = sub.add_parser("lambda", help="correlated orthant probabilities")
    common(pl)
    pl.add_argument("--rho", required=True, help="comma list")
    pl.add_argument("--mu", required=True, help="comma list")
    pl.add_argument("--nu", required=True, help="comma list")

    pm = sub.add_parser("count", help="matching cross-containment probability")
    common(pm)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--sizes", required=True, help="comma list of part sizes")
    pm.add_argument("--families", required=True,
                    help="comma list of family specs, one per part")

    pr = sub.add_parser("removal", help="removal-lemma pipeline")
    common(pr)
    pr.add_argument("--family", required=True)
    pr.add_argument("--hypergraph", required=True)
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--s", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command, seed=args.seed, tolerance=args.tol,
                    out=args.out, fmt=args.format, max_n=args.max_n,
                    samples=args.samples)
    try:
        if args.samples < 1:
            raise ValueError(f"--samples must be a positive integer, got {args.samples}")
        if not math.isfinite(args.tol) or args.tol < 0:
            raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "curve":
            cfg.extra = {"function": args.function, "n": args.n,
                         "grid": _parse_grid(args.grid)}
            return cmd_curve(cfg)
        if args.command == "lambda":
            cfg.extra = {"rho": _parse_floats("--rho", args.rho),
                         "mu": _parse_floats("--mu", args.mu),
                         "nu": _parse_floats("--nu", args.nu)}
            return cmd_lambda(cfg)
        if args.command == "count":
            sizes = [int(t) for t in args.sizes.split(",")]
            cfg.extra = {"n": args.n, "sizes": sizes,
                         "families": args.families.split(",")}
            return cmd_count(cfg)
        if args.command == "removal":
            cfg.extra = {"family": args.family, "hypergraph": args.hypergraph,
                         "n": args.n, "k": args.k, "s": args.s}
            return cmd_removal(cfg)
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
