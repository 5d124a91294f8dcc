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
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .cube import MAX_N, DenseFunction, _check_n, mask_of, popcounts
from .families import SetFamily
from .gaussian import lambda_rho
from .hypergraphs import Hypergraph, WorkBoundExceeded, matching_hypergraph, sunflower_hypergraph
from .matchings import cross_probability_exact, cross_probability_mc
from .removal import removal_pipeline, threshold_curve
from .verify import run_battery


def _emit(args, config: dict, body: dict, rows=None) -> None:
    """Write one report, whose body's config holds the common options the
    command takes and its own config keys; CSV writes only the rows."""
    report = {
        "header": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
            "command": args.command,
        },
        "body": {"config": {key: getattr(args, dest) for key, dest in (
                     ("seed", "seed"), ("tolerance", "tol"), ("max_n", "max_n"),
                     ("samples", "samples")) if dest in args} | config, **body},
    }
    if "format" in args and args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


# spec kind: (reader of a .json file's text, reader of any other file's bytes)
_FILE_FORMATS = {
    "function": (DenseFunction.from_json, DenseFunction.from_bytes),
    "family": (SetFamily.from_json, lambda data: SetFamily.from_text(data.decode())),
    "hypergraph": (None, lambda data: Hypergraph.from_text(data.decode())),
}


def _read_file(spec: str, kind: str, **expect):
    """The function, family or hypergraph in a file:PATH spec's file, read as
    JSON for a .json name and in the kind's own format for any other; each
    keyword names a field the object must have, with its value."""
    path = spec[len("file:"):]
    with open(path, "rb") as fh:
        data = fh.read()
    from_json, from_other = _FILE_FORMATS[kind]
    obj = (from_json(data.decode()) if from_json and path.endswith(".json")
           else from_other(data))
    for key, want in expect.items():
        if getattr(obj, key) != want:
            raise ValueError(f"{kind} file {path} has {key}={getattr(obj, key)}, "
                             f"expected {want}")
    return obj


def cmd_verify(args) -> int:
    results = run_battery(seed=args.seed, tol=args.tol)
    failed = [r["name"] for r in results if not r["passed"]]
    body = {"checks": results, "total": len(results), "failed": failed}
    rows = [["name", "passed", "value"]] + [
        [r["name"], r["passed"], r["value"]] for r in results]
    _emit(args, {}, body, rows)
    return 0 if not failed else 1


_NAMED_FUNCTIONS = {
    "or": lambda n: DenseFunction(n, np.arange(1 << n) != 0, boolean=True),
    "and": lambda n: DenseFunction(n, np.arange(1 << n) == (1 << n) - 1, boolean=True),
    "maj": lambda n: DenseFunction(n, popcounts(n) > n // 2, boolean=True),
    "dictator": lambda n: DenseFunction.dictator(n, 1),
}


def _check_max_n(n: int, max_n: int) -> None:
    if n > max_n:
        raise ValueError(f"--n {n} exceeds --max-n {max_n}")


def _load_function(spec: str, n: int, max_n: int) -> DenseFunction:
    if spec in _NAMED_FUNCTIONS:
        _check_max_n(n, max_n)  # both before a table of 2^n entries is built
        _check_n(n)
        return _NAMED_FUNCTIONS[spec](n)
    if not spec.startswith("file:"):
        raise ValueError(f"unknown function {spec!r}; options: "
                         f"{sorted(_NAMED_FUNCTIONS)} or file:PATH")
    f = _read_file(spec, "function")
    if f.n > max_n:
        raise ValueError(f"function dimension {f.n} exceeds --max-n {max_n}")
    return f


def cmd_curve(args) -> int:
    grid = _parse_grid(args.grid)
    f = _load_function(args.function, args.n, args.max_n)
    curve = threshold_curve(f, list(np.linspace(*grid)))
    body = {"curve": {"p": curve.ps, "mu": curve.mus, "p_c": curve.p_c,
                      "monotone": curve.monotone}}
    rows = [["p", "mu"]] + [[p, m] for p, m in zip(curve.ps, curve.mus)]
    _emit(args, {"function": args.function, "n": f.n, "grid": grid}, body, rows)
    return 0


def cmd_lambda(args) -> int:
    config = {key: _parse_floats(f"--{key}", getattr(args, key)) for key in ("rho", "mu", "nu")}
    entries = []
    rows = [["rho", "mu", "nu", "lambda"]]
    for rho in config["rho"]:
        for mu in config["mu"]:
            for nu in config["nu"]:
                val = lambda_rho(rho, mu, nu, tol=min(args.tol, 1e-10))
                entries.append({"rho": rho, "mu": mu, "nu": nu, "value": val})
                rows.append([rho, mu, nu, val])
    _emit(args, config, {"lambda": entries}, rows)
    return 0


def _load_family(spec: str, n: int, k: int) -> SetFamily:
    if spec.startswith("file:"):
        return _read_file(spec, "family", n=n, k=k)
    if spec == "star":
        return SetFamily.star(n, k)
    if spec == "full":
        return SetFamily.full(n, k)
    if spec.startswith("singleton:") and spec.count(":") == 1:
        elems = [int(t) for t in spec[len("singleton:"):].split(",")]
        return SetFamily(n, k, frozenset([mask_of(elems)]))
    raise ValueError(f"unknown family spec {spec!r}")


def cmd_count(args) -> int:
    n, sizes, specs = args.n, [int(t) for t in args.sizes.split(",")], args.families.split(",")
    _check_max_n(n, args.max_n)
    if len(specs) > len(sizes):  # fewer specs fail the families check below
        raise ValueError(f"{len(specs)} family specs for {len(sizes)} parts")
    fams = [_load_family(s, n, k) for s, k in zip(specs, sizes)]
    body: dict = {"measures": [F.measure for F in fams]}
    try:
        exact = cross_probability_exact(n, sizes, fams)
        body["probability"] = float(exact)
        body["probability_exact"] = _rational(exact)
    except WorkBoundExceeded as exc:
        body["exact_refused"] = str(exc)
    est, se = cross_probability_mc(n, sizes, fams, args.samples, args.seed)
    body["mc"] = {"probability": est, "stderr": se}
    _emit(args, {"n": n, "sizes": sizes, "families": specs}, body)
    return 0


_NAMED_HYPERGRAPHS = {
    "m2": lambda k: matching_hypergraph(2, k),
    "i21": lambda k: sunflower_hypergraph(2, k),
}


def cmd_removal(args) -> int:
    _check_max_n(args.n, args.max_n)
    F = _load_family(args.family, args.n, args.k)
    if args.hypergraph.startswith("file:"):
        H = _read_file(args.hypergraph, "hypergraph")
    elif args.hypergraph in _NAMED_HYPERGRAPHS:
        H = _NAMED_HYPERGRAPHS[args.hypergraph](args.k)
    else:
        raise ValueError(f"unknown hypergraph spec {args.hypergraph!r}")
    report = removal_pipeline(F, H, args.s, seed=args.seed, samples=args.samples)
    config = {key: getattr(args, key) for key in ("family", "hypergraph", "n", "k", "s")}
    _emit(args, config, {"pipeline": report})
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose usage errors
    raise ValueError, for main's one-line refusal."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biasedcube")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for option, commands, kwargs in (  # each common option, on the commands that read it
                ("--seed", "verify count removal", dict(type=int, default=0)),
                ("--tol", "verify lambda", dict(type=float, default=1e-9)),
                ("--out", "verify curve lambda count removal", dict(default=None)),
                ("--format", "verify curve lambda", dict(choices=["json", "csv"], default="json")),
                ("--max-n", "curve count removal", dict(type=int, default=MAX_N)),
                ("--samples", "count removal", dict(type=int, default=20_000))):
            if name in commands.split():
                p.add_argument(option, **kwargs)
        return p

    command("verify", cmd_verify, "run the full invariant battery")

    pc = command("curve", cmd_curve, "threshold curve of a monotone function")
    pc.add_argument("--function", required=True)
    pc.add_argument("--n", type=int, default=5)
    pc.add_argument("--grid", default="0.05:0.95:19",
                    help="lo:hi:steps for the bias grid")

    pl = command("lambda", cmd_lambda, "correlated orthant probabilities")
    pl.add_argument("--rho", required=True, help="comma list")
    pl.add_argument("--mu", required=True, help="comma list")
    pl.add_argument("--nu", required=True, help="comma list")

    pm = command("count", cmd_count, "matching cross-containment probability")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--sizes", required=True, help="comma list of part sizes")
    pm.add_argument("--families", required=True,
                    help="comma list of family specs, one per part")

    pr = command("removal", cmd_removal, "removal-lemma pipeline")
    pr.add_argument("--family", required=True)
    pr.add_argument("--hypergraph", required=True)
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--s", type=int, default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "samples" in args and args.samples < 1:
            raise ValueError(f"--samples must be a positive integer, got {args.samples}")
        if "tol" in args and (not math.isfinite(args.tol) or args.tol < 0):
            raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
        return args.run(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
