"""Span tracing of the biasedcube layers, installed from outside the package.

`install` wraps every public function of each biasedcube module, rebinds
the wrapper wherever the original is referenced (other modules that
imported the name, the package namespace, module-level lists such as
`verify.GROUPS`), and wraps the two methods that carry sampling and
enumeration work.  Each call records one span: name, parent span, start,
end, the exception type if it raised, and work counts computed from its
arguments.  Spans stay in memory; `dump` writes them once at the end.

A few per-element helpers are not wrapped: each call costs less than
recording a span, so wrapping them would mostly measure the tracer.
Their time stays in the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("cube", "noise", "gaussian", "families", "hypergraphs",
           "matchings", "removal", "verify", "cli")

# called once per sample, per enumerated tuple or per quadrature node
LEAF_HELPERS = frozenset({"cube.mask_of", "cube.coords_of", "gaussian.phi",
                          "gaussian.Phi", "hypergraphs.random_copy"})

METHODS = (("noise", "CoupledSampler", "sample_many", "noise.sample_many"),
           ("families", "JuntaFamily", "generated", "families.generated"))


def _table_work(n: int) -> dict:
    # one butterfly per entry per coordinate pass; each reads and writes 8 bytes
    entries = n << n
    return {"entries": entries, "bytes": 16 * entries}


# Work counts taken from call arguments, never from inside the program.
ARG_COUNTS = {
    "cube.transform": lambda a: _table_work(a["f"].n),
    "cube.inverse_transform": lambda a: _table_work(a["s"].n),
    "hypergraphs.almost_free_exact": lambda a: {"tuples": len(a["F"].members) ** a["H"].h},
    "hypergraphs.almost_free_estimate": lambda a: {"samples": a["samples"]},
    "hypergraphs.trace_probability_order": lambda a: {"samples": a["samples"]},
    "matchings.cross_probability_mc": lambda a: {"samples": a["samples"]},
    "matchings.acceptance_rate": lambda a: {"samples": a["trials"]},
    "gaussian.lambda_mc": lambda a: {"samples": a["samples"]},
    "noise.sample_many": lambda a: {"samples": a["count"]},
}

# Counts that need the return value.
RESULT_COUNTS = {
    "matchings.acceptance_rate": lambda a, r: {"accepted": round(r * a["trials"])},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        has_method = "method" in sig.parameters
        arg_counts = ARG_COUNTS.get(name)
        result_counts = RESULT_COUNTS.get(name)
        needs_args = has_method or arg_counts is not None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name, counts = name, None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if has_method:
                    span_name = f"{name}.{a['method']}"
                if arg_counts is not None:
                    counts = arg_counts(a)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            status = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result_counts is not None:
                    counts = {**(counts or {}), **result_counts(a, result)}
                return result
            except Exception as exc:
                status = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, parent, start, end, status, counts)

        return functools.wraps(fn)(traced)

    def dump(self, path, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"extra": extra or {}}) + "\n")
            for i, (name, parent, start, end, status, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "status": status, "counts": counts}) + "\n")


def install(tracer: Tracer):
    """Wrap the public biasedcube functions and rebind every reference.

    Returns a function that puts the originals back.
    """
    package = importlib.import_module("biasedcube")
    mods = {m: importlib.import_module(f"biasedcube.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in LEAF_HELPERS):
                continue
            wrappers[obj] = tracer.wrap(obj, name)
    undo_attrs, undo_lists = [], []

    def rebind(owner, attr, value):
        undo_attrs.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod in (package, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                rebind(mod, attr, wrappers[obj])
            elif isinstance(obj, list):
                undo_lists.append((obj, obj[:]))
                obj[:] = [wrappers.get(x, x) if inspect.isfunction(x) else x for x in obj]
    for short, cls, meth, name in METHODS:
        owner = getattr(mods[short], cls)
        rebind(owner, meth, tracer.wrap(getattr(owner, meth), name))

    def uninstall():
        for owner, attr, value in reversed(undo_attrs):
            setattr(owner, attr, value)
        for lst, saved in undo_lists:
            lst[:] = saved

    return uninstall


def load(path) -> tuple:
    """Read a span file written by `Tracer.dump`: (extra, spans)."""
    with open(path) as fh:
        extra = json.loads(fh.readline())["extra"]
        spans = [json.loads(line) for line in fh]
    return extra, [(s["name"], s["parent"], s["start"], s["end"], s["status"], s["counts"])
                   for s in spans]


def summarize(span_sets) -> dict:
    """Per-layer metrics from one or more span lists (one per process).

    Every span name gets `<name>.calls` and `<name>.self_s`, self time
    being the span's duration minus the time its direct children cover.
    Rates divide argument-derived work by inclusive span time.
    """
    calls: dict = {}
    self_s: dict = {}
    incl: dict = {}
    work: dict = {}
    refused = inconclusive = pipeline_stages = pipeline_exact = 0
    for spans in span_sets:
        child = [0.0] * len(spans)
        for name, parent, start, end, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, status, counts) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            incl[name] = incl.get(name, 0.0) + dur
            if name == "hypergraphs.almost_free_exact":
                if status == "ValueError":
                    refused += 1
                    counts = None
                if parent >= 0 and spans[parent][0] == "removal.removal_pipeline":
                    pipeline_stages += 1
                    pipeline_exact += status is None
            if name == "hypergraphs.junta_is_Hs_free" and status == "FreenessInconclusive":
                inconclusive += 1
            for key, val in (counts or {}).items():
                work[(name, key)] = work.get((name, key), 0) + val

    def rate(name, key):
        t = incl.get(name, 0.0)
        return work.get((name, key), 0) / t if t > 0 else 0.0

    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    tr_self = self_s.get("cube.transform", 0.0)
    out["cube.butterfly_entries"] = (work.get(("cube.transform", "entries"), 0)
                                     + work.get(("cube.inverse_transform", "entries"), 0))
    out["cube.transform.gbps_computed"] = (
        work.get(("cube.transform", "bytes"), 0) / tr_self / 1e9 if tr_self > 0 else 0.0)
    afe = "hypergraphs.almost_free_exact"
    out[f"{afe}.tuples"] = work.get((afe, "tuples"), 0)
    afe_self = self_s.get(afe, 0.0)
    out[f"{afe}.tuples_per_s"] = out[f"{afe}.tuples"] / afe_self if afe_self > 0 else 0.0
    out[f"{afe}.refused"] = refused
    out["hypergraphs.junta_is_Hs_free.inconclusive"] = inconclusive
    out["removal.exact_share"] = pipeline_exact / pipeline_stages if pipeline_stages else 0.0
    for name in ("hypergraphs.almost_free_estimate", "hypergraphs.trace_probability_order",
                 "matchings.cross_probability_mc", "noise.sample_many", "gaussian.lambda_mc"):
        out[f"{name}.samples_per_s"] = rate(name, "samples")
    out["matchings.acceptance_rate.trials_per_s"] = rate("matchings.acceptance_rate", "samples")
    tries = work.get(("matchings.acceptance_rate", "samples"), 0)
    out["matchings.acceptance"] = (work.get(("matchings.acceptance_rate", "accepted"), 0) / tries
                                   if tries else 0.0)
    return out
