"""Golden report bodies: fixed CLI runs whose seed-determined bodies must
not change byte for byte.

Each case runs in-process through cli.main.  Its body is serialized as
the report serializes it (sorted keys, two-space indent) and compared
with tests/golden/<name>.json.  The files are written only by
tests/golden/regen.py; a change that alters a body regenerates it and
lists each changed key, old -> new.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from biasedcube import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    **{f"verify_seed{s}": ["verify", "--seed", str(s)] for s in range(4)},
    "curve_maj_n20": ["curve", "--function", "maj", "--n", "20"],
    "removal_star_i21": ["removal", "--family", "star", "--hypergraph", "i21",
                         "--n", "9", "--k", "3", "--s", "1"],
    "removal_star_m2": ["removal", "--family", "star", "--hypergraph", "m2",
                        "--n", "9", "--k", "3", "--s", "0"],
    "count_star_star": ["count", "--n", "9", "--sizes", "3,3", "--families", "star,star"],
    "count_singletons": ["count", "--n", "4", "--sizes", "1,1",
                         "--families", "singleton:1,singleton:2"],
    "lambda_grid": ["lambda", "--rho", "0.2,0.5,0.8", "--mu", "0.1,0.5,0.9",
                    "--nu", "0.3,0.7"],
}


def render(argv) -> str:
    """The body text of one run; a nonzero exit code raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return json.dumps(json.loads(out.getvalue())["body"], indent=2, sort_keys=True) + "\n"


def differences(old, new, path="body"):
    """(key path, old value, new value) for each leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from differences(old.get(key, "<absent>"), new.get(key, "<absent>"),
                                   f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


@pytest.mark.parametrize("name", sorted(CASES))
def test_body_matches_golden(name):
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    got = render(CASES[name])
    if got != want:
        lines = [f"  {path}: {old!r} -> {new!r}"
                 for path, old, new in differences(json.loads(want), json.loads(got))]
        pytest.fail(f"{name} body changed:\n"
                    + "\n".join(lines or ["  (same values, different bytes)"]))


def test_differences_lists_key_paths():
    old = {"a": [1, {"b": 2.0}], "c": "x"}
    new = {"a": [1, {"b": 2.5}], "d": True}
    assert list(differences(old, new)) == [
        ("body.a[1].b", 2.0, 2.5), ("body.c", "x", "<absent>"), ("body.d", "<absent>", True)]
