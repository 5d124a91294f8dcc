"""Regenerate the golden report bodies next to this script.

    PYTHONPATH=src python tests/golden/regen.py

Writes <name>.json for every case of tests/test_golden.py and prints, for
each file it rewrites, every changed key, old -> new, and "unchanged" for
the others.  No test runs this script: run it only for a change that is
meant to alter a body, and list its printed keys with that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import CASES, differences, render  # noqa: E402


def main() -> None:
    for name, argv in sorted(CASES.items()):
        path, new = HERE / f"{name}.json", render(argv)
        old = path.read_text() if path.exists() else "{}"
        if new == old:
            print(f"{name}.json: unchanged")
            continue
        path.write_text(new)
        print(f"{name}.json:")
        for key, was, now in differences(json.loads(old), json.loads(new)):
            print(f"  {key}: {was!r} -> {now!r}")


if __name__ == "__main__":
    main()
