"""Regenerate the golden report bodies next to this script.

    PYTHONPATH=src python tests/golden/regen.py

Writes <name>.json for every case of tests/test_golden.py.  No test runs
this script: run it only for a change that is meant to alter a body, and
list each changed key, old -> new, with that change.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import CASES, render  # noqa: E402


def main() -> None:
    for name, argv in sorted(CASES.items()):
        (HERE / f"{name}.json").write_text(render(argv))
        print(f"wrote {name}.json")


if __name__ == "__main__":
    main()
