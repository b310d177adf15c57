#!/usr/bin/env python3
"""Regenerate the expected-output files for the golden CLI corpus.

Runs every case in tests/golden/manifest.json through the command line
front end in a subprocess and rewrites the committed ``.out`` files with
the captured stdout.  Run it after an intentional output-format change,
then review the diff before committing.
"""

import json
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def main() -> int:
    manifest = json.loads((GOLDEN / "manifest.json").read_text("utf-8"))
    for case in manifest["cases"]:
        problem = GOLDEN / case["problem"]
        result = subprocess.run(
            [sys.executable, "-m", "arcmeasure.cli", str(problem),
             *case["flags"]],
            capture_output=True, text=True)
        if result.returncode != 0:
            print(f"{case['problem']}: exit {result.returncode}",
                  file=sys.stderr)
            print(result.stderr, file=sys.stderr)
            return 1
        (GOLDEN / case["expected"]).write_text(result.stdout, "utf-8")
        print(f"wrote {case['expected']} ({len(result.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
