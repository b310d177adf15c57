#!/usr/bin/env python3
"""Regenerate the expected-output files for the golden CLI corpus.

Runs every case in tests/golden/manifest.json through the command line
front end in a subprocess and rewrites the committed ``.out`` files with
the captured stdout.  It then rewrites ``tests/golden/contract.json``,
the output contract: exit code and sha256 of stdout and of stderr for
every command line problem of the benchmark's three workloads at seeds
1 and 2, in text and in JSON, and for a few error variants of them (see
:func:`contract_problems`).  Run it after an intentional output-format
change, then review the diff before committing.
"""

import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BENCH = ROOT / "bench"
CONTRACT = GOLDEN / "contract.json"
CONTRACT_SEEDS = (1, 2)


def _error_variants(doc):
    """Damaged copies of a problem file, one per error path they reach:
    a missing payload field (exit 2), bad arc literals (exit 2), literal
    measures that tie above their floor (exit 5) and a divergent twist
    (exit 3)."""
    payload = doc["payload"]
    variants = [dict(doc, payload={k: v for k, v in payload.items()
                                   if k != min(payload)})]
    if doc["kind"] == "compose":
        for bad in ("1/0", "2.5", 0.5, True):
            variant = copy.deepcopy(doc)
            variant["payload"]["arc"][0][0] = bad
            variants.append(variant)
    operands = {"compare": ("left", "right"), "check-map": ("mu_x", "mu_y")}
    if doc["kind"] in operands:
        literal = "u^-1 + O(u^-8)"
        variants.append(dict(doc, payload=dict(
            payload, **{k: literal for k in operands[doc["kind"]]})))
    if doc["kind"] == "integrate":
        variants.append(dict(doc, payload=dict(
            payload, alpha=[[-9] * len(row) for row in payload["alpha"]])))
    return variants


def contract_problems():
    """``{key: (doc, flags)}`` for every run the output contract records.

    Every command line problem of the three workloads at each seed of
    ``CONTRACT_SEEDS`` runs with ``--format text`` and ``--format
    json``; the first problem of each kind in each stream also gives
    its error variants, run as text.  ``key`` is the benchmark's
    ``gen.key_of`` of the problem file and flags.  Needs ``bench/`` on
    ``sys.path`` and the root of the checkout as current directory.
    """
    import gen

    runs = {}
    for workload in gen.WORKLOADS:
        for seed in CONTRACT_SEEDS:
            kinds = set()
            for problem in gen.generate(workload, seed):
                if problem["call"] != "cli":
                    continue
                doc = problem["doc"]
                for fmt in ("text", "json"):
                    flags = [*problem["flags"], "--format", fmt]
                    runs[gen.key_of(doc, flags)] = doc, flags
                if doc["kind"] not in kinds:
                    kinds.add(doc["kind"])
                    for variant in _error_variants(doc):
                        flags = ["--format", "text"]
                        runs[gen.key_of(variant, flags)] = variant, flags
    return runs


def contract(workdir):
    """``{key: [kind, exit code, sha256 of stdout, sha256 of stderr]}``,
    each problem run in process, its file written under ``workdir``."""
    import worker

    path = pathlib.Path(workdir) / "problem.json"
    out = {}
    for key, (doc, flags) in sorted(contract_problems().items()):
        path.write_text(json.dumps(doc), "utf-8")
        code, stdout, stderr = worker.run_one(
            {"call": "cli", "file": str(path), "flags": flags})
        out[key] = [doc["kind"], code,
                    *(hashlib.sha256(text.encode("utf-8")).hexdigest()
                      for text in (stdout, stderr))]
    return out


def contract_text(entries):
    """The text of ``contract.json``: one entry per line, sorted by key."""
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}"
             for key, value in sorted(entries.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


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
    os.chdir(ROOT)  # gen.golden_problems reads tests/golden from here
    sys.path.insert(0, str(BENCH))
    with tempfile.TemporaryDirectory() as workdir:
        entries = contract(workdir)
    CONTRACT.write_text(contract_text(entries), "utf-8")
    print(f"wrote {CONTRACT.name} ({len(entries)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
