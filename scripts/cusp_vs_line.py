#!/usr/bin/env python3
"""Worked example: the cusp germ measured against the line germ.

Reads the golden ``check-map`` problem of the map from the cusp to its
parameter line, computes both germ measures from their resolution data
at a chosen precision floor, compares them, and prints the theorem
report for that map.  Run with ``--floor`` to see how the certified
tail deepens.
"""

import argparse
import json
import sys
from pathlib import Path

from arcmeasure import (ResolutionData, ResolutionDiagram,
                        compare_germ_measures, germ_measure,
                        measure_comparison_report, render, virtual_dim)

PROBLEM = (Path(__file__).resolve().parents[1] / "tests" / "golden"
           / "cusp_line_check_map.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--floor", type=int, default=-20,
                        help="precision floor for the measures")
    args = parser.parse_args()

    payload = json.loads(PROBLEM.read_text("utf-8"))["payload"]
    diagram = ResolutionDiagram.from_json(payload["diagram"])
    cusp = germ_measure(diagram.source_data(), args.floor)
    line = germ_measure(
        ResolutionData.from_json(payload["mu_y"]["resolution"]), args.floor)

    print(f"cusp germ measure  : {render(cusp)}")
    print(f"line germ measure  : {render(line)}")
    print(f"virtual dimensions : cusp {virtual_dim(cusp)}, "
          f"line {virtual_dim(line)}")
    print(f"comparison         : compare(cusp, line) = "
          f"{compare_germ_measures(cusp, line)}")
    print()

    report = measure_comparison_report(diagram, cusp, line)
    print("report for the map from the cusp germ to the line germ:")
    print(json.dumps(report.to_json(), indent=2, sort_keys=True,
                     default=render))
    return 0


if __name__ == "__main__":
    sys.exit(main())
