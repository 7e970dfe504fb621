#!/usr/bin/env python3
"""Determinism self-test of the traced run.

Two traced runs with the same seed must report identical count metrics:
the opt.* counts, engine.fallback_families, engine.tuples_per_row and
storage.bytes_per_xml_byte. Timings may differ; counts may not.

Run from the repository root (builds the benchmark on first use):

    python3 xqbench/tests/test_determinism.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "run.py"
SEED = 7


def traced_metrics(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().split("\n")[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


def is_count(name: str) -> bool:
    return (name.startswith(("opt.ops_after_isolate.", "opt.rules_applied.",
                             "engine.tuples_per_row."))
            or name in ("engine.fallback_families",
                        "storage.bytes_per_xml_byte"))


class TracedCountsAreDeterministic(unittest.TestCase):
    def check(self, workload: str) -> None:
        first = traced_metrics(workload)
        second = traced_metrics(workload)
        counts = sorted(name for name in first if is_count(name))
        self.assertIn("engine.fallback_families", counts)
        self.assertIn("opt.ops_after_isolate.Q3", counts)
        for name in counts:
            self.assertEqual(first[name], second[name], name)

    def test_repeat(self) -> None:
        self.check("repeat")

    def test_adhoc(self) -> None:
        self.check("adhoc")

    def test_serve(self) -> None:
        self.check("serve")


if __name__ == "__main__":
    unittest.main()
