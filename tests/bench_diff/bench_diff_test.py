#!/usr/bin/env python3
"""Exit-code and path contract of bench/bench_diff.py on fixture documents.

Usage: bench_diff_test.py /path/to/bench_diff.py
a.json and b.json (next to this file) differ only inside `measured`; the
other cases are single edits of a.json written to a temporary directory.
"""

import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = None


def fixture(name):
    return os.path.join(HERE, name)


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        with open(fixture("a.json"), encoding="utf-8") as f:
            self.base = f.read()

    def tearDown(self):
        self.tmp.cleanup()

    def edited(self, old, new):
        """a.json with the one occurrence of `old` replaced by `new`."""
        self.assertEqual(self.base.count(old), 1, old)
        path = os.path.join(self.tmp.name, "edited.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.base.replace(old, new))
        return path

    def run_tool(self, a, b, *flags):
        proc = subprocess.run([sys.executable, TOOL, *flags, a, b],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_equal_outside_measured(self):
        self.assertEqual(self.run_tool(fixture("a.json"), fixture("b.json"))[0], 0)
        self.assertEqual(self.run_tool(fixture("a.json"), fixture("a.json"))[0], 0)

    def test_changed_metric_fails_with_its_path(self):
        changed = self.edited('"overall": 0.75', '"overall": 0.76')
        for flags in ((), ("--ignore-events-total",)):
            rc, out = self.run_tool(fixture("a.json"), changed, *flags)
            self.assertEqual(rc, 1, out)
            self.assertIn("$.grids[0].results[1].metrics.overall", out)
            self.assertIn("0.75 != 0.76", out)

    def test_events_total_needs_the_flag(self):
        changed = self.edited('"events_total": 4200', '"events_total": 4321')
        rc, out = self.run_tool(fixture("a.json"), changed)
        self.assertEqual(rc, 1, out)
        self.assertIn("$.meta.events_total", out)
        rc, out = self.run_tool(fixture("b.json"), changed,
                                "--ignore-events-total")
        self.assertEqual(rc, 0, out)

    def test_number_type_is_significant(self):
        changed = self.edited('"events": 100', '"events": 100.0')
        rc, out = self.run_tool(fixture("a.json"), changed)
        self.assertEqual(rc, 1, out)
        self.assertIn("$.grids[0].results[0].metrics.events", out)

    def test_key_order_is_significant(self):
        changed = self.edited('"overall": 0.5,\n            "events": 100',
                              '"events": 100,\n            "overall": 0.5')
        self.assertEqual(self.run_tool(fixture("a.json"), changed)[0], 1)

    def test_missing_key_fails(self):
        changed = self.edited(',\n          "note": "converged"', "")
        rc, out = self.run_tool(fixture("a.json"), changed)
        self.assertEqual(rc, 1, out)
        self.assertIn("$.grids[0].results[1].note", out)

    def test_invalid_json_is_unreadable(self):
        truncated = os.path.join(self.tmp.name, "truncated.json")
        with open(truncated, "w", encoding="utf-8") as f:
            f.write(self.base[: len(self.base) // 2])
        self.assertEqual(self.run_tool(fixture("a.json"), truncated)[0], 2)
        self.assertEqual(self.run_tool(truncated, fixture("a.json"))[0], 2)

    def test_missing_measured_is_unreadable(self):
        cut = self.base.index(',\n  "measured"')
        path = os.path.join(self.tmp.name, "unmeasured.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.base[:cut] + "\n}\n")
        rc, out = self.run_tool(fixture("a.json"), path)
        self.assertEqual(rc, 2, out)
        self.assertIn("measured", out)

    def test_schema_1_is_unreadable(self):
        old = self.edited('"schema": 2', '"schema": 1')
        rc, out = self.run_tool(old, fixture("a.json"))
        self.assertEqual(rc, 2, out)
        self.assertIn("schema", out)

    def test_missing_file_is_unreadable(self):
        missing = os.path.join(self.tmp.name, "missing.json")
        self.assertEqual(self.run_tool(fixture("a.json"), missing)[0], 2)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    TOOL = sys.argv.pop(1)
    unittest.main()
