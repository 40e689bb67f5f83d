#!/usr/bin/env python3
"""The comparison of tools/census.py on canned `nm -A` listings.

Usage: census_test.py /path/to/tools/census.py
libs.nm stands for the src/ static libraries: sa::core::Alpha(),
sa::core::Beta() and sa::sim::Gamma(double) are strong text symbols there,
next to a local, a weak, a data and a non-sa:: symbol that the census must
ignore. bench_e1.nm links Alpha and perfbench.nm links Gamma, so Beta is
the one function no binary links.
"""

import importlib.util
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
census = None


def listing(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as f:
        return f.read()


class CensusTest(unittest.TestCase):
    def run_census(self, allowlist):
        return census.compare([listing("libs.nm")],
                              [listing("bench_e1.nm"),
                               listing("perfbench.nm")], allowlist)

    def test_unlisted_symbol_fails_and_is_named(self):
        rc, lines = self.run_census("")
        self.assertEqual(rc, 1, lines)
        self.assertIn("UNLINKED libsa_core.a(knowledge.cpp.o): "
                      "sa::core::Beta()", lines)
        report = "\n".join(lines)
        for name in ("Alpha", "Gamma", "helper", "local", "size", "table"):
            self.assertNotIn(name, report)
        self.assertEqual(lines[-1], "census: 1 of 4 library functions linked "
                         "by no binary; 0 allowlisted, 1 unlisted")

    def test_allowlisted_symbol_passes(self):
        rc, lines = self.run_census(
            "# comment lines and blank lines are skipped\n\n"
            "sa::core::Beta() # docs/tutorial.md tells readers to call it\n")
        self.assertEqual(rc, 0, lines)
        self.assertIn("allowed  libsa_core.a(knowledge.cpp.o): "
                      "sa::core::Beta()", lines)

    def test_stale_entry_fails(self):
        beta = "sa::core::Beta() # docs/tutorial.md tells readers to call it\n"
        # A symbol a binary now links...
        rc, lines = self.run_census(beta + "sa::core::Alpha() # was dead\n")
        self.assertEqual(rc, 1, lines)
        self.assertIn("STALE    allowlist entry, a binary links it: "
                      "sa::core::Alpha()", lines)
        # ...and one that no library defines any more.
        rc, lines = self.run_census(beta + "sa::core::Gone() # deleted\n")
        self.assertEqual(rc, 1, lines)
        self.assertIn("STALE    allowlist entry, no library defines it: "
                      "sa::core::Gone()", lines)

    def test_entry_without_reason_fails(self):
        rc, lines = self.run_census("sa::core::Beta()\n")
        self.assertEqual(rc, 1, lines)
        self.assertTrue(any(line.startswith("BAD") for line in lines), lines)


if __name__ == "__main__":
    spec = importlib.util.spec_from_file_location("census", sys.argv.pop(1))
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    unittest.main()
