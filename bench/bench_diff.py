#!/usr/bin/env python3
"""Compare two BENCH_<exp>.json documents outside their `measured` block.

Usage: bench_diff.py [--ignore-events-total] A.json B.json

A schema-2 BENCH document keeps every field that depends on the clock, the
host or the execution mode (wall times, jobs, RSS, shard rates) in one
top-level `measured` object; everything else must be identical for the
same build, spec and seeds, whatever --jobs, --shards, resume or serve.
This tool drops `measured` from both documents and compares the rest
exactly: key order, number types (int vs float) and the text of every
float are significant. On a difference it prints the first JSON path that
differs.

--ignore-events-total also drops meta.events_total, for comparisons
between processes that legitimately execute a different number of engine
events (a resumed run skips completed cells; a served run adds publish
events).

Exit status: 0 the documents match, 1 they differ, 2 an input is
unreadable, not valid JSON, lacks `measured`, or is not schema 2.
"""

import argparse
import json
import re
import sys

SCHEMA = 2


class InputError(Exception):
    """An input that is not a comparable BENCH document (exit 2)."""


class Object(list):
    """A JSON object as its ordered (key, value) pairs."""


class Float(str):
    """A JSON float, kept as its exact source text."""


def _reject_constant(name):
    raise ValueError("non-standard JSON constant " + name)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=Object, parse_float=Float,
                            parse_constant=_reject_constant)
    except (OSError, UnicodeDecodeError, ValueError) as e:
        raise InputError("%s: %s" % (path, e)) from None
    if not isinstance(doc, Object):
        raise InputError("%s: top level is not a JSON object" % path)
    fields = dict(doc)
    schema = fields.get("schema")
    if type(schema) is not int or schema != SCHEMA:
        raise InputError("%s: schema %s, want %d" %
                         (path, json.dumps(schema), SCHEMA))
    if "measured" not in fields:
        raise InputError("%s: no `measured` block" % path)
    return doc


def strip(doc, ignore_events_total):
    """The document without `measured` (and optionally meta.events_total)."""
    out = Object()
    for key, value in doc:
        if key == "measured":
            continue
        if ignore_events_total and key == "meta" and isinstance(value, Object):
            value = Object(p for p in value if p[0] != "events_total")
        out.append((key, value))
    return out


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def member(path, key):
    return path + ("." + key if _IDENT.match(key) else "[%s]" % json.dumps(key))


def show(value):
    if isinstance(value, Object):
        return "{...}"
    if isinstance(value, list):
        return "[...]"
    if type(value) is Float:
        return str(value)
    return json.dumps(value)


def first_difference(a, b, path="$"):
    """The (path, a-text, b-text) of the first difference, or None."""
    if type(a) is not type(b):
        return path, show(a), show(b)
    if isinstance(a, Object):
        for i in range(max(len(a), len(b))):
            if i >= len(a):
                return member(path, b[i][0]), "(absent)", show(b[i][1])
            if i >= len(b):
                return member(path, a[i][0]), show(a[i][1]), "(absent)"
            (ka, va), (kb, vb) = a[i], b[i]
            if ka != kb:
                return (path + " key #%d" % i, json.dumps(ka), json.dumps(kb))
            found = first_difference(va, vb, member(path, ka))
            if found:
                return found
        return None
    if isinstance(a, list):
        for i in range(max(len(a), len(b))):
            if i >= len(a):
                return "%s[%d]" % (path, i), "(absent)", show(b[i])
            if i >= len(b):
                return "%s[%d]" % (path, i), show(a[i]), "(absent)"
            found = first_difference(a[i], b[i], "%s[%d]" % (path, i))
            if found:
                return found
        return None
    if a != b:
        return path, show(a), show(b)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare two BENCH documents outside `measured`.")
    parser.add_argument("--ignore-events-total", action="store_true",
                        help="also ignore meta.events_total")
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json")
    args = parser.parse_args(argv)
    try:
        a = strip(load(args.a), args.ignore_events_total)
        b = strip(load(args.b), args.ignore_events_total)
    except InputError as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2
    found = first_difference(a, b)
    if found is None:
        return 0
    path, va, vb = found
    print("bench_diff: %s and %s differ at %s: %s != %s" %
          (args.a, args.b, path, va, vb))
    return 1


if __name__ == "__main__":
    sys.exit(main())
