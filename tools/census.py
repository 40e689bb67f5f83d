#!/usr/bin/env python3
"""Reachability census: the src/ functions that no shipped binary links.

Usage, from the repository root:

    python3 tools/census.py [SOURCE_ROOT [WORK_DIR]]

SOURCE_ROOT defaults to the repository this script sits in and WORK_DIR
to SOURCE_ROOT/build-census. The script builds every bench/ and
examples/ binary, and perfbench from perfbench/CMakeLists.txt, at -O0
with one section per function and the linker dropping unreferenced
sections. It then takes the strong text symbols (`nm` type T) that the
src/ static libraries define and removes every symbol that any of those
binaries still contains. What is left is code that only tests reach.

-O0 keeps the answer honest: with optimisation, a function inlined into
every caller in its own file leaves no symbol in the binary and would be
reported although it runs.

Each remaining `sa::` symbol is printed, demangled, with its object file.
tools/census_allowlist.txt may keep a few of them; each of its lines is
`<demangled symbol> # <reason>`. The exit code is 0 when every remaining
symbol is allowlisted and every allowlist entry still names one, 1 when
a symbol is unlisted or an entry is stale, and 2 when the build fails.
"""

import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def nm(path):
    return run(["nm", "-A", "--defined-only", path],
               capture_output=True, text=True).stdout


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              capture_output=True, text=True).stdout
    return out.splitlines()


def cmake_build(src, build, targets):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        run(["cmake", "-S", src, "-B", build, *generator, *FLAGS],
            stdout=sys.stderr)
    run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
         "--target", *targets], stdout=sys.stderr)


def targets(cmake_file, function):
    with open(cmake_file, encoding="utf-8") as f:
        return re.findall(r"^%s\((\w+)\)" % function, f.read(), re.M)


def parse_nm(listing, only_type=None):
    """{mangled symbol: object} for the listing's symbols (of `only_type`).

    A line of `nm -A --defined-only` reads `file[:member]:addr type name`;
    the object is named `file(member)` inside an archive.
    """
    syms = {}
    for line in listing.splitlines():
        fields = line.split()
        if len(fields) != 3 or only_type not in (None, fields[1]):
            continue
        where = fields[0].split(":")[:-1]
        obj = os.path.basename(where[0])
        if len(where) > 1:
            obj += "(%s)" % where[1]
        syms.setdefault(fields[2], obj)
    return syms


def parse_allowlist(text):
    """({demangled symbol: reason}, [malformed lines])."""
    entries, bad = {}, []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        symbol, _, reason = line.partition(" # ")
        if not symbol.strip() or not reason.strip():
            bad.append(line)
        else:
            entries[symbol.strip()] = reason.strip()
    return entries, bad


def compare(lib_listings, bin_listings, allowlist_text):
    """(exit code, report lines) of the census over `nm -A` listings.

    lib_listings are the src/ static libraries', bin_listings the linked
    binaries'. Only `sa::` symbols are reported.
    """
    defined = {}
    for listing in lib_listings:
        defined.update(parse_nm(listing, "T"))
    linked = set()
    for listing in bin_listings:
        linked.update(parse_nm(listing))
    allow, bad = parse_allowlist(allowlist_text)

    names = sorted(defined)
    readable = dict(zip(names, demangle(names))) if names else {}
    dead = sorted((defined[m], readable[m]) for m in names
                  if m not in linked and readable[m].startswith("sa::"))
    live = {readable[m] for m in names if m in linked}

    lines, rc = [], 0
    for obj, name in dead:
        listed = name in allow
        lines.append("%s %s: %s" % ("allowed " if listed else "UNLINKED",
                                    obj, name))
        rc |= not listed
    dead_names = {name for _, name in dead}
    for name in sorted(allow):
        if name in dead_names:
            continue
        why = "a binary links it" if name in live else "no library defines it"
        lines.append("STALE    allowlist entry, %s: %s" % (why, name))
        rc = 1
    for line in bad:
        lines.append("BAD      allowlist line needs `symbol # reason`: %s"
                     % line)
        rc = 1
    unlisted = sum(name not in allow for _, name in dead)
    lines.append("census: %d of %d library functions linked by no binary; "
                 "%d allowlisted, %d unlisted"
                 % (len(dead), len(defined), len(dead) - unlisted, unlisted))
    return rc, lines


def main(argv):
    if len(argv) > 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0] if argv else os.path.join(HERE, ".."))
    work = os.path.abspath(argv[1] if len(argv) > 1
                           else os.path.join(src, "build-census"))
    benches = targets(os.path.join(src, "bench", "CMakeLists.txt"), "sa_bench")
    examples = targets(os.path.join(src, "examples", "CMakeLists.txt"),
                       "sa_example")
    main_build = os.path.join(work, "main")
    perf_build = os.path.join(work, "perfbench")
    try:
        cmake_build(src, main_build, benches + examples)
        cmake_build(os.path.join(src, "perfbench"), perf_build, ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print("census: build failed: %s" % e, file=sys.stderr)
        return 2

    libs = []
    for root, _, files in os.walk(os.path.join(main_build, "src")):
        libs += [os.path.join(root, f) for f in files
                 if f.startswith("libsa_") and f.endswith(".a")]
    binaries = ([os.path.join(main_build, "bench", b) for b in benches]
                + [os.path.join(main_build, "examples", b) for b in examples]
                + [os.path.join(perf_build, "perfbench")])
    with open(os.path.join(src, "tools", "census_allowlist.txt"),
              encoding="utf-8") as f:
        allowlist = f.read()
    rc, lines = compare([nm(p) for p in sorted(libs)],
                        [nm(p) for p in binaries], allowlist)
    print("census: %d libraries, %d binaries" % (len(libs), len(binaries)))
    print("\n".join(lines))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
