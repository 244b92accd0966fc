#!/usr/bin/env python3
"""Linker census: every library function must run in a shipped binary.

  python3 scripts/reach_census.py

Configures and builds two trees of its own -- build-census/ for the
repository and build-census-e2e/ for bench/e2e -- with -O0
-ffunction-sections (no inlining, one section per function) and links
with -Wl,--gc-sections, so an executable keeps exactly the functions it
can reach.  Each library archive's strong text symbols (every libnp_*.a:
src/'s libraries and the benches' np_bench_common; nm type T, deduplicated
by demangled name) are then looked up in what every executable kept:

  shipped  the benches, the examples, the src/apps tools and e2e_bench;
  tests    every binary built from tests/.

The census fails on
  * a function that no shipped binary keeps and that
    scripts/reach_allowlist.txt does not name (test-only code);
  * a function that nothing keeps at all (unreached code);
  * a stale allowlist line: its function is gone, or a shipped binary
    keeps it now.

Functions defined in headers (inline, templates: weak or local symbols)
are not counted.
"""
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-census")
BUILD_E2E = os.path.join(ROOT, "build-census-e2e")
ALLOWLIST = os.path.join(ROOT, "scripts", "reach_allowlist.txt")

COMPILE_FLAGS = "-O0 -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections"

# The directories whose executables ship, relative to build-census/.
SHIPPED_DIRS = ("bench", "examples", os.path.join("src", "apps"))
TEST_DIR = "tests"

NM_LINE = re.compile(r"^[0-9a-fA-F]+ (\S) (.+)$")


# ------------------------------------------------------------ classifier

def parse_allowlist(text):
    """Returns ({function: reason}, [errors]).

    One function per line, then ' # ' and the reason it may stay without
    a shipped user.  Blank lines and lines starting with '#' are comments.
    """
    allowed = {}
    errors = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        name, reason = name.strip(), reason.strip()
        if not sep or not name or not reason:
            errors.append(f"allowlist line {number}: want '<function> # "
                          f"<reason>', got {raw!r}")
        elif name in allowed:
            errors.append(f"allowlist line {number}: {name} is listed twice")
        else:
            allowed[name] = reason
    return allowed, errors


@dataclass
class Census:
    functions: int = 0
    shipped: int = 0
    allowlisted: list = field(default_factory=list)
    test_only: list = field(default_factory=list)  # unlisted: fails
    unreached: list = field(default_factory=list)  # fails
    stale: list = field(default_factory=list)      # (name, why): fails

    @property
    def ok(self):
        return not (self.test_only or self.unreached or self.stale)


def classify(library, shipped_kept, test_kept, allowed):
    """Sorts every library function by who keeps it.

    `library` is the set of strong library functions, `shipped_kept` and
    `test_kept` the functions any shipped or test binary kept, `allowed`
    the allowlist's {function: reason}.
    """
    census = Census(functions=len(library))
    for name in sorted(library):
        if name in shipped_kept:
            census.shipped += 1
        elif name not in test_kept:
            census.unreached.append(name)
        elif name in allowed:
            census.allowlisted.append(name)
        else:
            census.test_only.append(name)
    for name in sorted(allowed):
        if name not in library:
            census.stale.append((name, "no such library function"))
        elif name in shipped_kept:
            census.stale.append((name, "a shipped binary keeps it"))
    return census


def report(census):
    lines = [
        f"library functions: {census.functions} (strong text symbols; "
        "functions defined in headers are not counted)",
        f"  kept by a shipped binary: {census.shipped}",
        f"  kept only by tests, allowlisted: {len(census.allowlisted)}",
        f"  kept only by tests, not allowlisted: {len(census.test_only)}",
        f"  kept by nothing: {len(census.unreached)}",
        f"stale allowlist lines: {len(census.stale)}",
    ]
    for name in census.test_only:
        lines.append(f"TEST-ONLY {name}")
    for name in census.unreached:
        lines.append(f"UNREACHED {name}")
    for name, why in census.stale:
        lines.append(f"STALE {name} ({why})")
    return "\n".join(lines)


# ------------------------------------------------------------ the build

def run(cmd):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build():
    jobs = str(os.cpu_count() or 1)
    flags = [
        "-DCMAKE_BUILD_TYPE=None",
        f"-DCMAKE_CXX_FLAGS={COMPILE_FLAGS}",
        f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
    ]
    run(["cmake", "-S", ROOT, "-B", BUILD, *flags])
    run(["cmake", "--build", BUILD, "-j", jobs])
    run(["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", BUILD_E2E,
         *flags])
    run(["cmake", "--build", BUILD_E2E, "--target", "e2e_bench", "-j", jobs])


def strong_text(path):
    """Demangled names of the strong (type T) text symbols in `path`."""
    out = subprocess.run(["nm", "--defined-only", "-C", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if m and m.group(1) == "T":
            names.add(m.group(2))
    return names


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(directory):
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if is_elf_executable(os.path.join(directory, name)))


def library_archives():
    archives = []
    for dirpath, _, files in os.walk(BUILD):
        archives += [os.path.join(dirpath, f) for f in files
                     if f.startswith("libnp_") and f.endswith(".a")]
    return sorted(archives)


def main():
    build()
    library = set()
    for archive in library_archives():
        library |= strong_text(archive)
    shipped = [exe for d in SHIPPED_DIRS
               for exe in executables(os.path.join(BUILD, d))]
    shipped.append(os.path.join(BUILD_E2E, "e2e_bench"))
    tests = executables(os.path.join(BUILD, TEST_DIR))
    shipped_kept = set().union(*(strong_text(exe) for exe in shipped))
    test_kept = set().union(*(strong_text(exe) for exe in tests))

    with open(ALLOWLIST) as f:
        allowed, errors = parse_allowlist(f.read())
    census = classify(library, shipped_kept, test_kept, allowed)
    print(f"binaries: {len(shipped)} shipped, {len(tests)} tests")
    print(report(census))
    for error in errors:
        print(error)
    if errors or not census.ok:
        print("reach census FAILED: give each function above a shipped "
              "user, delete it, or allowlist it with a reason",
              file=sys.stderr)
        return 1
    print("reach census ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
