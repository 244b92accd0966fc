#!/usr/bin/env python3
"""Turn a sampler.c profile into a per-function table.

  python3 scripts/profile/symbolize.py PROFILE [--top N] [--by symbol]

PROFILE is what sampler.c writes at exit: the process's mappings
(/proc/self/maps) and each sampled program counter with its count.  Each
PC is mapped to the object file it ran in and to that file's ELF virtual
address, then named:

  * an object with a symbol table (the executable: the build keeps its
    .symtab) goes through `addr2line -i -f -C -a`, so code inlined into a
    function is charged to the inlined function (`--by function`, the
    default) or to the function it was inlined into (`--by symbol`);
  * a stripped object (libc, libstdc++) is split into functions by its
    .eh_frame FDE ranges and each range is named by the dynamic symbol
    that starts inside it, else `file@0xSTART`.

PCs outside every executable mapping read `[unknown]`.  The table prints
samples, percent of all samples, the function and its object's base name.
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Mapping:
    start: int
    end: int
    perms: str
    offset: int
    path: str


@dataclass
class Profile:
    hz: int
    samples: int
    dropped: int
    maps: list
    pcs: dict  # pc -> count


def parse_profile(text):
    """Parses sampler.c's output format."""
    hz = samples = dropped = 0
    maps = []
    pcs = {}
    section = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line in ("maps", "pcs"):
            section = line
            continue
        if section is None:
            key, value = line.split()
            if key == "hz":
                hz = int(value)
            elif key == "samples":
                samples = int(value)
            elif key == "dropped":
                dropped = int(value)
        elif section == "maps":
            mapping = parse_maps_line(line)
            if mapping is not None:
                maps.append(mapping)
        else:
            pc, count = line.split()
            pcs[int(pc, 16)] = pcs.get(int(pc, 16), 0) + int(count)
    maps.sort(key=lambda m: m.start)
    return Profile(hz, samples, dropped, maps, pcs)


def parse_maps_line(line):
    """One /proc/<pid>/maps line; None for a line it cannot read."""
    fields = line.split(None, 5)
    if len(fields) < 5:
        return None
    lo, hi = fields[0].split("-")
    path = fields[5].strip() if len(fields) == 6 else ""
    return Mapping(int(lo, 16), int(hi, 16), fields[1], int(fields[2], 16),
                   path)


def find_mapping(maps, pc):
    """The executable mapping holding pc, or None.  maps is sorted."""
    starts = [m.start for m in maps]
    i = bisect.bisect_right(starts, pc) - 1
    if i >= 0 and maps[i].start <= pc < maps[i].end and "x" in maps[i].perms:
        return maps[i]
    return None


def parse_load_segments(readelf_l):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD in `readelf -lW`."""
    segments = []
    for line in readelf_l.splitlines():
        fields = line.split()
        if fields and fields[0] == "LOAD":
            segments.append((int(fields[1], 16), int(fields[2], 16),
                             int(fields[4], 16)))
    return segments


def file_offset_to_vaddr(segments, offset):
    for p_offset, p_vaddr, p_filesz in segments:
        if p_offset <= offset < p_offset + p_filesz:
            return offset - p_offset + p_vaddr
    return None


def parse_fde_ranges(frames_dump):
    """Sorted, de-duplicated [lo, hi) ranges of the FDEs in
    `readelf --debug-dump=frames`."""
    ranges = set()
    for m in re.finditer(r"FDE cie=\w+ pc=([0-9a-f]+)\.\.([0-9a-f]+)",
                         frames_dump):
        lo, hi = int(m.group(1), 16), int(m.group(2), 16)
        if hi > lo:
            ranges.add((lo, hi))
    return sorted(ranges)


def parse_dynamic_functions(dyn_syms):
    """Sorted (value, name) of the defined FUNC/IFUNC symbols in
    `readelf --dyn-syms -W`."""
    functions = set()
    for line in dyn_syms.splitlines():
        fields = line.split()
        if len(fields) < 8 or fields[3] not in ("FUNC", "IFUNC"):
            continue
        if fields[6] == "UND":
            continue
        name = fields[7].split("@")[0]
        functions.add((int(fields[1], 16), name))
    return sorted(functions)


def name_by_fde(ranges, functions, vaddr, label):
    """The function of a stripped object holding vaddr: its FDE range,
    named by the first dynamic symbol at or after the range's start and at
    or before vaddr, else `label@0xSTART`."""
    i = bisect.bisect_right(ranges, (vaddr, float("inf"))) - 1
    if i < 0 or not ranges[i][0] <= vaddr < ranges[i][1]:
        return f"[{label}+{vaddr:#x}]"
    lo = ranges[i][0]
    j = bisect.bisect_left(functions, (lo, ""))
    if j < len(functions) and functions[j][0] <= vaddr:
        return functions[j][1]
    return f"{label}@{lo:#x}"


def parse_addr2line(output):
    """addr2line -a -f -i output -> {address: [frames, innermost first]}."""
    frames = {}
    current = None
    lines = output.splitlines()
    k = 0
    while k < len(lines):
        line = lines[k]
        if line.startswith("0x"):
            current = int(line, 16)
            frames[current] = []
            k += 1
            continue
        if current is not None:
            frames[current].append(line)
        k += 2  # function name, then file:line
    return frames


def run(args, stdin=None):
    return subprocess.run(args, input=stdin, capture_output=True, text=True,
                          check=True).stdout


def has_symtab(path):
    return ".symtab" in run(["readelf", "-SW", path])


def demangle(names):
    if not names:
        return {}
    out = run(["c++filt"], "\n".join(names) + "\n").splitlines()
    return dict(zip(names, out))


def symbolize_object(path, vaddrs, by):
    """{vaddr: function name} for one object file."""
    label = os.path.basename(path)
    if has_symtab(path):
        query = "".join(f"{v:#x}\n" for v in vaddrs)
        frames = parse_addr2line(
            run(["addr2line", "-a", "-f", "-i", "-C", "-e", path], query))
        names = {}
        for v in vaddrs:
            chain = frames.get(v) or ["??"]
            names[v] = chain[0] if by == "function" else chain[-1]
        return names
    ranges = parse_fde_ranges(run(["readelf", "--debug-dump=frames", path]))
    functions = parse_dynamic_functions(run(["readelf", "--dyn-syms", "-W",
                                             path]))
    raw = {v: name_by_fde(ranges, functions, v, label) for v in vaddrs}
    pretty = demangle(sorted(set(raw.values())))
    return {v: pretty.get(name, name) for v, name in raw.items()}


def symbolize(profile, by="function"):
    """Counter of (function, object base name) -> samples."""
    table = collections.Counter()
    segments = {}  # path -> its PT_LOAD segments
    per_object = collections.defaultdict(collections.Counter)  # vaddrs
    for pc, count in profile.pcs.items():
        mapping = find_mapping(profile.maps, pc)
        if mapping is None or not mapping.path.startswith("/"):
            table[("[unknown]", mapping.path if mapping else "")] += count
            continue
        if mapping.path not in segments:
            segments[mapping.path] = parse_load_segments(
                run(["readelf", "-lW", mapping.path]))
        vaddr = file_offset_to_vaddr(segments[mapping.path],
                                     pc - mapping.start + mapping.offset)
        if vaddr is None:
            table[("[unknown]", os.path.basename(mapping.path))] += count
            continue
        per_object[mapping.path][vaddr] += count
    for path, counts in per_object.items():
        names = symbolize_object(path, sorted(counts), by)
        for vaddr, count in counts.items():
            table[(names[vaddr], os.path.basename(path))] += count
    return table


def report(table, total, top):
    lines = [f"{'samples':>8} {'pct':>6}  function  [object]"]
    for (name, obj), count in table.most_common(top):
        pct = 100.0 * count / total if total else 0.0
        lines.append(f"{count:>8} {pct:>5.1f}%  {name}  [{obj}]")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--by", choices=("function", "symbol"),
                        default="function")
    args = parser.parse_args(argv)
    with open(args.profile) as f:
        profile = parse_profile(f.read())
    table = symbolize(profile, args.by)
    total = sum(table.values())
    print(f"# {total} samples at {profile.hz} Hz"
          f" ({profile.dropped} dropped past the buffer)")
    print(report(table, total, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
