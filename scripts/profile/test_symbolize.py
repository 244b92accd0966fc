#!/usr/bin/env python3
"""Unit tests for symbolize.py, over canned tool output and one real run
of the sampler.

  python3 scripts/profile/test_symbolize.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import symbolize  # noqa: E402

PROFILE = """\
# netpart sampler v1
hz 1000
samples 7
dropped 2
maps
555555554000-555555556000 r--p 00000000 08:01 42 /srv/app/prog
555555556000-555555560000 r-xp 00002000 08:01 42 /srv/app/prog
7ffff7d80000-7ffff7f15000 r-xp 00028000 08:01 77 /usr/lib/libc.so.6
7ffff7ff0000-7ffff7ff2000 rw-p 00000000 00:00 0 [heap]
pcs
555555556010 3
555555556010 1
7ffff7d80100 2
7ffff7ff0010 1
"""

READELF_L = """
Program Headers:
  Type           Offset   VirtAddr           PhysAddr           FileSiz  MemSiz   Flg Align
  PHDR           0x000040 0x0000000000000040 0x0000000000000040 0x0002d8 0x0002d8 R   0x8
  LOAD           0x000000 0x0000000000000000 0x0000000000000000 0x000628 0x000628 R   0x1000
  LOAD           0x001000 0x0000000000401000 0x0000000000401000 0x0001f5 0x0001f5 R E 0x1000
"""

FRAMES = """
00000018 0000000000000014 0000001c FDE cie=00000000 pc=0000000000001000..0000000000001040
00000030 0000000000000014 00000034 FDE cie=00000000 pc=0000000000001040..00000000000010a0
00000048 0000000000000014 0000004c FDE cie=00000000 pc=0000000000001000..0000000000001040
00000060 0000000000000010 00000064 FDE cie=00000000 pc=0000000000002000..0000000000002000
"""

DYN_SYMS = """
Symbol table '.dynsym' contains 4 entries:
   Num:    Value          Size Type    Bind   Vis      Ndx Name
     0: 0000000000000000     0 NOTYPE  LOCAL  DEFAULT  UND
     1: 0000000000000000     0 FUNC    GLOBAL DEFAULT  UND abort@GLIBC_2.2.5
     2: 0000000000001000    64 FUNC    GLOBAL DEFAULT   15 random@@GLIBC_2.2.5
     3: 0000000000003000     8 OBJECT  GLOBAL DEFAULT   24 environ@@GLIBC_2.2.5
"""

ADDR2LINE = """\
0x0000000000001139
inner_step
/src/a.c:4
outer_loop
/src/a.c:12
0x0000000000001150
main
/src/a.c:20
"""


class ParseTest(unittest.TestCase):
    def test_profile_sections(self):
        p = symbolize.parse_profile(PROFILE)
        self.assertEqual((p.hz, p.samples, p.dropped), (1000, 7, 2))
        self.assertEqual(len(p.maps), 4)
        self.assertEqual(p.pcs[0x555555556010], 4)  # repeated PCs add up
        self.assertEqual(p.maps[1].path, "/srv/app/prog")
        self.assertEqual(p.maps[3].path, "[heap]")

    def test_find_mapping_needs_an_executable_mapping(self):
        maps = symbolize.parse_profile(PROFILE).maps
        self.assertEqual(symbolize.find_mapping(maps, 0x555555556010).offset,
                         0x2000)
        self.assertIsNone(symbolize.find_mapping(maps, 0x555555554010))
        self.assertIsNone(symbolize.find_mapping(maps, 0x7ffff7ff0010))
        self.assertIsNone(symbolize.find_mapping(maps, 0x10))

    def test_file_offsets_become_load_addresses(self):
        segments = symbolize.parse_load_segments(READELF_L)
        self.assertEqual(segments, [(0, 0, 0x628), (0x1000, 0x401000, 0x1f5)])
        self.assertEqual(symbolize.file_offset_to_vaddr(segments, 0x1010),
                         0x401010)
        self.assertIsNone(symbolize.file_offset_to_vaddr(segments, 0x1200))

    def test_stripped_objects_are_named_by_fde_and_dynamic_symbol(self):
        ranges = symbolize.parse_fde_ranges(FRAMES)
        self.assertEqual(ranges, [(0x1000, 0x1040), (0x1040, 0x10a0)])
        functions = symbolize.parse_dynamic_functions(DYN_SYMS)
        self.assertEqual(functions, [(0x1000, "random")])
        name = symbolize.name_by_fde
        self.assertEqual(name(ranges, functions, 0x1020, "libc.so.6"),
                         "random")
        self.assertEqual(name(ranges, functions, 0x1050, "libc.so.6"),
                         "libc.so.6@0x1040")
        self.assertEqual(name(ranges, functions, 0x5000, "libc.so.6"),
                         "[libc.so.6+0x5000]")

    def test_addr2line_inline_chains(self):
        frames = symbolize.parse_addr2line(ADDR2LINE)
        self.assertEqual(frames[0x1139], ["inner_step", "outer_loop"])
        self.assertEqual(frames[0x1150], ["main"])


PROGRAM = r"""
#include <stdlib.h>
static volatile unsigned long sink;
__attribute__((noinline)) static unsigned long spin(unsigned long n) {
  unsigned long x = 1;
  for (unsigned long i = 0; i < n; ++i) x = x * 6364136223846793005ul + i;
  return x;
}
int main(void) {
  for (int r = 0; r < 20000000; ++r) sink += (unsigned long)rand();
  sink += spin(200000000ul);
  return 0;
}
"""


@unittest.skipUnless(shutil.which("cc") and shutil.which("addr2line"),
                     "needs a C compiler and binutils")
class SamplerRunTest(unittest.TestCase):
    """The sampler on a real process: time in the executable is named by
    addr2line, time in libc by its FDE ranges and dynamic symbols."""

    def test_profile_names_the_hot_functions(self):
        with tempfile.TemporaryDirectory() as tmp:
            lib = os.path.join(tmp, "libnpsampler.so")
            prog = os.path.join(tmp, "prog")
            src = os.path.join(tmp, "prog.c")
            with open(src, "w") as f:
                f.write(PROGRAM)
            subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib,
                            os.path.join(HERE, "sampler.c")], check=True)
            subprocess.run(["cc", "-O1", "-g", "-o", prog, src], check=True)
            env = dict(os.environ, LD_PRELOAD=lib,
                       NETPART_PROF_OUT=os.path.join(tmp, "prof.%p.txt"))
            child = subprocess.run([prog], env=env, check=True)
            self.assertEqual(child.returncode, 0)
            outputs = [n for n in os.listdir(tmp) if n.startswith("prof.")]
            self.assertEqual(len(outputs), 1)  # one process, "%p" expanded
            with open(os.path.join(tmp, outputs[0])) as f:
                profile = symbolize.parse_profile(f.read())
            table = symbolize.symbolize(profile)
        self.assertGreater(profile.samples, 20)
        by_name = {}
        for (name, _), count in table.items():
            by_name[name] = by_name.get(name, 0) + count
        self.assertGreater(by_name.get("spin", 0), profile.samples // 5)
        libc_rand = sum(by_name.get(n, 0)
                        for n in ("rand", "random", "random_r"))
        self.assertGreater(libc_rand, profile.samples // 10)


if __name__ == "__main__":
    unittest.main()
