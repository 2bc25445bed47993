#!/usr/bin/env python3
"""Symbolize and summarize a pcsample profile (see tools/pcsample.cpp).

    python3 tools/pcsample_report.py prof.txt

Every sampled PC is mapped to (object file, file offset) through the copy of
/proc/self/maps at the end of the profile, turned into the object's link-time
address via its PT_LOAD segments, and symbolized with
`addr2line -a -f -C -i`. Three tables of the top 25 rows follow:

  objects    share of samples per mapped file (the binary, libc, libstdc++...)
  self       share per innermost function: the code that was running
  inclusive  share per function anywhere in the PC's inline chain, i.e. the
             function plus everything the compiler inlined into it. No stack
             is sampled, so real (non-inlined) calls are not followed: a
             callee's time is not in its caller's inclusive share.

Stripped libraries still get names from their dynamic symbols; libc's
`__sched_yield` is where the sharded engine's barrier waits. A library
function that is not exported (libc's memcpy/memset variants) is reported
under the nearest exported name before it, e.g. `__nss_database_lookup`.
Binaries built without -g (Release) only name functions that survived
inlining.
"""
import argparse
import bisect
import collections
import struct
import subprocess
import sys

TOP = 25  # rows per table


def read_profile(path):
    pcs, maps, in_maps = [], [], False
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line == "# maps":
                in_maps = True
            elif in_maps:
                maps.append(line)
            elif line and not line.startswith("#"):
                pcs.append(int(line, 0))
    return pcs, parse_maps(maps)


def parse_maps(lines):
    """[(start, end, file_offset, path)] sorted by start."""
    out = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 5:
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        path = parts[5].strip() if len(parts) > 5 else "[anon]"
        out.append((start, end, int(parts[2], 16), path))
    out.sort()
    return out


def load_segments(path):
    """PT_LOAD (file offset, vaddr, file size) of a 64-bit little-endian ELF."""
    try:
        with open(path, "rb") as f:
            hdr = f.read(64)
            if hdr[:4] != b"\x7fELF" or hdr[4] != 2 or hdr[5] != 1:
                return []
            phoff, = struct.unpack_from("<Q", hdr, 32)
            phentsize, phnum = struct.unpack_from("<HH", hdr, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def link_address(segs, file_off):
    for off, vaddr, size in segs:
        if off <= file_off < off + size:
            return vaddr + file_off - off
    return file_off


def symbolize(obj, addrs):
    """{addr: [innermost function, ..., outermost]} via one addr2line run."""
    cmd = ["addr2line", "-a", "-f", "-C", "-i", "-e", obj]
    try:
        res = subprocess.run(cmd, input="".join(f"{a:#x}\n" for a in addrs),
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {}
    # Output per address: the echoed address, then one (function, file:line)
    # line pair per inline frame, innermost first.
    frames, cur, want_fn = {}, None, False
    for line in res.stdout.splitlines():
        if line.startswith("0x"):
            cur, want_fn = int(line, 16), True
            frames[cur] = []
        elif want_fn:
            frames[cur].append(line)
            want_fn = False
        else:
            want_fn = True  # the file:line line; a function name follows
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    args = ap.parse_args()

    pcs, maps = read_profile(args.profile)
    if not pcs:
        sys.exit(f"{args.profile}: no samples")
    starts = [m[0] for m in maps]

    # PC -> (object, link-time address); group addresses per object.
    where = {}
    per_obj = collections.defaultdict(set)
    segs = {}
    for pc in set(pcs):
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            where[pc] = ("[unmapped]", None)
            continue
        start, _, off, path = maps[i]
        if not path.startswith("/"):
            where[pc] = (path, None)
            continue
        if path not in segs:
            segs[path] = load_segments(path)
        addr = link_address(segs[path], pc - start + off)
        where[pc] = (path, addr)
        per_obj[path].add(addr)

    names = {obj: symbolize(obj, sorted(addrs))
             for obj, addrs in per_obj.items()}

    objects = collections.Counter()
    self_ = collections.Counter()
    incl = collections.Counter()
    for pc in pcs:
        obj, addr = where[pc]
        objects[obj] += 1
        chain = names.get(obj, {}).get(addr) or []
        chain = [fn for fn in chain if fn != "??"]
        short = obj.rsplit("/", 1)[-1]
        if not chain:
            chain = [f"?? [{short}]"]
        self_[chain[0]] += 1
        for fn in dict.fromkeys(chain):  # each function once per sample
            incl[fn] += 1

    n = len(pcs)
    print(f"pcsample: {n} samples from {args.profile}")
    for title, counter in (("objects", objects), ("self", self_),
                           ("inclusive (inline chain)", incl)):
        print(f"\n{title}:")
        print(f"  {'share':>6}  {'samples':>7}  name")
        for name, c in counter.most_common(TOP):
            print(f"  {100.0 * c / n:5.1f}%  {c:7d}  {name}")


if __name__ == "__main__":
    main()
