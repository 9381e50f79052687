#!/usr/bin/env python3
"""Builds the tap benchmark, then runs it.

    python3 tapbench/run.py --workload NAME|all --seed S [--seconds N]
                            [--trace 0|1] [--spans FILE] [--out FILE]
    python3 tapbench/run.py gate --benchmark BENCHMARK.json BASE CANDIDATE

Run from the repository root. Untraced runs use the `tapbench` binary;
traced runs use `tapbench-alloc`, which also counts allocations, and write
their spans next to the binaries unless --spans names a file. The build
honours CARGO_TARGET_DIR. See tapbench/BENCHMARK.md.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TUNABLES = "glibc.malloc.mmap_threshold=4194304:glibc.malloc.trim_threshold=1073741824"


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def main():
    # On SIGTERM, unwind so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = sys.argv[1:]
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    release = os.path.join(target, "release")
    traced = flag(args, "--trace") == "1"
    if traced and flag(args, "--spans") is None:
        name = "spans-{}-{}.jsonl".format(flag(args, "--workload"), flag(args, "--seed"))
        args += ["--spans", os.path.join(release, name)]
    binary = os.path.join(release, "tapbench-alloc" if traced else "tapbench")
    # Keep glibc from handing freed chunk buffers back to the kernel: with
    # its default trim heuristics, how often the pipeline's 512 KB buffers
    # fault back in depends on thread timing, which moved closed-loop
    # throughput by +-20 % from one repetition to the next.
    env = dict(os.environ, GLIBC_TUNABLES=TUNABLES)
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
