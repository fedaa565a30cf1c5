#!/usr/bin/env python3
r"""Build hetflow's repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the hetflow libraries from src/ plus the
benchmark binary, Release) into .bench_build/perfbench/; later calls only
let CMake confirm the build is up to date. Build output goes to stderr.

Standard output carries a line with the source revision, the binary's
header line (workload, seed, host fingerprint) and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is the
binary's: 0 when every simulated output passed its check, 1 when one did
not, 2 on bad arguments; 3 when the build or the run itself failed.

Workloads, metrics and the traced run are described in perfbench/README.md.
"""

import ctypes
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hetflow_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("hetflow sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "hetflow_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited with {done.returncode}")


def fixed_layout():
    """Runs in the child before exec: turns off address-space randomisation.

    glibc places a 2 MiB-aligned chunk (hetflow's huge-page pools) either in
    the heap or in its own mmap, depending on where the randomised heap base
    falls; the mmap case counts 2 MiB of alignment slack, so heap_mb would
    move by 2 MiB between runs of one seed. A fixed layout makes it exact.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def revision():
    # The checkout need not be a git repository; stop git from searching
    # directories above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    described = done.stdout.strip()
    return described if done.returncode == 0 and described else "unknown"


def main():
    # A SIGTERM must unwind through subprocess.run so it kills and reaps
    # the child instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    build()
    print(json.dumps({"git_describe": revision()}), flush=True)
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False,
                              preexec_fn=fixed_layout)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"benchmark run failed: {error}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
