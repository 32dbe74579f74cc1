#!/usr/bin/env python3
"""Launcher of the study-level benchmark.

Builds studybench/study.exe from source with dune, then runs one workload
and passes its output through; the last line of stdout is the JSON result.

    python3 studybench/run.py --workload study-seq --seed 0 --seconds 40 --trace 0

Other arguments (--limit, --suite, --reference, --write-reference) go to
study.exe unchanged. Builds and run files stay under the build directory
($CARGO_TARGET_DIR, default .bench_build) of the checkout.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = {"study-seq": "study.json", "study-par": "study.json", "por": "por.json"}
SETUP_SPAWNS = 20
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, **kw) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            fail("timed out: " + " ".join(cmd))
        return p.returncode, out, err


def build(bdir):
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _, err = run(
        [dune, "build", "--root", ROOT, "--build-dir", bdir, "--profile",
         "release", "studybench/study.exe"],
        BUILD_TIMEOUT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(err)
        fail("build failed")
    return os.path.join(bdir, "default", "studybench", "study.exe")


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        code, out, _ = run(["git", "-C", ROOT, "rev-parse", "HEAD"], 30,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if code == 0:
            return out.strip()
    h = hashlib.md5()
    for top in ("lib", "studybench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-md5:" + h.hexdigest()


def main(argv):
    args = list(argv)
    if "--workload" not in args:
        fail("--workload is required")
    workload = args[args.index("--workload") + 1]
    if workload not in REFERENCE:
        fail("unknown workload " + workload)
    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "studybench", workload)
    os.makedirs(out_dir, exist_ok=True)
    ref = os.path.join(HERE, "reference", REFERENCE[workload])
    if "--reference" not in args and os.path.exists(ref):
        args += ["--reference", ref]
    base = [exe] + args + ["--out-dir", out_dir, "--commit", revision()]
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.time()
        code, out, err = run(base + ["--setup-only", "--spawned-at", "%.6f" % t0],
                             RUN_TIMEOUT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        if code != 0:
            sys.stderr.write(err)
            fail("set-up failed")
        samples.append(out.strip())
    t0 = time.time()
    code, out, err = run(base + ["--spawned-at", "%.6f" % t0,
                                 "--setup-samples", ",".join(samples)],
                         RUN_TIMEOUT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    sys.stderr.write(err)
    if code != 0:
        fail("study.exe exited with %d" % code, code)
    lines = out.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("study.exe printed no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main(sys.argv[1:])
