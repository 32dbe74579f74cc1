#!/usr/bin/env python3
"""Smoke test of the study-level benchmark, on the CS suite at a tiny limit.

    python3 studybench/smoke.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, untraced (end-to-end metrics) and traced (per-layer metrics);
and that the verdict check works: a reference written by one run passes
the next, and the same reference with one corrupted cell fails it.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--suite", "CS", "--limit", "20", "--seconds", "1", "--seed", "0"]


def bench(*args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                       stdin=subprocess.DEVNULL, capture_output=True, text=True,
                       timeout=600)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        sys.exit("smoke: run.py %s exited with %d" % (" ".join(args), p.returncode))
    return json.loads(p.stdout.rstrip("\n").split("\n")[-1])


def check(cond, msg):
    if not cond:
        sys.exit("smoke: FAILED: " + msg)
    print("smoke: ok: " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            r = bench("--workload", w["name"], "--trace", trace, *TINY)
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s trace %s is correct" % (w["name"], trace))
            for m in spec[kind]:
                got = r["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      "%s trace %s emits %s in %s" % (w["name"], trace, m["name"], m["unit"]))
    ref = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "studybench", "smoke-reference.json")
    for w in ("study-seq", "por"):
        bench("--workload", w, "--trace", "0", "--write-reference", ref, *TINY)
        r = bench("--workload", w, "--trace", "0", "--reference", ref, *TINY)
        check(r["correct"] and r["failed"] == 0, "%s matches its own reference" % w)
        with open(ref) as f:
            good = json.load(f)
        bad = dict(good, cells=[dict(good["cells"][0], total=good["cells"][0]["total"] + 1)]
                   + good["cells"][1:])
        with open(ref, "w") as f:
            json.dump(bad, f)
        r = bench("--workload", w, "--trace", "1", "--reference", ref, *TINY)
        check(not r["correct"] and r["failed"] > 0
              and r["metrics"]["failed_cells"]["value"] > 0,
              "%s fails a corrupted reference cell" % w)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
