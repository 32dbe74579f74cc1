#!/usr/bin/env python3
"""Print every metric of one workload by name and unit: the end-to-end
metrics of an untraced run, then the per-layer metrics, top-10 cells and
sanity notes of a traced run.

    python3 studybench/report.py --workload study-seq [--seed 0] [--seconds 40]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="0")
    ap.add_argument("--seconds", default="40")
    a, rest = ap.parse_known_args()
    ok = True
    for trace, title in (("0", "end-to-end (untraced)"), ("1", "per-layer (traced)")):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", a.seed, "--seconds", a.seconds, "--trace", trace] + rest,
            stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            sys.exit(p.returncode)
        lines = p.stdout.rstrip("\n").split("\n")
        r = json.loads(lines[-1])
        ok = ok and r["correct"]
        print("== %s: %s, correct=%s, cells attempted=%d failed=%d"
              % (a.workload, title, r["correct"], r["attempted"], r["failed"]))
        for line in lines[:-1]:
            print(line)
        for name, m in r["metrics"].items():
            print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
