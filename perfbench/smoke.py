"""Smoke tests for the benchmark itself (not part of the pytest suite).

    python3 perfbench/smoke.py

Runs a tiny-seed pass of every workload and checks the result line, checks
that one seed gives byte-identical inputs in two processes, that a
deliberately wrong expected answer makes the run exit 1, that the traced run
reports every per-layer metric of BENCHMARK.json, that verdicts stay correct
over several passes with set-up samples between them, and that the benchmark
fails without printing a result when germkit's sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def smoke(workload, seed, *extra, seconds=1):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--smoke", *extra)


def passes(lines):
    """The pass count from the first line of the printed table."""
    return int(lines[0].split(": ")[1].split()[0])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        code, lines = smoke(name, 3)
        result = json.loads(lines[-1])
        expect(code == 0 and result["correct"] and result["failed"] == 0,
               f"{name}: tiny pass exits 0 with correct verdicts")
        expect(sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"]),
               f"{name}: reports every end-to-end metric")
        expect(any(" frontier " in line for line in lines), f"{name}: lists its frontier rung")
        _, again = smoke(name, 3)
        expect(lines[0].split("sha256")[-1] == again[0].split("sha256")[-1],
               f"{name}: one seed gives byte-identical inputs in two processes")
        code, lines = smoke(name, 3, "--inject-wrong")
        expect(code == 1 and not json.loads(lines[-1])["correct"],
               f"{name}: a wrong expected answer exits 1")

    # later passes and repeat rounds must see the same germkit objects as the
    # first, while set-up samples are taken between them
    code, lines = smoke("semigroup-kernel", 3, seconds=8)
    expect(code == 0 and json.loads(lines[-1])["correct"] and passes(lines) >= 2,
           "semigroup-kernel: several passes with set-ups between them stay correct")

    code, lines = smoke(spec["workloads"][-1]["name"], 3, "--trace", "1")
    result = json.loads(lines[-1])
    expect(code == 0 and sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"]),
           "traced run reports every per-layer metric")

    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without germkit's sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
