"""Run one piece of the benchmark in a fresh process.  Usage: child.py SPEC.json

Two kinds of spec: a frontier rung ("cli", "symmetric"), run under resource
limits that the parent sets on this process before exec; and a set-up sample
("setup"), which imports germkit and generates the inputs in a process of
its own, so the process that runs the passes never imports germkit twice.

Prints one JSON line {"result": ..., "elapsed_s": ...} and exits 0 when the
piece ends, or exits with OOM_EXIT when Python runs out of memory.
Exceeding the CPU limit kills the process with SIGXCPU.
"""

import contextlib
import io
import json
import os
import sys
import time

OOM_EXIT = 3


def run(spec):
    op = spec["op"]
    if op == "setup":
        import run as bench

        _, rungs, times = bench.setup(spec["workload"], spec["seed"], spec["workdir"], spec["smoke"])
        return {"times": times, "fingerprint": bench.fingerprint(rungs, spec["workdir"])}
    if op == "cli":
        from germkit import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(spec["argv"])
        return [code, out.getvalue()]
    if op == "symmetric":
        from germkit import invsemi

        try:
            S, _ = invsemi.symmetric_inverse_semigroup(spec["n"], max_elements=spec["max_elements"])
        except ValueError as err:  # a germkit error where a verdict is expected
            return {"raised": f"{type(err).__name__}: {err}"}
        return {"size": len(S)}
    raise SystemExit(f"unknown op {op!r}")


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    with open(argv[1]) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    try:
        result = run(spec)
    except MemoryError:
        return OOM_EXIT
    print(json.dumps({"result": result, "elapsed_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
