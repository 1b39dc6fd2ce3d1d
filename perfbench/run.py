"""germkit benchmark: seeded ladders of inputs sent through germkit's API and
its CLI, timed end to end, with a separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; germkit is imported from its src/.  The
last line of stdout is the JSON result; the lines before it are a
human-readable table.  Exits 1 when any verdict contradicts the known
answer, 2 when germkit cannot be imported.  See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("rings", "invsemi", "paction", "germs", "algebra", "graph", "orbit",
           "catalog", "acceptance", "cli")
SETUP_SAMPLES = 5
ROUND_SHARE_S = 0.1
OUT_DIR = os.path.join(HERE, "_out")
CHILD = os.path.join(HERE, "child.py")

END_TO_END_UNITS = {
    "setup_s": "s", "sweep_s": "s", "verdict_s.p50": "s", "verdict_s.p90": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
}


# --- set-up ----------------------------------------------------------------------


def import_germkit():
    """Import every germkit module from the checkout's src/.  Each set-up
    runs in a process that has not imported germkit yet, so import time and
    empty catalog caches are part of every set-up sample."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("germkit")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"germkit imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"germkit.{m}") for m in MODULES})


def warm_catalog(gk):
    c = gk.catalog
    for name in c.SEMIGROUP_NAMES:
        c.semigroup(name)
    for name in c.ACTION_NAMES:
        c.action(name)
    for name in c.GRAPH_NAMES:
        c.graphs(name)
    for name in c.GROUPOID_NAMES:
        c.groupoid(name)


def fingerprint(rungs, workdir):
    """Digest of the generated inputs: rung names and sizes, and every
    document written to the work directory."""
    h = hashlib.sha256(json.dumps([(r.name, r.sizes) for r in rungs]).encode())
    for r in rungs:
        if isinstance(r.inputs, gen.Action):
            h.update(gen.dumps(gen.action_doc(r.inputs)).encode())
        elif isinstance(r.inputs, gen.Table):
            h.update(gen.dumps(gen.semigroup_doc(r.inputs)).encode())
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode())
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def setup(workload, seed, workdir, smoke):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = time.perf_counter()
    gk = import_germkit()
    t1 = time.perf_counter()
    warm_catalog(gk)
    t2 = time.perf_counter()
    rungs = workloads.WORKLOADS[workload](gk, seed, workdir, smoke)
    t3 = time.perf_counter()
    return gk, rungs, {"setup_s": t3 - t0, "import_s": t1 - t0, "catalog_s": t2 - t1,
                       "generate_s": t3 - t2}


def write_spec(workdir, name, spec):
    path = os.path.join(workdir, "spec-" + hashlib.sha1(name.encode()).hexdigest()[:12] + ".json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def setup_in_child(args, workdir):
    """One more set-up sample, taken in a fresh process (so the modules the
    rungs hold are never replaced, and this process's peak memory covers
    only its own set-up and passes) into a directory the rungs do not read.
    Returns (set-up times, input digest)."""
    spec = write_spec(workdir, "setup", {"op": "setup", "workload": args.workload, "seed": args.seed,
                                         "workdir": workdir + "-setup", "smoke": args.smoke})
    proc = subprocess.run([sys.executable, CHILD, spec], capture_output=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode()[-2000:])
        raise RuntimeError(f"set-up in a child process exited {proc.returncode}")
    res = json.loads(proc.stdout.decode().splitlines()[-1])["result"]
    return res["times"], res["fingerprint"]


# --- executing rungs ---------------------------------------------------------------


def run_child(rung, workdir):
    """(status, outcome, seconds) for a frontier rung run under its limits."""
    spec = write_spec(workdir, rung.name, rung.child)
    mem = workloads.FRONTIER_MEM_MB * 2 ** 20

    def limits():
        resource.setrlimit(resource.RLIMIT_CPU, (rung.cpu_s, rung.cpu_s + 1))
        resource.setrlimit(resource.RLIMIT_AS, (mem, mem))

    proc = subprocess.Popen([sys.executable, CHILD, spec],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=limits, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=2 * rung.cpu_s + 30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "timeout", None, math.inf
    rc = proc.returncode
    if rc == 0:
        res = json.loads(out.decode().splitlines()[-1])
        outcome = res["result"]
        status = rung.undecided(outcome) if rung.undecided else None
        if status:
            return status, outcome, math.inf
        return "decided", outcome, res["elapsed_s"]
    if rc == -signal.SIGXCPU or rc == -signal.SIGKILL:
        return "timeout", None, math.inf
    if rc == 3 or b"MemoryError" in err:
        return "oom", None, math.inf
    sys.stderr.write(err.decode()[-2000:])
    return "error", f"child exited {rc}", math.inf


def execute(rung, tr, workdir):
    if rung.child is not None:
        return run_child(rung, workdir)
    t0 = time.perf_counter()
    try:
        out, status = rung.run(tr), "decided"
    except ValueError as err:
        out, status = workloads.Raised(err), "decided"
    except Exception as err:  # an errored rung is recorded, the pass goes on
        traceback.print_exc(file=sys.stderr)
        out, status = err, "error"
    return status, out, time.perf_counter() - t0


def repeat_rounds(rungs, best, deadline, between, pc):
    """Run the decided in-process rungs again, round after round until the
    deadline; returns (rung index, seconds, end time) of each execution.  A
    rung runs in every k-th round, k its fastest time so far (in `best`,
    updated) over ROUND_SHARE_S, so cheap rungs get several executions
    spread over the run and costly ones as many as the time allows.
    `between` runs after each round; the reference is sampled between
    executions."""
    null = spans.NullTracer()
    again = [i for i, rung in enumerate(rungs) if rung.child is None and best[i] < math.inf]
    timed = []
    r = 0
    while again and time.perf_counter() + min(best[i] for i in again) < deadline:
        r += 1
        for i in again:
            if r % max(1, round(best[i] / ROUND_SHARE_S)) or time.perf_counter() + best[i] > deadline:
                continue
            t0 = time.perf_counter()
            rungs[i].run(null)
            t1 = time.perf_counter()
            best[i] = min(best[i], t1 - t0)
            timed.append((i, t1 - t0, t1))
            pc.sample()
        between()
    return timed


def run_pass(rungs, tr, workdir, stdout_seen, traced=False, pc=None):
    """One pass over the ladder.  Returns (sweep seconds, wall seconds, rung
    records).  In a traced pass the stage-by-stage calls, and in an untraced
    one the reference samples `pc` takes between rungs, are left out of the
    sweep."""
    records = []
    stage_time = 0.0
    t0 = time.perf_counter()
    for i, rung in enumerate(rungs):
        tr.rung = i
        start = time.perf_counter()
        status, out, dt = execute(rung, tr, workdir)
        end = time.perf_counter()
        wrong = note = None
        if status == "decided":
            try:
                raised = out if isinstance(out, workloads.Raised) else (
                    isinstance(out, dict) and out.get("raised"))
                wrong = f"unexpected error {raised}" if raised else rung.check(out)
            except Exception as err:  # a verdict the check cannot read is wrong
                wrong = f"check raised {type(err).__name__}: {err}"
            if rung.cli and wrong is None:
                seen = stdout_seen.setdefault(rung.name, out[1])
                if seen != out[1]:
                    status, note = "error", "stdout differs between passes"
        if wrong is not None:
            print(f"WRONG VERDICT {rung.name}: {wrong}", file=sys.stderr)
        if traced:
            for name, value in rung.counts.items():
                tr.count(name, value)
            if rung.stages is not None and status == "decided":
                s0 = time.perf_counter()
                try:
                    tr.call("stages", rung.stages, tr)
                except Exception:  # stages are diagnostics; report and go on
                    traceback.print_exc(file=sys.stderr)
                stage_time += time.perf_counter() - s0
        records.append({"rung": rung.name, "status": status, "seconds": dt, "wall": end - start, "end": end,
                        "wrong": wrong, "note": note, **rung.sizes})
        if pc is not None:
            stage_time += pc.sample()
    wall = time.perf_counter() - t0
    return wall - stage_time, wall, records


# --- metrics ----------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile; undecided rungs are +inf, slower than all."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rung_times(rungs, records, timed=(), scale=lambda end: 1.0):
    """Each rung's execution times in the passes and in `timed`, each scaled
    by `scale(end time)`; None for a rung that some pass did not decide with
    the expected verdict."""
    by_rung = [records[i::len(rungs)] for i in range(len(rungs))]
    times = [[r["seconds"] * scale(r["end"]) for r in rs]
             if all(r["status"] == "decided" and not r["wrong"] for r in rs) else None
             for rs in by_rung]
    for i, dt, end in timed:
        times[i].append(dt * scale(end))
    return times


def end_to_end(rungs, setups, records, timed, pc):
    """The end-to-end metrics, and each rung's verdict time.  Every time is
    scaled to the machine's pace around the moment it ended (see pace.py).
    A rung's verdict time is the median of its scaled executions, +inf if
    undecided; a pass takes the sum of its rungs' scaled wall times, and
    sweep_s is the median pass."""
    undecided = sum(1 for r in records if r["status"] != "decided")
    verdicts = [statistics.median(t) if t else math.inf
                for t in rung_times(rungs, records, timed, pc.scale_at)]
    executions = len(records) + len(timed)
    n = len(rungs)
    sweeps = [sum(r["wall"] * pc.scale_at(r["end"]) for r in records[k:k + n])
              for k in range(0, len(records), n)]
    values = {
        "setup_s": (statistics.median(s["setup_s"] * pc.scale_at(s["end"]) for s in setups), len(setups)),
        "sweep_s": (statistics.median(sweeps), len(sweeps)),
        "verdict_s.p50": (percentile(verdicts, 0.5), executions),
        "verdict_s.p90": (percentile(verdicts, 0.9), executions),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "failed_frac": (undecided / len(records), len(records)),
    }
    return verdicts, {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n} for k, (v, n) in values.items()}


PER_LAYER_SPANS = {
    "algebra.cp_build_s": ("algebra.cp_build",),
    "invsemi.validate_s": ("invsemi.validate", "cli.build_semigroup"),
    "invsemi.build_s": ("invsemi.build",),
    "invsemi.order_s": ("invsemi.order",),
    "invsemi.actions_s": ("invsemi.actions",),
    "paction.validate_s": ("paction.validate", "cli.build_action"),
    "paction.dynamics_s": ("paction.dynamics",),
    "paction.dual_s": ("paction.dual",),
    "paction.recover_s": ("paction.recover",),
    "paction.factors_s": ("paction.factors",),
    "germs.germ_groupoid_s": ("germs.germ_groupoid",),
    "germs.validate_groupoid_s": ("germs.validate_groupoid",),
    "germs.ample_s": ("germs.ample",),
    "germs.iso_search_s": ("germs.iso_search",),
    "graph.semigroup_s": ("graph.semigroup",),
    "graph.boundary_groupoid_s": ("graph.boundary_groupoid",),
    "graph.analyze_s": ("graph.analyze",),
    "graph.coe_search_s": ("graph.coe_search",),
    "graph.coe_verify_s": ("graph.coe_verify",),
    "graph.leavitt_s": ("graph.leavitt",),
    "orbit.coe_from_iso_s": ("orbit.coe_from_iso",),
    "orbit.verify_s": ("orbit.verify",),
    "cli.main_s": ("cli.main",),
    "cli.parse_s": ("cli.parse",),
    **{f"acceptance.criterion_{k}_s": (f"acceptance.criterion_{k}",) for k in range(1, 11)},
}
PER_LAYER_COUNTS = ("algebra.L_dim", "algebra.N_rank", "rings.rref_ops",
                    "algebra.assoc_triples_built", "invsemi.assoc_triples", "invsemi.elements",
                    "paction.pairs", "germs.arrows", "germs.iso_nodes", "graph.boundary_points",
                    "cli.stdout_bytes")


def min_iso_nodes(gk, G, H, cap=500000):
    """The smallest timeout_nodes for which the search ends without Timeout."""
    def finishes(k):
        try:
            gk.germs.groupoid_iso_search(G, H, timeout_nodes=k)
            return True
        except gk.germs.Timeout:
            return False

    hi = 1
    while not finishes(hi):
        if hi >= cap:
            return cap
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if finishes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def per_layer(tr, catalog_s, traced_sweep, untraced_sweep):
    out = {}
    for name, spans in PER_LAYER_SPANS.items():
        out[name] = (tr.total(*spans), "s")
    verify = tr.by_rung("algebra.verify")
    parts = [tr.by_rung(n) for n in ("germs.germ_groupoid", "paction.dual", "algebra.cp_build")]
    out["algebra.verify_residual_s"] = (
        sum(t - sum(p.get(r, 0.0) for p in parts) for r, t in verify.items()), "s")
    c = tr.counts
    for name in PER_LAYER_COUNTS:
        out[name] = (c.get(name, 0), "count")
    built = c.get("algebra.assoc_triples_built", 0)
    out["algebra.assoc_sampled_ratio"] = (c.get("algebra.assoc_sampled", 0) / built if built else 0.0, "ratio")
    pairs = c.get("germs.pairs", 0)
    out["germs.arrows_per_pair"] = (c.get("germs.arrows", 0) / pairs if pairs else 0.0, "ratio")
    out["catalog.build_s"] = (catalog_s, "s")
    out["trace.sweep_s"] = (traced_sweep, "s")
    out["trace.overhead_frac"] = (traced_sweep / untraced_sweep - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


# --- main -----------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny ladders, for perfbench/smoke.py")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="invert the expected answer of the first rung (must exit 1)")
    return ap.parse_args(argv)


def print_table(args, passes, records, metrics, digest, pc):
    frontier = {r["rung"]: r["status"] for r in records if r["status"] not in ("decided", "error")}
    kind = " untraced, plus one traced" if args.trace else ""
    print(f"workload {args.workload} seed {args.seed}: {passes} passes{kind}, "
          f"{len(records)} rungs attempted, inputs sha256 {digest}")
    if pc is not None:
        scales = [pace.REFERENCE_S / t for t in pc.times]
        print(f"  pace: {len(pc.times)} reference samples; times below are measured ones "
              f"times {min(scales):.3f} to {max(scales):.3f}, median {statistics.median(scales):.3f}")
    for name, status in sorted(frontier.items()):
        print(f"  frontier {name}: {status}")
    print(f"  {'metric':28s} {'value':>14s} {'unit':>6s} {'samples':>8s}")
    for name, m in metrics.items():
        samples = m.get("samples", "")
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:>6s} {samples!s:>8s}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "germkit")):
        print(f"germkit sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-setup", ignore_errors=True)


def measure(args, workdir):
    # each set-up sample is bracketed by reference samples, for its pace
    pc = pace.Pace()
    pc.burst()
    gk, rungs, times = setup(args.workload, args.seed, workdir, args.smoke)
    setups, prints = [dict(times, end=time.perf_counter())], {fingerprint(rungs, workdir)}
    pc.burst()

    def another_setup():
        if len(setups) < SETUP_SAMPLES:
            pc.burst()
            times, digest = setup_in_child(args, workdir)
            setups.append(dict(times, end=time.perf_counter()))
            pc.burst()
            prints.add(digest)
    # objects built during set-up are never freed; keep the collector from
    # walking them during the timed passes
    gc.collect()
    gc.freeze()
    if args.inject_wrong:
        orig = rungs[0].check
        rungs[0].check = lambda out: "deliberately inverted expectation" if orig(out) is None else None

    stdout_seen = {}
    records, sweeps, walls = [], [], []
    null = spans.NullTracer()
    t_start = time.perf_counter()
    # Passes take up to two thirds of --seconds (a ladder with CLI rungs gets
    # at least two, for the determinism check); repeat rounds fill the rest.
    # Set-up samples are taken between passes and rounds.
    min_passes = 1 if args.trace else 2 if any(r.cli for r in rungs) else 1
    while len(sweeps) < min_passes or (
            not args.trace
            and time.perf_counter() - t_start + statistics.median(walls) <= 2 * args.seconds / 3):
        sweep, wall, recs = run_pass(rungs, null, workdir, stdout_seen, pc=None if args.trace else pc)
        sweeps.append(sweep)
        walls.append(wall)
        records += recs
        if not args.trace:
            another_setup()

    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    if args.trace:
        # untraced, traced, untraced: the overhead is taken against the mean
        # of the untraced passes on either side, so warm-up biases neither way
        tr = spans.Tracer()
        traced_sweep, _, recs = run_pass(rungs, tr, workdir, stdout_seen, traced=True)
        records += recs
        sweep, _, recs = run_pass(rungs, null, workdir, stdout_seen)
        sweeps.append(sweep)
        records += recs
        for rung in rungs:
            pair = rung.iso_pair() if rung.iso_pair is not None else None
            if pair is not None:
                tr.count("germs.iso_nodes", min_iso_nodes(gk, *pair))
        tr.dump(os.path.join(OUT_DIR, f"spans-{tag}.json"))
        metrics = per_layer(tr, setups[0]["catalog_s"], traced_sweep, statistics.mean(sweeps))
    else:
        best = [min(t) if t else math.inf for t in rung_times(rungs, records)]
        timed = repeat_rounds(rungs, best, t_start + args.seconds, another_setup, pc)
        while len(setups) < SETUP_SAMPLES:
            another_setup()
        verdicts, metrics = end_to_end(rungs, setups, records, timed, pc)

    deterministic = len(prints) == 1
    if not deterministic:
        print("inputs differ between set-ups of one seed", file=sys.stderr)

    wrong = [r for r in records if r["wrong"]]
    correct = deterministic and not wrong
    failed = sum(1 for r in records if r["status"] == "error")
    with open(os.path.join(OUT_DIR, f"rungs-{tag}.json"), "w") as fh:
        json.dump({"setups": setups, "sweeps": sweeps, "verdicts": None if args.trace else verdicts,
                   "pace": pc and list(zip(pc.ends, pc.times)), "repeats": None if args.trace else timed,
                   "records": records}, fh, indent=1, default=str)
    print_table(args, len(sweeps), records, metrics, prints.pop(), None if args.trace else pc)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
