"""The three workload ladders.

Each workload function takes the freshly imported germkit modules, the seed and a
work directory, generates every input in plain Python (`gen`), and returns
the ladder: a list of `Rung`s in the order one pass runs them.  A rung's
`run` sends its input through germkit and returns the verdict; its `check`
compares the verdict with the answer `gen` computed and returns None or a
description of the contradiction.  `stages`, used only by the traced run,
calls a composite entry point again stage by stage on the same input.

Rungs of one instance may share objects through a per-instance dict: each
rung is timed on its own calls only.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import gen

# Frontier rungs run in a child process under these limits (CPU seconds,
# address space in MiB).  Each is set well away from the rung's measured
# behaviour, so the recorded status does not flip between runs.
FRONTIER_MEM_MB = 512
CP_FRONTIER_CPU_S = 20    # the Z/5 rref ends near 2 s, then the triple list hits 512 MiB
SK_FRONTIER_CPU_S = 1     # tabulating I_5 alone takes several times this
CJ_FRONTIER_CPU_S = 30    # the 20000-node search ends near 3 s
CJ_FRONTIER_NODES = 20000


@dataclass
class Rung:
    name: str
    run: object                 # tracer -> outcome
    check: object               # outcome -> None | str
    sizes: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    stages: object = None       # tracer -> None (traced run only)
    child: dict = None          # frontier spec, run by child.py under limits
    cpu_s: int = 0
    undecided: object = None    # outcome -> status string, for frontier verdicts
    cli: bool = False           # stdout must match across passes
    iso_pair: object = None     # () -> (G, H) searched by this rung, for the node count
    inputs: object = None       # the generated gen.Table or gen.Action, for the input digest


class Raised:
    """A germkit error (they all subclass ValueError) raised where a verdict
    was expected; no rung expects one, so it is always a wrong verdict."""

    def __init__(self, err):
        self.err = err

    def __repr__(self):
        return f"Raised({type(self.err).__name__}: {self.err})"


def first_failure(*conds):
    for ok, msg in conds:
        if not ok:
            return msg
    return None


def sizes(S=None, X=None, L=None, N=None, arrows=None):
    return {"S": S, "X": X, "L": L, "N": N, "arrows": arrows}


def action_from_germkit(theta):
    """Read a germkit PartialAction back into plain data for the oracles."""
    S = theta.semigroup
    T = gen.Table(list(S.elements), [list(r) for r in S.table], list(S.inverse), list(S.idempotents))
    return gen.Action(T, list(theta.carrier), [tuple(d) for d in theta.domains],
                      [dict(m) for m in theta.maps])


def algebra_counts(A, arrows):
    L = A.l_dim()
    n_rank = L - arrows
    return {
        "algebra.L_dim": L,
        "algebra.N_rank": n_rank,
        "rings.rref_ops": gen.n_generators(A) * L * n_rank,
        "germs.arrows": arrows,
        "germs.pairs": L,
    }


class SampleCounter(random.Random):
    """The rng the traced stages hand to crossed_product_build.  It draws what
    the default rng draws and counts what germkit samples: the population
    (the associativity triples it built) and the sample size.  An L small
    enough to be checked whole is never sampled, so it is not counted."""

    def __init__(self, tr):
        super().__init__(0)
        self.tr = tr

    def sample(self, population, k, **kwargs):
        self.tr.count("algebra.assoc_triples_built", len(population))
        self.tr.count("algebra.assoc_sampled", k)
        return super().sample(population, k, **kwargs)


# --- crossed-product ----------------------------------------------------------------

CP_RINGS = ("Q", "Zp:5")


# (kind, n, |S|, |E|, |L|) of the seeded actions of subsemigroups of I_n,
# ascending in |L| up to 42: signatures that every seed's pool of draws
# fills with as many distinct subsemigroups as the list asks for.  n is part
# of the signature because an I_3 and an I_4 instance of one shape differ in
# cost; with it, each slot costs alike for every seed.
CP_SLOTS = (
    ("self", 3, 2, 1, 4), ("self", 4, 2, 1, 4), ("self", 4, 2, 1, 4), ("self", 4, 2, 1, 4),
    ("munn", 4, 4, 1, 4), ("munn", 4, 4, 1, 4), ("munn", 3, 6, 1, 6),
    ("munn", 3, 5, 3, 9), ("munn", 4, 5, 3, 9), ("munn", 4, 5, 3, 9), ("munn", 4, 5, 3, 9),
    ("self", 3, 3, 1, 9), ("self", 4, 3, 1, 9), ("self", 4, 3, 1, 9),
    ("self", 3, 5, 3, 13), ("self", 4, 5, 3, 13), ("self", 4, 5, 3, 13), ("self", 4, 5, 3, 13),
    ("self", 4, 4, 1, 16), ("self", 4, 4, 1, 16), ("munn", 3, 7, 4, 17), ("munn", 3, 7, 4, 17),
    ("munn", 4, 24, 1, 24), ("self", 3, 7, 4, 27), ("self", 3, 7, 4, 27),
    ("munn", 3, 12, 5, 29), ("munn", 3, 12, 5, 29), ("munn", 3, 13, 5, 34),
    ("munn", 3, 14, 6, 35), ("munn", 4, 14, 6, 35), ("munn", 4, 14, 6, 35), ("munn", 4, 14, 6, 35),
    ("munn", 4, 14, 6, 35), ("munn", 4, 14, 6, 35), ("munn", 4, 14, 6, 35),
    ("munn", 4, 14, 6, 35), ("munn", 4, 14, 6, 35), ("self", 3, 6, 1, 36), ("munn", 3, 15, 7, 42),
)
CP_POOL = 1500


def seeded_actions(rng, slots, pool):
    """Munn and self actions of random inverse subsemigroups of I_3 and I_4,
    one per slot signature."""
    limit = max(s[2] for s in slots)

    def draw(rng, wanted):
        n = rng.choice((3, 4))
        shapes = {(s[2], s[3]) for s in wanted if s[1] == n}
        T = gen.random_subsemigroup(rng, n, rng.randint(1, 3), limit, shapes)
        if T is None:
            return []
        kinds = {s[0] for s in wanted if s[1:4] == (n, len(T), len(T.idem))}
        out = []
        for kind in sorted(kinds):
            A = gen.munn(T) if kind == "munn" else gen.self_action(T)
            out.append(((kind, n, len(T), len(T.idem), A.l_dim()), (kind, n, tuple(T.names)), (f"{kind}-I{n}", A)))
        return out

    return [(f"{name}sub{k}", A) for k, (name, A) in enumerate(gen.fill_slots(rng, slots, draw, pool))]


def cp_rung(gk, name, A, ring, arrows, theta=None):
    """verify_steinberg_crossed from raw tables (or a catalog action) to verdict."""
    T = A.semigroup
    L = A.l_dim()
    last = {}

    def run(tr):
        th = theta
        if th is None:
            S = tr.call("invsemi.validate", gk.invsemi.validate_inverse_semigroup, T.names, T.table)
            th = tr.call("paction.validate", gk.paction.validate_partial_action,
                         S, A.carrier, A.domains, A.maps)
        rg = gk.rings.parse_ring_spec(ring)
        last["theta"], last["ring"] = th, rg
        return tr.call("algebra.verify", gk.algebra.verify_steinberg_crossed, th, rg)

    def stages(tr):
        th, rg = last["theta"], last["ring"]
        tr.call("germs.germ_groupoid", gk.germs.groupoid_of_germs, th)
        alg = tr.call("paction.dual", gk.paction.dual_action, th, rg)
        tr.call("algebra.cp_build", gk.algebra.crossed_product_build, alg, rng=SampleCounter(tr))

    counts = algebra_counts(A, arrows)
    if theta is None:
        counts.update({"invsemi.elements": len(T), "invsemi.assoc_triples": len(T) ** 3,
                       "paction.pairs": L})
    return Rung(
        f"{name}/{ring}", run, lambda rep: check_cp(rep, L, arrows),
        sizes(len(T), len(A.carrier), L, L - arrows, arrows), counts, stages, inputs=A,
    )


def check_cp(rep, L, arrows):
    dims = rep["dims"]
    return first_failure(
        (dims["quotient"] == arrows, f"quotient {dims['quotient']} != germ arrows {arrows}"),
        (dims["steinberg"] == arrows, f"Steinberg dimension {dims['steinberg']} != {arrows}"),
        (dims["L"] == L, f"|L| {dims['L']} != {L}"),
        (dims["N"] == L - arrows, f"rank N {dims['N']} != {L - arrows}"),
    )


def crossed_product(gk, seed, workdir, smoke=False):
    rng = random.Random(seed)
    rungs = []
    names = gk.catalog.ACTION_NAMES[:4] if smoke else gk.catalog.ACTION_NAMES
    for name in names:
        theta = gk.catalog.action(name)
        A = action_from_germkit(theta)
        arrows = gen.germ_arrows(A)
        for ring in CP_RINGS:
            rungs.append(cp_rung(gk, f"catalog:{name}", A, ring, arrows, theta))
    seeded = seeded_actions(rng, CP_SLOTS[:3] if smoke else CP_SLOTS, 50 if smoke else CP_POOL)
    for name, A in seeded:
        arrows = gen.germ_arrows(A)
        if name.startswith("munn") and arrows != len(A.semigroup):
            raise AssertionError(f"{name}: Munn germ count {arrows} != |S|")
        for ring in CP_RINGS:
            rungs.append(cp_rung(gk, name, A, ring, arrows))
    I3 = gen.symmetric(3)
    if not smoke:
        munn3 = gen.munn(I3)
        for ring in CP_RINGS:
            rungs.append(cp_rung(gk, "munn-I3", munn3, ring, len(I3)))
    self3 = gen.self_action(I3)
    arrows = gen.self_action_arrows(I3)
    if arrows != gen.germ_arrows(self3):
        raise AssertionError("self-action germ count disagrees with its closed form")
    path = os.path.join(workdir, "cp-frontier-self-I3.json")
    with open(path, "w") as fh:
        fh.write(gen.dumps(gen.action_doc(self3)))
    L = self3.l_dim()

    def check_frontier(out):
        code, text = out
        report = json.loads(text.splitlines()[-1])
        return expect_code(code, 0, report) or check_cp(report, L, arrows)

    rungs.append(Rung(
        "self-I3/Zp:5", None, check_frontier,
        sizes(len(I3), len(self3.carrier), L, L - arrows, arrows),
        algebra_counts(self3, arrows),
        child={"op": "cli", "argv": ["verify", "steinberg-crossed", path, "--ring", "Zp:5"]},
        cpu_s=CP_FRONTIER_CPU_S,
    ))
    return rungs


# --- semigroup-kernel -----------------------------------------------------------------

# (|S|, |E|) of the seeded subsemigroups of I_4, chosen as for CP_SLOTS
SK_SLOTS = ((12, 1), (14, 6), (14, 6), (15, 7), (19, 7), (22, 8), (24, 1), (30, 8), (30, 10), (30, 10))
SK_POOL = 1000
# Questions whose cost grows fastest are asked only up to these sizes, so a
# pass stays within a few seconds of the four costliest checks (validating
# I_4, the weak-semilattice family of I_4, the maximal group image of S(Z_7)
# and recovering the Munn action of I_4 over Q).
SK_MAX_S = 209            # actions, readings, weak semilattice, dynamics, germs, recovery over Z/5
SK_MAX_S_SELF_GERMS = 60  # germs of the self action
SK_MAX_S_AMPLE = 40       # ample semigroup of the Munn germs
SK_MAX_E_RECOVER_Q = 16   # recovery over Q, by carrier size |E|


def sk_instance(gk, label, T, size_expected, build=None):
    """The rungs asked of one semigroup table."""
    n = len(T)
    ctx = {}
    munn = gen.munn(T)
    selfa = gen.self_action(T)
    E = len(T.idem)
    eu = gen.is_e_unitary(T)
    group_size = gen.group_image_size(T)
    lam = gen.lambda_points(munn)
    self_arrows = gen.self_action_arrows(T)
    rungs = []

    def add(q, run, check, sz=None, counts=None, stages=None):
        rungs.append(Rung(f"{label}:{q}", run, check, sz or sizes(n), counts or {}, stages, inputs=T))

    if build is not None:
        kind, k = build

        def run_build(tr):
            if kind == "symmetric":
                return tr.call("invsemi.build", gk.invsemi.symmetric_inverse_semigroup, k)[0]
            Zk = gk.invsemi.validate_inverse_semigroup(
                [str(i) for i in range(k)], [[(i + j) % k for j in range(k)] for i in range(k)])
            return tr.call("invsemi.build", gk.invsemi.exel_semigroup, Zk).semigroup

        def check_build(S):
            if len(S) != size_expected:
                return f"built {len(S)} elements, closed form gives {size_expected}"
            pos = {name: i for i, name in enumerate(T.names)}
            if set(pos) != set(S.elements):
                return "built elements differ from the generated ones"
            for a in range(len(S)):
                for b in range(len(S)):
                    if pos[S.elements[S.table[a][b]]] != T.table[pos[S.elements[a]]][pos[S.elements[b]]]:
                        return f"product {S.elements[a]}*{S.elements[b]} differs"
            return None

        add("build", run_build, check_build)

    def run_validate(tr):
        ctx["S"] = tr.call("invsemi.validate", gk.invsemi.validate_inverse_semigroup, T.names, T.table)
        return ctx["S"]

    add("validate", run_validate, lambda S: first_failure(
        (len(S) == size_expected, f"{len(S)} elements, expected {size_expected}"),
        (list(S.inverse) == T.inv, "inverses differ"),
        (list(S.idempotents) == T.idem, "idempotents differ"),
    ), counts={"invsemi.elements": n, "invsemi.assoc_triples": n ** 3})

    add("max-group-image", lambda tr: tr.call(
        "invsemi.order", gk.invsemi.max_group_image, ctx["S"]),
        lambda gi: first_failure((len(gi.group) == group_size,
                                  f"|G(S)| = {len(gi.group)}, expected {group_size}")))

    if n <= SK_MAX_S:
        def run_munn(tr):
            ctx["munn"] = tr.call("invsemi.actions", gk.invsemi.munn_representation, ctx["S"])
            return ctx["munn"]

        def same_action(theta, A):
            return (list(theta.carrier) == list(A.carrier) and list(theta.domains) == list(A.domains)
                    and [dict(m) for m in theta.maps] == A.maps)

        add("munn", run_munn, lambda th: first_failure(
            (same_action(th, munn), "Munn representation differs from the generated one")),
            sizes(n, E, munn.l_dim()))

        add("munn-validate", lambda tr: tr.call(
            "paction.validate", gk.paction.validate_partial_action,
            ctx["S"], munn.carrier, munn.domains, munn.maps),
            lambda th: first_failure((th == ctx["munn"], "validated Munn data differ")),
            sizes(n, E, munn.l_dim()), {"paction.pairs": munn.l_dim()})

        def run_self(tr):
            ctx["self"] = tr.call("invsemi.actions", gk.invsemi.canonical_self_action, ctx["S"])
            return ctx["self"]

        add("self", run_self, lambda th: first_failure(
            (same_action(th, selfa), "self action differs from the generated one")),
            sizes(n, n, selfa.l_dim()))

        def run_readings(tr):
            a = tr.call("invsemi.order", gk.invsemi.is_e_unitary, ctx["S"])[0]
            b = tr.call("invsemi.order", gk.invsemi.e_unitary_via_compatibility, ctx["S"])[0]
            c = tr.call("paction.factors", gk.paction.action_factors_through_group, ctx["self"])[0]
            return (a, b, c)

        add("e-unitary", run_readings, lambda r: first_failure(
            (r[0] == r[1] == r[2], f"readings disagree: {r}"),
            (r[0] == eu, f"E-unitary {r[0]}, expected {eu}")))

        def check_weak(out):
            flag, family = out
            if not flag or len(family) != n * (n + 1) // 2:
                return "weak-semilattice family has the wrong shape"
            for k, (s, t) in enumerate(sorted(family)):
                if k % 53:
                    continue
                clb = [u for u in range(n) if T.leq(u, s) and T.leq(u, t)]
                top = tuple(u for u in clb if not any(v != u and T.leq(u, v) for v in clb))
                if tuple(family[(s, t)]) != top:
                    return f"maximal common lower bounds of ({s}, {t}) differ"
            return None

        add("weak-semilattice", lambda tr: tr.call(
            "invsemi.order", gk.invsemi.is_weak_semilattice, ctx["S"]), check_weak)

        add("dynamics", lambda tr: tr.call("paction.dynamics", gk.paction.dynamics_report, ctx["munn"]),
            lambda d: first_failure((d.lambda_points == lam, "Lambda differs from the germ-isotropy oracle"),
                (d.consistent, "free, effective and principal disagree"),
                (d.free == (len(lam) == E), "freeness differs")),
            sizes(n, E, munn.l_dim()))

        def run_germs(tr):
            ctx["germ"] = tr.call("germs.germ_groupoid", gk.germs.groupoid_of_germs, ctx["munn"])
            return ctx["germ"]

        def stages_germs(tr):
            G = ctx["germ"].groupoid
            tr.call("germs.validate_groupoid", gk.germs.validate_groupoid,
                    G.arrows, G.units, G.source, G.target, G.inverse, G.compose)

        add("munn-germs", run_germs, lambda g: first_failure(
            (len(g.groupoid.arrows) == n, f"{len(g.groupoid.arrows)} Munn germs, expected |S| = {n}"),
            (len(g.groupoid.units) == E, "unit count differs from |E|")),
            sizes(n, E, munn.l_dim(), None, n), {"germs.arrows": n, "germs.pairs": munn.l_dim()},
            stages_germs)

        def run_rp(tr):
            rp = tr.call("invsemi.build", gk.invsemi.restricted_product_groupoid, ctx["S"])
            iso = tr.call("germs.iso_search", gk.germs.groupoid_iso_search, ctx["germ"].groupoid, rp)
            ctx["iso_pair"] = (ctx["germ"].groupoid, rp)
            return iso is not None and gk.germs.verify_groupoid_iso(iso)

        rungs.append(Rung(f"{label}:munn-germs=restricted-product", run_rp,
                          lambda ok: first_failure((ok is True, "no verified isomorphism")),
                          sizes(n, E, None, None, n), iso_pair=lambda: ctx["iso_pair"]))

        for ring in ("Zp:5", "Q"):
            if ring == "Q" and E > SK_MAX_E_RECOVER_Q:
                continue

            def run_recover(tr, ring=ring):
                rg = gk.rings.parse_ring_spec(ring)
                alg = tr.call("paction.dual", gk.paction.dual_action, ctx["munn"], rg)
                return tr.call("paction.recover", gk.paction.recover_action_from_dual, alg)

            add(f"recover/{ring}", run_recover,
                lambda th: first_failure((th == ctx["munn"], "recovered action differs")),
                sizes(n, E, munn.l_dim()))

    if n <= SK_MAX_S_SELF_GERMS:
        add("self-dynamics", lambda tr: tr.call("paction.dynamics", gk.paction.dynamics_report, ctx["self"]),
            lambda d: first_failure((d.lambda_points == gen.lambda_points(selfa), "Lambda differs"),
                                (d.consistent, "free, effective and principal disagree")),
            sizes(n, n, selfa.l_dim()))
        add("self-germs", lambda tr: tr.call("germs.germ_groupoid", gk.germs.groupoid_of_germs, ctx["self"]),
            lambda g: first_failure((len(g.groupoid.arrows) == self_arrows,
                                    f"{len(g.groupoid.arrows)} germs, expected {self_arrows}")),
            sizes(n, n, selfa.l_dim(), None, self_arrows),
            {"germs.arrows": self_arrows, "germs.pairs": selfa.l_dim()})

    if n <= SK_MAX_S_AMPLE:
        def run_ample(tr):
            germ = ctx["germ"]
            theta = germ.action
            gens = [gk.germs.basic_bisection(germ, s, theta.dom(s)) for s in range(n)]
            return tr.call("germs.ample", gk.germs.ample_semigroup, germ.groupoid, generators=gens)

        add("ample", run_ample, lambda amp: first_failure(
            (len(amp.semigroup) == n, f"{len(amp.semigroup)} bisections, expected |S| = {n}")))
    return rungs


def semigroup_kernel(gk, seed, workdir, smoke=False):
    rng = random.Random(seed)
    rungs = []
    fixed = [("I3", gen.symmetric(3), gen.symmetric_size(3), ("symmetric", 3))]
    if not smoke:
        fixed += [("S(Z5)", gen.exel(5), gen.exel_size(5), ("exel", 5)),
                  ("S(Z6)", gen.exel(6), gen.exel_size(6), ("exel", 6)),
                  ("I4", gen.symmetric(4), gen.symmetric_size(4), ("symmetric", 4)),
                  ("S(Z7)", gen.exel(7), gen.exel_size(7), None)]
    slots = SK_SLOTS[:2] if smoke else SK_SLOTS
    pool = 50 if smoke else SK_POOL
    draw = gen.subsemigroup_draw((4,), max(s for s, _ in slots))
    for k, T in enumerate(gen.fill_slots(rng, slots, draw, pool)):
        rungs += sk_instance(gk, f"I4sub{k}", T, len(T))
    for label, T, size, build in fixed:
        rungs += sk_instance(gk, label, T, size, build)
    expected_i5 = gen.symmetric_size(5)
    rungs.append(Rung(
        "I5:build", None,
        lambda out: None if out["size"] == expected_i5 else f"|I_5| = {out['size']}, expected {expected_i5}",
        sizes(expected_i5),
        child={"op": "symmetric", "n": 5, "max_elements": 2 * expected_i5}, cpu_s=SK_FRONTIER_CPU_S,
    ))
    return rungs


# --- cli-json -------------------------------------------------------------------------


def run_cli(gk, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gk.cli.main(argv)
    return code, out.getvalue()


def cli_rung(gk, name, argv, check, sz=None, counts=None, stages=None):
    def run(tr):
        code, out = tr.call("cli.main", run_cli, gk, argv)
        tr.count("cli.stdout_bytes", len(out.encode()))
        return code, out

    def check_cli(outcome):
        code, out = outcome
        try:
            report = json.loads(out.splitlines()[-1])
        except (ValueError, IndexError):
            return f"stdout is not one JSON report: {out[:80]!r}"
        return check(code, report)

    return Rung(name, run, check_cli, sz or {}, counts or {}, stages, cli=True)


def expect_code(code, want, report):
    if code != want:
        return f"exit {code}, expected {want}: {str(report)[:120]}"
    return None


def write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(gen.dumps(doc))
    return path


def read_doc(gk, tr, path):
    with open(path) as fh:
        text = fh.read()
    return tr.call("cli.parse", gk.cli.parse_input, text)[1]


def try_stage(tr, name, fn, *args, **kwargs):
    """A stage may legitimately reject a corrupted document."""
    try:
        return tr.call(name, fn, *args, **kwargs)
    except ValueError:
        return None


# (|S|, |E|) of the seeded tables (subsemigroups of I_3, which fill every
# slot for every seed; I_4 would fill some with tables of another cost),
# then I_3
CJ_TABLE_SLOTS = ((5, 3), (6, 1), (7, 4), (14, 6), (18, 6), (19, 7), (20, 7), (22, 8))
CJ_TABLE_POOL = 800
CJ_GRAPH_POOL = 300
CJ_ACTION_L_CAP = 120
CJ_STEINBERG_L_CAP = 30
# (vertices, edges, boundary points, sinks) of the seeded acyclic graphs; each
# has a vertex emitting two edges, so every Leavitt check has an instance
CJ_GRAPH_SLOTS = ((3, 2, 4, 2), (4, 3, 5, 2), (4, 4, 6, 2), (5, 4, 7, 3), (5, 5, 8, 2))


def cli_json(gk, seed, workdir, smoke=False):
    rng = random.Random(seed)
    rungs = []
    slots = CJ_TABLE_SLOTS[:2] if smoke else CJ_TABLE_SLOTS
    pool = 50 if smoke else CJ_TABLE_POOL
    draw = gen.subsemigroup_draw((3,), max(s for s, _ in slots))
    tables = gen.fill_slots(rng, slots, draw, pool) + [gen.symmetric(3)]

    for k, T in enumerate(tables):
        n = len(T)
        label = f"table{k}"
        good = write(workdir, f"{label}.json", gen.semigroup_doc(T))
        bad_table, _ = gen.corrupt_table(T, rng)
        bad = write(workdir, f"{label}-corrupt.json", gen.semigroup_doc(T, bad_table))
        eu, gsize = gen.is_e_unitary(T), gen.group_image_size(T)
        idem_names = [T.names[e] for e in T.idem]

        def sg_stages(extra, path):
            def stages(tr):
                doc = read_doc(gk, tr, path)
                S = try_stage(tr, "cli.build_semigroup", gk.cli.build_semigroup, doc)
                if S is not None:
                    for fn in extra:
                        tr.call("invsemi.order", fn, S)
            return stages

        sz = sizes(n)
        counts = {"invsemi.elements": n, "invsemi.assoc_triples": n ** 3}
        rungs.append(cli_rung(gk, f"validate {label}", ["validate", good], lambda c, r, n=n, idem=idem_names: (
            expect_code(c, 0, r) or first_failure(
                (r["size"] == n, f"size {r['size']} != {n}"),
                (r["idempotents"] == idem, "idempotents differ"))), sz, counts, sg_stages((), good)))
        rungs.append(cli_rung(gk, f"analyze {label}", ["analyze", good], lambda c, r, eu=eu, g=gsize: (
            expect_code(c, 0, r) or first_failure(
                (r["e_unitary"] == eu, f"E-unitary {r['e_unitary']} != {eu}"),
                (r["max_group_image_size"] == g, f"|G(S)| {r['max_group_image_size']} != {g}"))),
            sz, counts, sg_stages((gk.invsemi.is_e_unitary, gk.invsemi.max_group_image,
                                   gk.invsemi.is_weak_semilattice), good)))
        rungs.append(cli_rung(gk, f"maxgroup {label}", ["maxgroup", good], lambda c, r, g=gsize: (
            expect_code(c, 0, r) or first_failure(
                (len(r["group_elements"]) == g, f"|G(S)| {len(r['group_elements'])} != {g}"))),
            sz, counts, sg_stages((gk.invsemi.max_group_image,), good)))
        for cmd in ("validate", "analyze", "maxgroup"):
            rungs.append(cli_rung(gk, f"{cmd} {label}-corrupt", [cmd, bad], lambda c, r: (
                expect_code(c, 1, r) or first_failure((r["ok"] is False, "corrupted table accepted"))),
                sz, counts, sg_stages((), bad)))

    actions = []
    for k, T in enumerate(tables):
        for kind, A in (("munn", gen.munn(T)), ("self", gen.self_action(T))):
            if A.l_dim() <= CJ_ACTION_L_CAP:
                actions.append((f"{kind}{k}", A))
    for label, A in actions:
        T = A.semigroup
        arrows = gen.germ_arrows(A)
        good = write(workdir, f"{label}.json", gen.action_doc(A))
        corrupted = gen.corrupt_map(A, rng)
        sz = sizes(len(T), len(A.carrier), A.l_dim(), None, arrows)
        counts = {"invsemi.elements": len(T), "invsemi.assoc_triples": len(T) ** 3,
                  "paction.pairs": A.l_dim()}

        def act_stages(path, germs_too):
            def stages(tr):
                doc = read_doc(gk, tr, path)
                try_stage(tr, "cli.build_semigroup", gk.cli.build_semigroup, doc["semigroup"])
                theta = try_stage(tr, "cli.build_action", gk.cli.build_action, doc)
                if theta is not None and germs_too:
                    G = tr.call("germs.germ_groupoid", gk.germs.groupoid_of_germs, theta).groupoid
                    tr.call("germs.validate_groupoid", gk.germs.validate_groupoid,
                            G.arrows, G.units, G.source, G.target, G.inverse, G.compose)
            return stages

        rungs.append(cli_rung(gk, f"validate {label}", ["validate", good], lambda c, r, A=A: (
            expect_code(c, 0, r) or first_failure(
                (r["carrier"] == list(A.carrier), "carrier differs"),
                (r["semigroup_size"] == len(A.semigroup), "semigroup size differs"))),
            sz, counts, act_stages(good, False)))
        rungs.append(cli_rung(gk, f"germs {label}", ["germs", good], lambda c, r, a=arrows, A=A: (
            expect_code(c, 0, r) or first_failure(
                (len(r["arrows"]) == a, f"{len(r['arrows'])} germs, expected {a}"),
                (len(r["units"]) == len(A.carrier), "unit count differs from |X|"))),
            sz, dict(counts, **{"germs.arrows": arrows, "germs.pairs": A.l_dim()}),
            act_stages(good, True)))
        if corrupted is None:
            continue
        bad = write(workdir, f"{label}-corrupt.json", gen.action_doc(corrupted[0]))
        for cmd in ("validate", "germs"):
            rungs.append(cli_rung(gk, f"{cmd} {label}-corrupt", [cmd, bad], lambda c, r: (
                expect_code(c, 1, r) or first_failure((r["ok"] is False, "corrupted action accepted"))),
                sz, counts, act_stages(bad, False)))

    small = [(label, A) for label, A in actions if A.l_dim() <= CJ_STEINBERG_L_CAP][:4]
    for label, A in small:
        arrows = gen.germ_arrows(A)
        path = os.path.join(workdir, f"{label}.json")
        L = A.l_dim()
        for ring in ("Q", "Zp:5"):
            def stages(tr, path=path, ring=ring):
                theta = tr.call("cli.build_action", gk.cli.build_action, read_doc(gk, tr, path))
                rg = gk.rings.parse_ring_spec(ring)
                tr.call("algebra.verify", gk.algebra.verify_steinberg_crossed, theta, rg)
                tr.call("germs.germ_groupoid", gk.germs.groupoid_of_germs, theta)
                alg = tr.call("paction.dual", gk.paction.dual_action, theta, rg)
                tr.call("algebra.cp_build", gk.algebra.crossed_product_build, alg, rng=SampleCounter(tr))

            rungs.append(cli_rung(
                gk, f"verify {label}/{ring}", ["verify", "steinberg-crossed", path, "--ring", ring],
                lambda c, r, L=L, a=arrows: expect_code(c, 0, r) or check_cp(r, L, a),
                sizes(len(A.semigroup), len(A.carrier), L, L - arrows, arrows),
                algebra_counts(A, arrows), stages))

    pairs = [item for item in actions if item[1].l_dim() <= 80][:2 if smoke else 6]
    for label, A in pairs:
        B = gen.relabel(A, rng, "r")
        pa = os.path.join(workdir, f"{label}.json")
        pb = write(workdir, f"{label}-relabeled.json", gen.action_doc(B))
        pc = os.path.join(workdir, f"{label}-coe.json")
        arrows = gen.germ_arrows(A)
        sz = sizes(len(A.semigroup), len(A.carrier), A.l_dim(), None, arrows)
        rungs.append(coe_extract_rung(gk, label, pa, pb, pc, sz))

        def verify_stages(tr, pa=pa, pb=pb, pc=pc):
            theta = tr.call("cli.build_action", gk.cli.build_action, read_doc(gk, tr, pa))
            gamma = tr.call("cli.build_action", gk.cli.build_action, read_doc(gk, tr, pb))
            oe = tr.call("cli.build_coe", gk.cli.build_action_coe, read_doc(gk, tr, pc), theta, gamma)
            tr.call("orbit.verify", gk.orbit.verify_orbit_equivalence, theta, gamma, oe)

        rungs.append(cli_rung(gk, f"coe verify {label}", ["coe", "verify", pa, pb, pc], lambda c, r: (
            expect_code(c, 0, r) or first_failure((r["identities"] == "ok", "identities fail"))),
            sz, {}, verify_stages))

    def draw_graph(rng, wanted):
        nv, ne = rng.choice(shapes)
        g = gen.random_dag(rng, nv, ne)
        orbits = gen.boundary_orbits(g)
        if not any(len(g.out_edges(v)) >= 2 for v in range(nv)):
            return []
        return [((nv, ne, sum(orbits), len(orbits)), tuple(g.edges), g)]

    graph_slots = CJ_GRAPH_SLOTS[:2] if smoke else CJ_GRAPH_SLOTS
    shapes = sorted({s[:2] for s in graph_slots})
    graphs = gen.fill_slots(rng, graph_slots, draw_graph, 20 if smoke else CJ_GRAPH_POOL)
    for k, g in enumerate(graphs):
        rungs += graph_rungs(gk, rng, workdir, f"graph{k}", g, graphs[(k + 1) % len(graphs)])
    for name, cond_l, checks in (
        ("loop", False, [("(* e e*)", "v", True), ("(* e* e)", "v", True)]),
        ("loop-exit", True, [("(+ (* e e*) (* f f*))", "v", True), ("(* e e*)", "v", False)]),
        ("cycle2-exit", True, [("(* a* a)", "v", True)]),
    ):
        rungs.append(cli_rung(gk, f"graph analyze catalog:{name}", ["graph", "analyze", f"catalog:{name}"],
                              lambda c, r, cl=cond_l: expect_code(c, 0, r) or first_failure(
                                  (r["acyclic"] is False, "cyclic graph reported acyclic"),
                                  (r["condition_L"] == cl, f"Condition (L) {r['condition_L']} != {cl}"),
                                  (r["top_principal"] == cl, "principality differs from Condition (L)")),
                              stages=lambda tr, name=name: tr.call(
                                  "graph.analyze", gk.graph.graph_analyze, gk.catalog.graphs(name))))
        for j, (expr, equals, truth) in enumerate(checks):
            path = write(workdir, f"leavitt-{name}-{j}.json", gen.leavitt_doc(f"catalog:{name}", expr))
            rungs.append(leavitt_rung(gk, f"leavitt catalog:{name} #{j}", path, equals, truth,
                                      lambda name=name: gk.catalog.graphs(name)))

    def catalog_stages(tr):
        for k, fn in enumerate(gk.acceptance.ALL_CRITERIA, 1):
            tr.call(f"acceptance.criterion_{k}", fn)

    def check_catalog(c, r):
        failing = [x["criterion"] for x in r["criteria"] if not x["ok"]]
        c3 = next(x for x in r["criteria"] if x["criterion"] == 3)
        return expect_code(c, 1, r) or first_failure(
            (len(r["criteria"]) == 10, "expected ten criteria"),
            (failing == [3], f"failing criteria {failing}, expected [3] only"),
            (c3["construction_matches_oracle"] is True, "criterion 3 construction disagrees with its oracle"),
            (c3["stated_cardinalities_hold"] is False, "criterion 3 stated cardinalities unexpectedly hold"),
        )

    rungs.append(cli_rung(gk, "catalog run", ["catalog", "run", "--seed", str(seed)], check_catalog,
                          stages=catalog_stages))

    I4 = gen.symmetric(4)
    m4 = gen.munn(I4)
    pa = write(workdir, "munn-I4.json", gen.action_doc(m4))
    pb = write(workdir, "munn-I4-relabeled.json", gen.action_doc(gen.relabel(m4, rng, "r")))
    argv = ["coe", "extract", pa, pb, "--timeout-nodes", str(CJ_FRONTIER_NODES)]

    def node_limit(out):
        code, text = out
        if code == 1 and "isomorphism search exhausted" in text:
            return "node-limit"
        return None

    rungs.append(Rung(
        "coe extract munn-I4 relabeled", None,
        lambda out: expect_code(out[0], 0, out[1][:120]),
        sizes(len(I4), len(m4.carrier), m4.l_dim(), None, len(I4)),
        {"germs.iso_nodes": CJ_FRONTIER_NODES},
        child={"op": "cli", "argv": argv}, cpu_s=CJ_FRONTIER_CPU_S, undecided=node_limit,
    ))
    return rungs


def coe_extract_rung(gk, label, pa, pb, pc, sz):
    """coe extract on (A, relabeled A); the report is written as the coe
    document that the following coe verify rung reads."""
    last = {}

    def check(code, report):
        fail = expect_code(code, 0, report) or first_failure(
            (report.get("schema") == "coe", "no orbit equivalence document"))
        if fail is None:
            doc = {k: v for k, v in report.items() if k not in ("command", "ok")}
            with open(pc, "w") as fh:
                fh.write(gen.dumps(doc))
        return fail

    def stages(tr):
        theta = tr.call("cli.build_action", gk.cli.build_action, read_doc(gk, tr, pa))
        gamma = tr.call("cli.build_action", gk.cli.build_action, read_doc(gk, tr, pb))
        ga = tr.call("germs.germ_groupoid", gk.germs.groupoid_of_germs, theta)
        gb = tr.call("germs.germ_groupoid", gk.germs.groupoid_of_germs, gamma)
        iso = tr.call("germs.iso_search", gk.germs.groupoid_iso_search, ga.groupoid, gb.groupoid)
        tr.call("orbit.coe_from_iso", gk.orbit.coe_from_groupoid_iso, iso, ga, gb)
        last["pair"] = (ga.groupoid, gb.groupoid)

    rung = cli_rung(gk, f"coe extract {label}", ["coe", "extract", pa, pb], check, sz, {}, stages)
    rung.iso_pair = lambda: last.get("pair")
    return rung


def leavitt_rung(gk, name, path, equals, truth, graph_of):
    def stages(tr):
        doc = read_doc(gk, tr, path)
        g = graph_of()
        ring = gk.rings.RING_Q
        x = tr.call("graph.leavitt", gk.graph.parse_leavitt_expr, g, ring, doc["expr"])
        y = tr.call("graph.leavitt", gk.graph.parse_leavitt_expr, g, ring, equals)
        tr.call("graph.leavitt", gk.graph.leavitt_equal, x, y)

    return cli_rung(gk, name, ["graph", "leavitt", path, "--equals", equals], lambda c, r: (
        expect_code(c, 0 if truth else 1, r) or first_failure(
            (r["equals"] is truth, f"equality {r['equals']}, expected {truth}"))), stages=stages)


def graph_rungs(gk, rng, workdir, label, g, other):
    rungs = []
    h = gen.relabel_graph(g, rng, f"{label}r")
    pg = write(workdir, f"{label}.json", gen.graph_doc(g))
    ph = write(workdir, f"{label}-relabeled.json", gen.graph_doc(h))
    po = write(workdir, f"{label}-other.json", gen.graph_doc(other))
    pc = os.path.join(workdir, f"{label}-gcoe.json")
    orbits = gen.boundary_orbits(g)
    points = sum(orbits)
    sinks = [g.vertices[v] for v in range(len(g.vertices)) if not g.out_edges(v)]
    arrows = gen.boundary_arrows(g)

    def built(tr, path):
        return tr.call("cli.build_graph", gk.cli.build_graph, read_doc(gk, tr, path))

    def analyze_stages(tr):
        G = built(tr, pg)
        tr.call("graph.semigroup", gk.graph.graph_semigroup, G)
        tr.call("graph.analyze", gk.graph.graph_analyze, G)

    rungs.append(cli_rung(gk, f"graph analyze {label}", ["graph", "analyze", pg], lambda c, r: (
        expect_code(c, 0, r) or first_failure(
            (r["acyclic"] is True, "acyclic graph reported cyclic"),
            (r["condition_L"] is True and r["top_principal"] is True, "acyclic graph must satisfy (L)"),
            (r["boundary_size"] == points, f"boundary size {r['boundary_size']} != {points}"),
            (r["sinks"] == sinks, "sinks differ"))),
        counts={"graph.boundary_points": points}, stages=analyze_stages))

    def run_boundary(tr):
        G = gk.cli.build_graph(read_doc(gk, tr, pg))
        return tr.call("graph.boundary_groupoid", gk.graph.boundary_groupoid, G)

    def check_boundary(out):
        gpd, _, _, report = out
        return first_failure((len(gpd.arrows) == arrows, f"{len(gpd.arrows)} arrows, expected {arrows}"),
                             (report["isomorphic"] is True, "germ comparison failed"))

    rungs.append(Rung(f"boundary groupoid {label}", run_boundary, check_boundary,
                      sizes(None, points, None, None, arrows), {"graph.boundary_points": points}))

    for target, path, found in ((h, ph, True), (other, po, gen.boundary_orbits(other) == orbits)):
        tag = "relabeled" if target is h else "other"

        def search_check(c, r, found=found, write_doc=(target is h)):
            fail = expect_code(c, 0, r) or first_failure(
                (r["found"] is found, f"found {r['found']}, expected {found}"))
            if fail is None and write_doc:
                doc = {k: v for k, v in r.items() if k not in ("command", "ok", "found", "phi")}
                with open(pc, "w") as fh:
                    fh.write(gen.dumps(doc))
            return fail

        def search_stages(tr, path=path):
            tr.call("graph.coe_search", gk.graph.graph_coe_search, built(tr, pg), built(tr, path))

        rungs.append(cli_rung(gk, f"graph coe-search {label} {tag}", ["graph", "coe-search", pg, path],
                              search_check, stages=search_stages))

    def verify_stages(tr):
        E, F = built(tr, pg), built(tr, ph)
        T, Tinv, k, l, kp, lp, depth = tr.call("cli.build_graph_coe", gk.cli.build_graph_coe,
                                               read_doc(gk, tr, pc), E, F)
        tr.call("graph.coe_verify", gk.graph.verify_graph_coe, E, F, T, Tinv, k, l, kp, lp, depth)

    rungs.append(cli_rung(gk, f"graph coe-verify {label}", ["graph", "coe-verify", pg, ph, pc],
                          lambda c, r: expect_code(c, 0, r) or first_failure(
                              (r["atoms_checked"] > 0, "no atoms checked")), stages=verify_stages))

    gdoc = gen.graph_doc(g)
    inner = {"vertices": gdoc["vertices"], "edges": gdoc["edges"]}
    for j, (expr, equals, truth) in enumerate(gen.leavitt_checks(g)):
        path = write(workdir, f"leavitt-{label}-{j}.json", gen.leavitt_doc(inner, expr))
        rungs.append(leavitt_rung(gk, f"leavitt {label} #{j}", path, equals, truth,
                                  lambda: gk.cli.build_graph(inner)))
    return rungs


WORKLOADS = {
    "crossed-product": crossed_product,
    "semigroup-kernel": semigroup_kernel,
    "cli-json": cli_json,
}
