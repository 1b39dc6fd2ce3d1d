"""The acceptance sweep: each criterion is a function returning a report
dict with an "ok" flag and enough detail to locate any failure.  Used both by
the test suite and by the CLI's catalog runner.

All arithmetic is exact; there are no tolerances.  Criterion 3 carries two
sub-results because its stated cardinalities contradict the defining
relations of the universal semigroup of a group; see the README note on the
relation-rewriting oracle.
"""

import time
from itertools import chain, product

from . import GermkitError, algebra, catalog, germs, graph, invsemi, orbit, paction, rings


def _elapsed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# --- relation-rewriting oracle for the universal semigroup of a group -------------

def exel_words_closure(G, max_len):
    """Brute-force closure of the defining relations on words over the symbols
    [g], g in G, within the universe of words of length <= max_len.

    Returns (classes, class_of) where class_of maps each word (tuple of group
    element indices) to its congruence class id.

    Only contractions are applied, each one symbol shorter and never empty:
    an expansion w -> w2 that fits the universe is the contraction w2 -> w
    at the same position, and union_find ignores direction.

    A word w of length L is coded as off[L] + sum_i w_i n^(L-1-i), its index
    in length-major lexicographic order, so a class id is the index of the
    class's least word.  A rule rewrites a window of k symbols, coded u, to
    one of k-1 symbols, coded v.  At position p of the words of length L it
    relates pre+window+suf to pre+image+suf for every prefix of length p and
    suffix of length m = L-p-k, and both codes are affine in (pre, suf):
    off[L] + u n^m + pre n^(k+m) + suf and off[L-1] + v n^m + pre n^(k-1+m)
    + suf.  So the pairs come as two arithmetic progressions zipped, run
    along whichever of prefix and suffix has more values.
    """
    one = G.idempotents[0]
    n = len(G)
    inv, mul = G.inv, G.mul
    off = [0, 0]
    for length in range(1, max_len + 1):
        off.append(off[-1] + n ** length)
    # (k, u, v): the window of k symbols coded u contracts to the one coded v.
    # [s][1] = [s] and [1][s] = [s] drop a [1]
    rules = [(1, one, 0)]
    for s in range(n):
        for t in range(n):
            st = mul(s, t)
            # [s^-1][s][t] = [s^-1][st] and [s][t][t^-1] = [st][t^-1]
            rules.append((3, (inv(s) * n + s) * n + t, inv(s) * n + st))
            rules.append((3, (s * n + t) * n + inv(t), st * n + inv(t)))

    def progressions():
        for length in range(2, max_len + 1):
            for k, u, v in rules:
                for p in range(length - k + 1):
                    n_suf = n ** (length - p - k)
                    n_pre = n ** p
                    a = off[length] + u * n_suf
                    b = off[length - 1] + v * n_suf
                    step_a = n ** k * n_suf
                    step_b = n ** (k - 1) * n_suf
                    if n_suf >= n_pre:
                        for pre in range(n_pre):
                            x, y = a + pre * step_a, b + pre * step_b
                            yield zip(range(x, x + n_suf), range(y, y + n_suf))
                    else:
                        for suf in range(n_suf):
                            x, y = a + suf, b + suf
                            yield zip(range(x, x + n_pre * step_a, step_a),
                                      range(y, y + n_pre * step_b, step_b))

    root = invsemi.union_find(off[max_len + 1], chain.from_iterable(progressions()))
    words = chain.from_iterable(product(range(n), repeat=length) for length in range(1, max_len + 1))
    class_of = dict(zip(words, root))
    return sorted(set(root)), class_of


def exel_agrees_with_closure(G, report_len, max_len):
    """Prove the standard-form construction is the quotient of the free
    semigroup on the [g] by relations (i)-(iv).

    The construction is checked to satisfy the relations, so its size is at
    most the size of the true quotient; the word closure only merges truly
    congruent words, so its class count (restricted to words of length
    <= report_len, which avoids expansion-starved words at the universe
    boundary) is at least the true size.  Equality of the two counts then
    pins both to the true quotient, and the generator map is the isomorphism.
    That the [g] generate the construction is checked when it is built:
    `invsemi.exel_semigroup` tabulates it from them, which raises if they do
    not generate; that it is an inverse semigroup is proved in that
    function's docstring.
    """
    ex = invsemi.exel_semigroup(G)
    S = ex.semigroup
    one = G.idempotents[0]
    sym = ex.of_group

    # the construction satisfies the defining relations
    for s in range(len(G)):
        if S.mul(sym[s], sym[one]) != sym[s] or S.mul(sym[one], sym[s]) != sym[s]:
            return False, f"relation (iii)/(iv) fails at {G.elements[s]}"
        for t in range(len(G)):
            lhs = S.prod(sym[G.inv(s)], sym[s], sym[t])
            rhs = S.mul(sym[G.inv(s)], sym[G.mul(s, t)])
            if lhs != rhs:
                return False, f"relation (i) fails at ({G.elements[s]},{G.elements[t]})"
            lhs = S.prod(sym[s], sym[t], sym[G.inv(t)])
            rhs = S.mul(sym[G.mul(s, t)], sym[G.inv(t)])
            if lhs != rhs:
                return False, f"relation (ii) fails at ({G.elements[s]},{G.elements[t]})"

    _, class_of = exel_words_closure(G, max_len)

    def eval_word(w):
        acc = sym[w[0]]
        for g in w[1:]:
            acc = S.mul(acc, sym[g])
        return acc

    short = [w for w in class_of if len(w) <= report_len]
    image_of_class = {}
    for w in short:
        v = eval_word(w)
        if image_of_class.setdefault(class_of[w], v) != v:
            return False, f"word {w} disagrees with its class representative"
    n_classes = len(image_of_class)
    if n_classes != len(S):
        return False, f"closure found {n_classes} classes, construction has {len(S)}"
    if len(set(image_of_class.values())) != len(S):
        return False, "distinct word classes collapse in the construction"
    return True, f"{n_classes} classes, bijective with the construction"


# --- criteria ---------------------------------------------------------------------

def criterion_1():
    """Steinberg algebra of the germ groupoid vs crossed product of the dual
    action: mutually inverse, multiplicative, diagonal preserving, with the
    quotient dimension equal to the arrow count, over Q and Z/5."""
    failures = []
    dims = {}

    def run():
        for name in catalog.ACTION_NAMES:
            theta = catalog.action(name)
            for ring in (rings.RING_Q, rings.ring_zmod(5)):
                try:
                    rep = algebra.verify_steinberg_crossed(theta, ring)
                    dims[f"{name}/{ring.kind}{ring.modulus or ''}"] = rep["dims"]
                except GermkitError as err:
                    failures.append((name, repr(ring), str(err)))

    _, dt = _elapsed(run)
    ok = not failures and len(catalog.ACTION_NAMES) >= 8 and dt < 10.0
    return {
        "criterion": 1,
        "ok": ok,
        "actions": len(catalog.ACTION_NAMES),
        "elapsed_s": round(dt, 3),
        "failures": failures,
        "dims": dims,
    }


def criterion_2():
    """Munn germ groupoid isomorphic to the restricted product groupoid for
    every catalog semigroup."""
    failures = []

    def run():
        for name in catalog.SEMIGROUP_NAMES:
            S = catalog.semigroup(name)
            g = germs.groupoid_of_germs(invsemi.munn_representation(S)).groupoid
            rp = invsemi.restricted_product_groupoid(S)
            # the search verifies what it returns, raising rather than
            # returning a map that is not an isomorphism
            if germs.groupoid_iso_search(g, rp) is None:
                failures.append(name)

    _, dt = _elapsed(run)
    ok = not failures and dt < 5.0
    return {"criterion": 2, "ok": ok, "elapsed_s": round(dt, 3), "failures": failures}


def criterion_3():
    """The universal-semigroup pipeline for Z2 and Z3.

    Sub-result A (the construction is right): the standard-form semigroup is
    isomorphic to the brute-force closure of the relation rewriting system,
    and the maximal group image recovers the group.

    Sub-result B (stated cardinalities): |S(Z2)| = 4 and |S(G)| = |G| * 2^(|G|-1).
    The rewriting relations force eps_g [g] = [g], so the brute-force count is
    (|G|+1) * 2^(|G|-2); the stated numbers are refuted by the oracle and this
    sub-result is expected to fail.
    """
    details = {}
    sizes = {}
    ok_a = True
    for gname, report_len, max_len in (("z2", 3, 7), ("z3", 5, 8)):
        G = catalog.semigroup(gname)
        agree, info = exel_agrees_with_closure(G, report_len, max_len)
        ex = invsemi.exel_semigroup(G)
        gi = invsemi.max_group_image(ex.semigroup)
        back = germs.groupoid_iso_search(
            invsemi.restricted_product_groupoid(gi.group), invsemi.restricted_product_groupoid(G)
        )
        recovered = back is not None
        sizes[gname] = len(ex.semigroup)
        details[gname] = {
            "oracle": info,
            "size": sizes[gname],
            "group_recovered": recovered,
        }
        ok_a = ok_a and agree and recovered
    stated = {"z2": 2 * 2 ** 1, "z3": 3 * 2 ** 2}
    ok_b = sizes == stated
    return {
        "criterion": 3,
        "ok": ok_a and ok_b,
        "construction_matches_oracle": ok_a,
        "stated_cardinalities_hold": ok_b,
        "actual_sizes": sizes,
        "stated_sizes": stated,
        "details": details,
    }


def criterion_4():
    """Three equivalent readings of E-unitarity on every catalog semigroup:
    the definition, pairwise compatibility of commonly bounded pairs, and the
    canonical self action factoring through the maximal group image."""
    rows = {}
    ok = True
    for name in catalog.SEMIGROUP_NAMES:
        S = catalog.semigroup(name)
        a = invsemi.is_e_unitary(S)[0]
        b = invsemi.e_unitary_via_compatibility(S)[0]
        c = paction.action_factors_through_group(invsemi.canonical_self_action(S))[0]
        rows[name] = {"definition": a, "compatibility": b, "self_action_factors": c}
        ok = ok and (a == b == c)
    return {"criterion": 4, "ok": ok, "rows": rows}


def criterion_5():
    """Lambda(theta) equals the trivial-isotropy points of the groupoid of
    germs, and freeness = effectiveness = topological principality, on every
    catalog action."""
    failures = []
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        dyn = paction.dynamics_report(theta)
        gg = germs.groupoid_of_germs(theta)
        iso_rep = germs.isotropy_report(gg.groupoid)
        trivial_pts = sorted(gg.point_of_unit[u] for u in iso_rep.trivial_points)
        if tuple(trivial_pts) != dyn.lambda_points:
            failures.append((name, "lambda vs isotropy"))
        if not dyn.consistent:
            failures.append((name, "free/effective/principal disagree"))
        if (dyn.top_principal) != (iso_rep.top_principal):
            failures.append((name, "action vs groupoid principality"))
    return {"criterion": 5, "ok": not failures, "failures": failures}


def _principal_actions():
    out = []
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        if paction.dynamics_report(theta).top_principal:
            out.append((name, theta))
    return out


def criterion_6():
    """Orbit equivalence <-> groupoid isomorphism round trips on all pairs of
    topologically principal catalog actions with isomorphic groupoids of
    germs (every action is also paired with itself)."""
    principal = [(name, germs.groupoid_of_germs(theta)) for name, theta in _principal_actions()]
    pairs_checked = 0
    failures = []
    for i, (na, ga) in enumerate(principal):
        for nb, gb in principal[i:]:
            if len(ga.groupoid.arrows) != len(gb.groupoid.arrows):
                continue
            iso = germs.groupoid_iso_search(ga.groupoid, gb.groupoid)
            if iso is None:
                continue
            try:
                oe = orbit.coe_from_groupoid_iso(iso, ga, gb)
                orbit.iso_from_coe(ga, gb, oe)
            except GermkitError as err:
                failures.append((na, nb, str(err)))
            pairs_checked += 1
    known = [("munn-chain2", "self-chain2"), ("z2-swap", "z2-swap-exel")]
    names = [n for n, _ in principal]
    for a, b in known:
        if a not in names or b not in names:
            failures.append((a, b, "expected principal pair missing"))
    return {
        "criterion": 6,
        "ok": not failures and pairs_checked >= len(principal),
        "pairs_checked": pairs_checked,
        "failures": failures,
    }


def criterion_7():
    """tau : bisections -> partial maps of the unit space is injective exactly
    when the groupoid is effective, across the groupoid catalog; injectivity
    is read off the arrows' ends (`germs.full_pseudogroup`)."""
    rows = {}
    ok = True
    non_effective_seen = effective_seen = False
    for name in catalog.GROUPOID_NAMES:
        G = catalog.groupoid(name)
        rep = germs.full_pseudogroup(G)
        rows[name] = {"injective": rep.injective, "effective": rep.effective}
        ok = ok and rep.theorem_holds
        non_effective_seen = non_effective_seen or not rep.effective
        effective_seen = effective_seen or rep.effective
    ok = ok and len(rows) >= 6 and non_effective_seen and effective_seen
    return {"criterion": 7, "ok": ok, "rows": rows}


def criterion_8():
    """The graph pipeline: Condition (L) and principality witnesses for the
    loop graphs, the boundary groupoid of the one-edge graph as a pair
    groupoid with the Leavitt relations, Laurent relations on the loop, and
    the germ comparison on every acyclic catalog graph."""
    failures = []

    def run():
        Q = rings.RING_Q
        loop = catalog.graphs("loop")
        rep = graph.graph_analyze(loop)
        if rep["condition_L"] or rep["top_principal"] or rep["witness_loop"] != "e":
            failures.append("loop analysis")
        if not rep.get("witness_isolated_cylinder"):
            failures.append("loop witness cylinder")
        if not graph.graph_analyze(catalog.graphs("loop-exit"))["condition_L"]:
            failures.append("loop-exit condition L")
        edge = catalog.graphs("edge")
        gpd, _, _, cmp_rep = graph.boundary_groupoid(edge)
        if germs.groupoid_iso_search(gpd, catalog.pair_groupoid(2)) is None:
            failures.append("edge boundary groupoid is not the pair groupoid")
        v = graph.lv_vertex(edge, Q, "v")
        w = graph.lv_vertex(edge, Q, "w")
        e = graph.lv_edge(edge, Q, "e")
        es = graph.lv_edge_star(edge, Q, "e")
        rels = [
            graph.leavitt_equal(graph.leavitt_multiply(v, e), e),
            graph.leavitt_equal(graph.leavitt_multiply(e, w), e),
            graph.leavitt_equal(graph.leavitt_multiply(w, es), es),
            graph.leavitt_equal(graph.leavitt_multiply(es, v), es),
            graph.leavitt_equal(graph.leavitt_multiply(es, e), w),
            graph.leavitt_equal(v, graph.leavitt_multiply(e, es)),
        ]
        if not all(rels):
            failures.append("Leavitt relations on the one-edge graph")
        le = graph.lv_edge(loop, Q, "e")
        les = graph.lv_edge_star(loop, Q, "e")
        lv = graph.lv_vertex(loop, Q, "v")
        lhs = graph.leavitt_multiply(le, les)
        rhs = graph.leavitt_multiply(les, le)
        if not (graph.leavitt_equal(lhs, lv) and graph.leavitt_equal(rhs, lv)):
            failures.append("Laurent relations on the loop")
        if max(lhs.depth, rhs.depth) > 4:
            failures.append("Laurent check exceeded depth 4")
        for name in ("edge", "fan"):
            g = catalog.graphs(name)
            _, _, _, rep2 = graph.boundary_groupoid(g)
            if not rep2["isomorphic"]:
                failures.append(f"germ comparison on {name}")

    _, dt = _elapsed(run)
    ok = not failures and dt < 10.0
    return {"criterion": 8, "ok": ok, "elapsed_s": round(dt, 3), "failures": failures}


def criterion_9():
    """Dual action / recovery round trips over Q and Z/5, the open-set <->
    ideal lattice bijection on a 4-point carrier, and rejection of Z/6."""
    failures = []
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        for ring in (rings.RING_Q, rings.ring_zmod(5)):
            rec = paction.recover_action_from_dual(paction.dual_action(theta, ring))
            if rec != theta:
                failures.append((name, repr(ring)))
    ring = rings.RING_Q
    for mask in range(16):
        subset = [i for i in range(4) if mask >> i & 1]
        ideal = paction.indicator_ideal(ring, subset)
        if list(paction.ideal_support(ring, ideal)) != subset:
            failures.append(("U(I(U))", mask))
        back = paction.indicator_ideal(ring, paction.ideal_support(ring, ideal))
        if not paction.spans_equal(ring, ideal, back):
            failures.append(("I(U(I))", mask))
    try:
        paction.recover_action_from_dual(
            paction.dual_action(catalog.action("z2-swap"), rings.ring_zmod(6))
        )
        failures.append("Z/6 accepted")
    except rings.DecomposableRing:
        pass
    return {"criterion": 9, "ok": not failures, "failures": failures}


def criterion_10():
    """Boolean representation universality: the identity representation
    extends to the identity, and a corrupted representation is rejected with
    a witness."""
    G = catalog.groupoid("pair")
    ring = rings.RING_Q
    amp = germs.ample_semigroup(G)
    extend = algebra.boolean_rep_hom(
        G, ring, lambda U: algebra.SteinbergElement.indicator(G, ring, U), ample=amp
    )
    f = algebra.SteinbergElement(G, ring, {0: 2, 3: -1})
    ok_id = extend(f) == f

    bad_unit = G.units[0]

    def bad(U):
        # misreport one singleton: breaks multiplicativity
        if U == frozenset([bad_unit]):
            return algebra.SteinbergElement(G, ring, {})
        return algebra.SteinbergElement.indicator(G, ring, U)

    try:
        algebra.boolean_rep_hom(G, ring, bad, ample=amp)
        detected = False
        witness = None
    except algebra.NotBooleanRep as err:
        detected = True
        witness = str(err)
    return {
        "criterion": 10,
        "ok": ok_id and detected,
        "identity_reproduced": ok_id,
        "violation_detected": detected,
        "witness": witness,
    }


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all():
    return [fn() for fn in ALL_CRITERIA]
