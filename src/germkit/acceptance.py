"""The acceptance sweep: each criterion is a function returning a report
dict with an "ok" flag and enough detail to locate any failure.  Used both by
the test suite and by the CLI's catalog runner.

All arithmetic is exact; there are no tolerances.  Criterion 3 carries two
sub-results because its stated cardinalities contradict the defining
relations of the universal semigroup of a group; see the README note on the
relation-rewriting oracle.
"""

import random
import time

from . import algebra, catalog, germs, graph, invsemi, orbit, paction, rings


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
    """
    one = G.idempotents[0]
    n = len(G)
    words = []
    layer = [()]
    for _ in range(max_len):
        layer = [w + (g,) for w in layer for g in range(n)]
        words.extend(layer)
    index = {w: i for i, w in enumerate(words)}

    def related(w):
        for p in range(len(w)):
            # [s][1] = [s] and [1][s] = [s]
            if w[p] == one and len(w) >= 2:
                yield w[:p] + w[p + 1:]
            # [s^-1][s][t] = [s^-1][st], both directions
            if p + 2 < len(w) and w[p] == G.inv(w[p + 1]):
                yield w[: p + 1] + (G.mul(w[p + 1], w[p + 2]),) + w[p + 3:]
            if p + 1 < len(w):
                a, m = w[p], w[p + 1]
                yield w[: p + 1] + (G.inv(a), G.mul(a, m)) + w[p + 2:]
            # [s][t][t^-1] = [st][t^-1], both directions
            if p + 2 < len(w) and w[p + 2] == G.inv(w[p + 1]):
                yield w[:p] + (G.mul(w[p], w[p + 1]), w[p + 2]) + w[p + 3:]
            if p + 1 < len(w):
                # [st][t^-1] expands with t = b^-1, s = m b
                m, b = w[p], w[p + 1]
                yield w[:p] + (G.mul(m, b), G.inv(b), b) + w[p + 2:]

    root = invsemi.union_find(len(words), (
        (index[w], index[w2]) for w in words for w2 in related(w) if w2 and len(w2) <= max_len
    ))
    class_of = {w: root[i] for i, w in enumerate(words)}
    classes = sorted(set(class_of.values()))
    return classes, class_of


def exel_agrees_with_closure(G, report_len, max_len):
    """Prove the standard-form construction is the quotient of the free
    semigroup on the [g] by relations (i)-(iv).

    The construction is checked to satisfy the relations, so its size is at
    most the size of the true quotient; the word closure only merges truly
    congruent words, so its class count (restricted to words of length
    <= report_len, which avoids expansion-starved words at the universe
    boundary) is at least the true size.  Equality of the two counts then
    pins both to the true quotient, and the generator map is the isomorphism.
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

    # generators generate: every element is a product of the [g]
    reachable = set(sym)
    frontier = set(sym)
    while frontier:
        nxt = {S.mul(a, b) for a in reachable for b in sym} | {
            S.mul(b, a) for a in frontier for b in sym
        }
        frontier = nxt - reachable
        reachable |= frontier
    if len(reachable) != len(S):
        return False, "the [g] do not generate the construction"

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
                except (
                    algebra.SteinbergError,
                    algebra.CrossedProductError,
                    germs.GroupoidError,
                    paction.ActionError,
                    invsemi.SemigroupError,
                    rings.RingError,
                ) as err:
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
            iso = germs.groupoid_iso_search(g, rp)
            if iso is None or not germs.verify_groupoid_iso(iso):
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
    ok_a = True
    for gname, report_len, max_len in (("z2", 3, 7), ("z3", 5, 8)):
        G = catalog.semigroup(gname)
        agree, info = exel_agrees_with_closure(G, report_len, max_len)
        ex = invsemi.exel_semigroup(G)
        gi = invsemi.max_group_image(ex.semigroup)
        back = germs.groupoid_iso_search(
            _group_as_groupoid(gi.group), _group_as_groupoid(G)
        )
        recovered = back is not None
        details[gname] = {
            "oracle": info,
            "size": len(ex.semigroup),
            "group_recovered": recovered,
        }
        ok_a = ok_a and agree and recovered
    sz2 = len(invsemi.exel_semigroup(catalog.semigroup("z2")).semigroup)
    sz3 = len(invsemi.exel_semigroup(catalog.semigroup("z3")).semigroup)
    stated = {"z2": 2 * 2 ** 1, "z3": 3 * 2 ** 2}
    ok_b = sz2 == stated["z2"] and sz3 == stated["z3"]
    return {
        "criterion": 3,
        "ok": ok_a and ok_b,
        "construction_matches_oracle": ok_a,
        "stated_cardinalities_hold": ok_b,
        "actual_sizes": {"z2": sz2, "z3": sz3},
        "stated_sizes": stated,
        "details": details,
    }


def _group_as_groupoid(G):
    n = len(G)
    e = G.idempotents[0]
    return germs.validate_groupoid(
        arrows=G.elements,
        units=(e,),
        source=tuple([e] * n),
        target=tuple([e] * n),
        inverse=G.inverse,
        compose={(a, b): G.mul(a, b) for a in range(n) for b in range(n)},
    )


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
    principal = _principal_actions()
    pairs_checked = 0
    failures = []
    for i, (na, ta) in enumerate(principal):
        for nb, tb in principal[i:]:
            ga = germs.groupoid_of_germs(ta)
            gb = germs.groupoid_of_germs(tb)
            if len(ga.groupoid.arrows) != len(gb.groupoid.arrows):
                continue
            iso = germs.groupoid_iso_search(ga.groupoid, gb.groupoid)
            if iso is None:
                continue
            try:
                oe = orbit.coe_from_groupoid_iso(iso, ga, gb)
                orbit.verify_orbit_equivalence(ta, tb, oe)
                iso2, _, _ = orbit.iso_from_coe(ta, tb, oe)
                if not germs.verify_groupoid_iso(iso2):
                    failures.append((na, nb, "round trip iso invalid"))
            except (orbit.CoeError, germs.GroupoidError) as err:
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
    when the groupoid is effective, across the groupoid catalog."""
    rows = {}
    ok = True
    non_effective_seen = effective_seen = False
    for name in catalog.GROUPOID_NAMES:
        G = catalog.groupoid(name)
        rep = germs.full_pseudogroup(germs.ample_semigroup(G))
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
        ideal = paction.indicator_ideal(ring, 4, subset)
        if list(paction.ideal_support(ring, ideal)) != subset:
            failures.append(("U(I(U))", mask))
        back = paction.indicator_ideal(ring, 4, paction.ideal_support(ring, ideal))
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


def run_all(seed=0):
    random.seed(seed)
    return [fn() for fn in ALL_CRITERIA]
