"""Brute-force relation-rewriting oracle for the universal inverse semigroup
of a group: the product rule used by the construction is only trusted because
these closures confirm it."""

import oracles

from germkit import acceptance, catalog, invsemi


def test_construction_matches_closure_z2():
    ok, info = acceptance.exel_agrees_with_closure(catalog.semigroup("z2"), 3, 7)
    assert ok, info
    assert info.startswith("3 classes")


def test_construction_matches_closure_z3():
    ok, info = acceptance.exel_agrees_with_closure(catalog.semigroup("z3"), 5, 8)
    assert ok, info
    assert info.startswith("8 classes")


def test_eps_g_g_collapses():
    # [g][g^-1][g] = [g] by the defining relations, so eps_g [g] = [g]
    for gname in ("z2", "z3"):
        G = catalog.semigroup(gname)
        ex = invsemi.exel_semigroup(G)
        S = ex.semigroup
        one = G.idempotents[0]
        for g in range(len(G)):
            if g == one:
                continue
            eps_g = S.mul(ex.of_group[g], ex.of_group[G.inv(g)])
            assert S.mul(eps_g, ex.of_group[g]) == ex.of_group[g]


def test_product_pair_rule_resolved():
    # the derivation [s][t] = [s][t][t^-1][t] gives [st] eps_{t^-1}; the
    # variant with eps_t fails whenever t is not an involution
    G = catalog.semigroup("z3")
    ex = invsemi.exel_semigroup(G)
    S = ex.semigroup

    def eps(r):
        return S.mul(ex.of_group[r], ex.of_group[G.inv(r)])

    a = G.index("a")
    one = G.idempotents[0]
    for s in range(len(G)):
        for t in range(len(G)):
            st = G.mul(s, t)
            lhs = S.mul(ex.of_group[s], ex.of_group[t])
            rhs = (
                S.mul(ex.of_group[st], eps(G.inv(t)))
                if G.inv(t) != one
                else ex.of_group[st]
            )
            assert lhs == rhs
    # the typographical variant: [a][a] != [a^2] eps_a
    lhs = S.mul(ex.of_group[a], ex.of_group[a])
    wrong = S.mul(ex.of_group[G.mul(a, a)], eps(a))
    assert lhs != wrong


def test_closure_is_converged_across_universes():
    # the restricted partition (short words only) must not change when the
    # word universe grows
    G = catalog.semigroup("z3")
    _, c7 = acceptance.exel_words_closure(G, 7)
    _, c8 = acceptance.exel_words_closure(G, 8)

    def restricted_labeling(class_of, max_len):
        short = sorted(w for w in class_of if len(w) <= max_len)
        rep = {}
        for w in short:
            rep.setdefault(class_of[w], w)
        return {w: rep[class_of[w]] for w in short}

    assert restricted_labeling(c7, 5) == restricted_labeling(c8, 5)


def test_closure_without_expansions_matches_oracle():
    # every expansion is the contraction of its result at the same position,
    # so dropping the expansions leaves each word's class as it was
    for gname in ("z2", "z3"):
        G = catalog.semigroup(gname)
        for max_len in range(5, 9):
            classes, class_of = acceptance.exel_words_closure(G, max_len)
            assert (classes, class_of) == oracles.exel_words_closure_with_expansions(G, max_len)


def _group(n, mul):
    """The group on range(n) with product mul, as a validated table."""
    return invsemi.validate_inverse_semigroup(
        tuple(str(a) for a in range(n)), [[mul(a, b) for b in range(n)] for a in range(n)])


def test_closure_matches_oracle_on_z4_and_klein_four():
    # words are coded in base n: n = 4 on two groups, the second one with
    # every element its own inverse
    z4 = _group(4, lambda a, b: (a + b) % 4)
    klein = _group(4, lambda a, b: a ^ b)
    for G in (z4, klein):
        for max_len in (4, 5):
            classes, class_of = acceptance.exel_words_closure(G, max_len)
            want_classes, want_class_of = oracles.exel_words_closure_with_expansions(G, max_len)
            assert classes == want_classes
            # in the same length-major lexicographic order of words
            assert list(class_of.items()) == list(want_class_of.items())
