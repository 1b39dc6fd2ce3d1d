import functools
import random
from math import comb, factorial

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germkit import ResourceLimit, catalog, germs, graph, invsemi, paction


Z2 = catalog.semigroup("z2")
Z3 = catalog.semigroup("z3")
CHAIN2 = catalog.semigroup("chain2")
I2 = catalog.semigroup("i2")
SE = catalog.semigroup("se-edge")


def test_validate_group_case():
    assert Z2.idempotents == (0,)
    assert Z2.inverse == (0, 1)
    assert Z2.zero is None


def test_validate_semilattice_case():
    assert CHAIN2.idempotents == (0, 1)
    assert CHAIN2.inverse == (0, 1)


def test_left_zero_band_rejected():
    # both elements satisfy the inverse equations for x, so the inverse of x
    # is not unique
    with pytest.raises(invsemi.NonUniqueInverse) as exc:
        invsemi.validate_inverse_semigroup(["x", "y"], [[0, 0], [1, 1]])
    i, j1, j2 = exc.value.witness
    assert (i, j1, j2) == (0, 0, 1)


def test_non_associative_rejected():
    # rock-paper-scissors: (r p) s = s but r (p s) = r
    tbl = [[0, 1, 0], [1, 1, 2], [0, 2, 2]]
    with pytest.raises(invsemi.NotAssociative) as exc:
        invsemi.validate_inverse_semigroup(["r", "p", "s"], tbl)
    i, j, k = exc.value.witness
    assert tbl[tbl[i][j]][k] != tbl[i][tbl[j][k]]


def test_out_of_range_entry_rejected():
    with pytest.raises(invsemi.SemigroupError):
        invsemi.validate_inverse_semigroup(["x"], [[3]])


def test_natural_leq_group_is_equality():
    for s in range(2):
        for t in range(2):
            assert invsemi.natural_leq(Z2, s, t) == (s == t)


def test_natural_leq_in_i2():
    id1 = I2.index("[1>1]")
    id12 = I2.index("[1>1 2>2]")
    assert invsemi.natural_leq(I2, id1, id12)
    assert not invsemi.natural_leq(I2, id12, id1)


def test_zero_below_everything():
    zero = SE.zero
    assert zero is not None
    for s in range(len(SE)):
        assert invsemi.natural_leq(SE, zero, s)


def test_compatible_meet_reflexive():
    for S in (Z2, CHAIN2, I2):
        for s in range(len(S)):
            assert invsemi.compatible_meet(S, s, s) == s


def test_compatible_meet_of_idempotents():
    e, f = 0, 1
    assert invsemi.compatible_meet(CHAIN2, e, f) == CHAIN2.mul(e, f)


def test_incompatible_pair_in_i2():
    # id_{1} and the map 2 -> 1 share no consistent join: s t* is not idempotent
    s = I2.index("[1>1]")
    t = I2.index("[2>1]")
    assert not invsemi.is_compatible(I2, s, t)
    assert invsemi.compatible_meet(I2, s, t) is None


def test_e_unitary_group_and_semilattice():
    assert invsemi.is_e_unitary(Z2) == (True, None)
    assert invsemi.is_e_unitary(CHAIN2) == (True, None)


def test_e_unitary_graph_semigroup_fails():
    flag, (e, s) = invsemi.is_e_unitary(SE)
    assert not flag
    assert SE.is_idempotent(e)
    assert invsemi.natural_leq(SE, e, s)
    assert not SE.is_idempotent(s)


def test_e_unitary_matches_compatibility_form():
    for name in catalog.SEMIGROUP_NAMES:
        S = catalog.semigroup(name)
        assert invsemi.is_e_unitary(S)[0] == invsemi.e_unitary_via_compatibility(S)[0]


def test_weak_semilattice_family():
    flag, family = invsemi.is_weak_semilattice(I2)
    assert flag
    for (s, t), maxima in family.items():
        clb = invsemi.common_lower_bounds(I2, s, t)
        # maxima form an antichain covering the common lower bounds
        for u in clb:
            assert any(invsemi.natural_leq(I2, u, m) for m in maxima)
        for m in maxima:
            assert not any(v != m and invsemi.natural_leq(I2, m, v) for v in maxima)


def test_weak_semilattice_e_unitary_singleton():
    _, family = invsemi.is_weak_semilattice(Z3)
    assert all(len(f) <= 1 for f in family.values())


def test_weak_semilattice_empty_family():
    _, family = invsemi.is_weak_semilattice(Z2)
    assert family[(0, 1)] == ()


def test_max_group_image_of_group():
    gi = invsemi.max_group_image(Z3)
    assert len(gi.group) == 3
    assert gi.class_of == (0, 1, 2)


def test_max_group_image_semilattice_trivial():
    assert len(invsemi.max_group_image(CHAIN2).group) == 1
    assert len(invsemi.max_group_image(catalog.semigroup("chain3")).group) == 1


def test_max_group_image_with_zero_trivial():
    assert len(invsemi.max_group_image(SE).group) == 1
    assert len(invsemi.max_group_image(I2).group) == 1  # empty map is a zero


def _all_homs_into(S, H):
    """Enumerate all maps S -> H that are semigroup homomorphisms."""
    from itertools import product

    n, m = len(S), len(H)
    for img in product(range(m), repeat=n):
        if all(img[S.mul(s, t)] == H.mul(img[s], img[t]) for s in range(n) for t in range(n)):
            yield img


def test_max_group_image_universal_property():
    # every homomorphism into a group factors through classOf
    targets = [Z2, Z3]
    for name in ("z2", "z3", "chain2", "chain3", "sz2", "se-edge", "i2"):
        S = catalog.semigroup(name)
        if len(S) > 8:
            continue
        gi = invsemi.max_group_image(S)
        for H in targets:
            for psi in _all_homs_into(S, H):
                for s in range(len(S)):
                    for t in range(len(S)):
                        if gi.class_of[s] == gi.class_of[t]:
                            assert psi[s] == psi[t]


def test_exel_sizes():
    # oracle-derived: the relations force eps_g [g] = [g], so
    # |S(G)| = sum over g of 2^(|G| - |{1,g}|)
    assert len(invsemi.exel_semigroup(Z2).semigroup) == 3
    assert len(invsemi.exel_semigroup(Z3).semigroup) == 8


def test_exel_too_large():
    with pytest.raises(ResourceLimit):
        invsemi.exel_semigroup(Z3, max_elements=4)


def test_exel_commutation_identity():
    # [g] eps_r = eps_{gr} [g]
    for G in (Z2, Z3):
        ex = invsemi.exel_semigroup(G)
        S = ex.semigroup
        one = G.idempotents[0]
        for g in range(len(G)):
            for r in range(len(G)):
                if r == one:
                    continue
                eps_r = S.mul(ex.of_group[r], ex.of_group[G.inv(r)])
                gr = G.mul(g, r)
                lhs = S.mul(ex.of_group[g], eps_r)
                if gr == one:
                    rhs = ex.of_group[g]
                else:
                    eps_gr = S.mul(ex.of_group[gr], ex.of_group[G.inv(gr)])
                    rhs = S.mul(eps_gr, ex.of_group[g])
                assert lhs == rhs


def test_exel_is_e_unitary():
    for G in (Z2, Z3):
        ex = invsemi.exel_semigroup(G)
        assert invsemi.is_e_unitary(ex.semigroup) == (True, None)


def test_exel_group_image_is_the_group():
    # g -> [[g]] is a group isomorphism G -> G(S(G))
    for G in (Z2, Z3):
        ex = invsemi.exel_semigroup(G)
        gi = invsemi.max_group_image(ex.semigroup)
        emb = {g: gi.class_of[ex.of_group[g]] for g in range(len(G))}
        assert len(set(emb.values())) == len(G) == len(gi.group)
        for g in range(len(G)):
            for h in range(len(G)):
                assert emb[G.mul(g, h)] == gi.group.mul(emb[g], emb[h])


def test_symmetric_inverse_semigroup_sizes():
    # sum over k of C(n,k)^2 k!
    S1, _ = invsemi.symmetric_inverse_semigroup(1)
    assert len(S1) == 2
    S2, _ = invsemi.symmetric_inverse_semigroup(2)
    assert len(S2) == 7
    with pytest.raises(ResourceLimit):
        invsemi.symmetric_inverse_semigroup(4, max_elements=100)


def test_symmetric_inverse_is_function_inverse():
    S, maps = invsemi.symmetric_inverse_semigroup(2)
    for i, f in enumerate(maps):
        assert maps[S.inv(i)] == oracles.invert_partial(f)


def test_munn_semilattice_is_identity_on_downset():
    m = invsemi.munn_representation(CHAIN2)
    for s in range(len(CHAIN2)):
        for x, y in m.maps[s].items():
            assert x == y  # ses* = se = meet for idempotent s in a semilattice


def test_munn_of_group_single_point():
    m = invsemi.munn_representation(Z3)
    assert len(m.carrier) == 1
    assert all(m.maps[g] == {0: 0} for g in range(3))


def test_munn_validates_for_all_catalog():
    for name in catalog.SEMIGROUP_NAMES:
        m = invsemi.munn_representation(catalog.semigroup(name))
        assert m.is_global


def test_restricted_product_of_group_is_one_unit():
    rp = invsemi.restricted_product_groupoid(Z3)
    assert len(rp.units) == 1
    assert sum(map(len, rp.compose)) == 9


def test_restricted_product_of_semilattice_units_only():
    rp = invsemi.restricted_product_groupoid(CHAIN2)
    assert set(rp.units) == {0, 1}
    assert [set(row) for row in rp.compose] == [{0}, {1}]


def test_restricted_product_composable_count_i2():
    # oracle: s.t is defined iff dom(s) = ran(t), counted from the partial
    # bijection payloads, independent of the Cayley table
    S, maps = invsemi.symmetric_inverse_semigroup(2)
    expected = sum(
        1
        for f in maps
        for g in maps
        if set(f.domain()) == set(g.codomain())
    )
    assert expected == 13
    rp = invsemi.restricted_product_groupoid(S)
    assert sum(map(len, rp.compose)) == expected


def test_self_action_is_global_and_free():
    for name in catalog.SEMIGROUP_NAMES:
        sa = invsemi.canonical_self_action(catalog.semigroup(name))
        assert sa.is_global
        # freeness is automatic: st = t forces tt* <= s
        assert paction.dynamics_report(sa).free


def test_self_action_zero_in_lambda():
    sa = invsemi.canonical_self_action(SE)
    zero = SE.zero
    s = next(s for s in range(len(SE)) if not SE.is_idempotent(s))
    assert zero in sa.maps[SE.inv(s)]  # 0 in D_{s*}
    assert sa.maps[s][zero] == zero
    assert zero in paction.dynamics_report(sa).lambda_points


def test_algebraic_identities_all_catalog():
    for name in catalog.SEMIGROUP_NAMES:
        S = catalog.semigroup(name)
        for s in range(len(S)):
            assert S.is_idempotent(S.mul(s, S.inv(s)))
            assert S.is_idempotent(S.mul(S.inv(s), s))
            for t in range(len(S)):
                assert S.inv(S.mul(s, t)) == S.mul(S.inv(t), S.inv(s))
        for e in S.idempotents:
            for f in S.idempotents:
                assert S.mul(e, f) == S.mul(f, e)


def test_validator_fuzz_never_crashes():
    # random tables are either accepted (and then satisfy the inverseaxioms)
    # or rejected with a typed error carrying a witness
    import random

    rng = random.Random(11)
    accepted = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        tbl = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        try:
            S = invsemi.validate_inverse_semigroup([f"x{i}" for i in range(n)], tbl)
        except invsemi.SemigroupError as err:
            assert err.witness is not None or str(err)
            continue
        accepted += 1
        for i in range(n):
            j = S.inv(i)
            assert S.prod(i, j, i) == i and S.prod(j, i, j) == j
    assert accepted >= 1  # trivial one-element tables do appear


def test_order_preserved_by_products_and_inverse():
    for name in ("z2", "chain3", "sz2", "se-edge", "i2"):
        S = catalog.semigroup(name)
        pairs = [
            (s, t)
            for s in range(len(S))
            for t in range(len(S))
            if invsemi.natural_leq(S, s, t)
        ]
        for s, t in pairs:
            assert invsemi.natural_leq(S, S.inv(s), S.inv(t))
            for u in range(len(S)):
                assert invsemi.natural_leq(S, S.mul(u, s), S.mul(u, t))
                assert invsemi.natural_leq(S, S.mul(s, u), S.mul(t, u))


def _ladder_semigroup(name):
    if name == "i3":
        return invsemi.symmetric_inverse_semigroup(3)[0]
    if name == "i4":
        return invsemi.symmetric_inverse_semigroup(4)[0]
    if name == "sz5":
        z5 = invsemi.validate_inverse_semigroup(
            [str(i) for i in range(5)], [[(i + j) % 5 for j in range(5)] for i in range(5)]
        )
        return invsemi.exel_semigroup(z5).semigroup
    return catalog.semigroup(name)


@pytest.mark.parametrize("name", catalog.SEMIGROUP_NAMES + ("i3", "i4", "sz5"))
def test_order_table_matches_defining_formula(name):
    # the order is a table lookup now, so the defining formula s = t s* s is
    # written out here as the independent oracle for it and for its readers
    S = _ladder_semigroup(name)
    n = len(S)
    down = [frozenset(s for s in range(n) if S.prod(t, S.inv(s), s) == s) for t in range(n)]
    for s in range(n):
        for t in range(n):
            assert invsemi.natural_leq(S, s, t) == (s in down[t])
            assert bool(S.below[t] >> s & 1) == (s in down[t])
    assert all(S.below[t] >> n == 0 for t in range(n))

    family = {}
    compat_witness = None
    for s in range(n):
        for t in range(s, n):
            clb = sorted(down[s] & down[t])
            assert invsemi.common_lower_bounds(S, s, t) == clb
            family[(s, t)] = tuple(
                u for u in clb if not any(v != u and u in down[v] for v in clb)
            )
            if compat_witness is None and clb and not invsemi.is_compatible(S, s, t):
                compat_witness = (s, t)
    assert invsemi.is_weak_semilattice(S) == (True, family)
    expected = (True, None) if compat_witness is None else (False, compat_witness)
    assert invsemi.e_unitary_via_compatibility(S) == expected

    # minimum group congruence: connected components of "common lower bound",
    # numbered by least member
    label = [None] * n
    classes = 0
    for s in range(n):
        if label[s] is None:
            label[s] = classes
            stack = [s]
            while stack:
                a = stack.pop()
                for b in range(n):
                    if label[b] is None and down[a] & down[b]:
                        label[b] = classes
                        stack.append(b)
            classes += 1
    assert invsemi.max_group_image(S).class_of == tuple(label)


def test_union_find_least_member_roots():
    import random

    rng = random.Random(3)
    n = 40
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(25)]
    root = invsemi.union_find(n, iter(pairs))
    # classes by a plain graph search
    adj = {i: set() for i in range(n)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for b in adj[stack.pop()] - seen:
                seen.add(b)
                stack.append(b)
        assert root[i] == min(seen)
        assert {j for j in range(n) if root[j] == root[i]} == seen
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert invsemi.union_find(n, shuffled) == root
    assert invsemi.union_find(n, [(j, i) for i, j in shuffled]) == root
    noisy = pairs + [(i, i) for i in range(n)] + pairs
    assert invsemi.union_find(n, noisy) == root
    assert invsemi.union_find(n, []) == tuple(range(n))


@st.composite
def _sized_pairs(draw):
    n = draw(st.integers(1, 60))
    point = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(point, point), max_size=3 * n))


@settings(max_examples=300, deadline=None, database=None)
@given(_sized_pairs())
@example((1, []))
@example((1, [(0, 0)]))
@example((5, []))
@example((5, [(3, 3), (1, 1)]))
@example((6, [(4, 2), (4, 2), (2, 4), (5, 0), (0, 5)]))
@example((6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
def test_union_find_matches_graph_search(case):
    n, pairs = case
    assert invsemi.union_find(n, pairs) == oracles.connected_components(n, pairs)


# --- associativity: Light's test against the exhaustive triple scan -----------

def _assert_same_associativity_outcome(elements, table):
    """validate_inverse_semigroup decides associativity exactly as the
    exhaustive scan does, with the same message and least witness.  Returns
    whether the table is associative."""
    expected = oracles.first_non_associative(elements, table)
    try:
        invsemi.validate_inverse_semigroup(elements, table)
    except invsemi.NotAssociative as err:
        assert expected == (str(err), err.witness)
        return False
    except invsemi.SemigroupError:
        # inverse checks run only on tables already found associative
        assert expected is None
        return True
    assert expected is None
    return True


def test_associativity_matches_oracle_on_every_3_element_operation():
    from itertools import product

    names = ("x0", "x1", "x2")
    associative = 0
    for flat in product(range(3), repeat=9):
        table = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        associative += _assert_same_associativity_outcome(names, table)
    assert associative == 113  # the associative operations on a labelled 3-set


def _cyclic(n):
    return invsemi.validate_inverse_semigroup(
        [str(i) for i in range(n)], [[(i + j) % n for j in range(n)] for i in range(n)]
    )


def _corruption_instances():
    instances = {name: catalog.semigroup(name) for name in catalog.SEMIGROUP_NAMES}
    instances["i3"] = invsemi.symmetric_inverse_semigroup(3)[0]
    for n in (3, 4, 5):
        instances[f"sz{n}"] = invsemi.exel_semigroup(_cyclic(n)).semigroup
    return instances


@pytest.mark.parametrize("name", sorted(_corruption_instances()))
def test_associativity_matches_oracle_on_corrupted_tables(name):
    import random

    S = _corruption_instances()[name]
    n = len(S)
    rng = random.Random(f"corrupt-{name}")
    assert _assert_same_associativity_outcome(S.elements, S.table)
    outcomes = set()
    for _ in range(40):
        table = [list(row) for row in S.table]
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        outcomes.add(_assert_same_associativity_outcome(S.elements, table))
    if n > 3:
        assert False in outcomes


def _compose_after(f, g):
    fd = dict(f.mapping)
    return tuple(sorted((x, fd[y]) for x, y in g.mapping if y in fd))


def _symmetric_pairwise_table(maps):
    index = {f.mapping: i for i, f in enumerate(maps)}
    return tuple(tuple(index[_compose_after(f, g)] for g in maps) for f in maps)


@pytest.mark.parametrize("n", range(5))
def test_symmetric_table_matches_pairwise_composition(n):
    S, maps = invsemi.symmetric_inverse_semigroup(n)
    assert len({f.mapping for f in maps}) == len(S) == sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    assert S.table == _symmetric_pairwise_table(maps)


def _exel_pairwise_table(G, forms):
    one = G.idempotents[0]
    index = {fg: i for i, fg in enumerate(forms)}

    def mul(a, b):
        (R, g), (Q, h) = a, b
        gh = G.mul(g, h)
        return (frozenset((R | {G.mul(g, q) for q in Q} | {g}) - {one, gh}), gh)

    return tuple(tuple(index[mul(a, b)] for b in forms) for a in forms)


@pytest.mark.parametrize("G", [_cyclic(n) for n in range(1, 7)] + [Z2, Z3])
def test_exel_table_matches_pairwise_product_rule(G):
    ex = invsemi.exel_semigroup(G)
    assert ex.semigroup.table == _exel_pairwise_table(G, ex.forms)


def test_tabulate_from_generators():
    for G in (Z2, Z3, _cyclic(6)):
        # element 1 generates each of these cyclic groups
        assert tuple(invsemi.tabulate(range(len(G)), G.mul, [1])) == G.table
    # the identity alone generates only itself
    _, maps = invsemi.symmetric_inverse_semigroup(2)
    ident = next(f for f in maps if f.mapping == ((0, 0), (1, 1)))
    with pytest.raises(invsemi.SemigroupError, match="do not generate"):
        invsemi.tabulate(maps, invsemi.compose_partial, [ident])
    # the 3-cycle, its square (a product of the first) and a rank 2
    # idempotent reach no permutation but the powers of the cycle: the
    # least index they miss is reported, as by the breadth-first walk
    S, maps = invsemi.symmetric_inverse_semigroup(3)
    cycle = invsemi.PartialBijection(((0, 1), (1, 2), (2, 0)))
    gens = [cycle, invsemi.compose_partial(cycle, cycle), invsemi.PartialBijection(((1, 1), (2, 2)))]
    with pytest.raises(invsemi.SemigroupError) as want:
        oracles.right_steps(S.table, [maps.index(f) for f in gens])
    with pytest.raises(invsemi.SemigroupError, match="do not generate") as got:
        invsemi.tabulate(maps, invsemi.compose_partial, gens)
    assert got.value.witness == want.value.witness
    # the same generators with a transposition added do generate
    swap = invsemi.PartialBijection(((0, 1), (1, 0), (2, 2)))
    assert invsemi.tabulate(maps, invsemi.compose_partial, gens + [swap]) == S.table


def test_symmetric_inverse_semigroup_of_five_points():
    S, maps = invsemi.symmetric_inverse_semigroup(5, max_elements=1546)
    assert len(S) == len(maps) == 1546
    assert len(S.idempotents) == 32
    for i in (0, 1, 200, 1545):
        assert maps[S.inv(i)] == oracles.invert_partial(maps[i])


def test_munn_action_of_five_points_validates():
    # 19091 pairs: the equality over the 3 generators proves the laws that
    # the all-pairs scan would check on |S| * |L| = 29.5M items
    S, _ = invsemi.symmetric_inverse_semigroup(5, max_elements=1546)
    m = invsemi.munn_representation(S)
    assert len(m.carrier) == 32
    assert len(m.pairs()) == 19091
    assert m.is_global


def test_symmetric_too_large_is_refused_before_enumerating():
    # |I_10| = 234662231: counted in closed form, never listed
    with pytest.raises(ResourceLimit, match=r"^\|I\(X\)\| = 234662231 exceeds 600$"):
        invsemi.symmetric_inverse_semigroup(10)


@pytest.mark.parametrize("n", range(6))
def test_validate_over_construction_generators_matches_derived(n):
    # I_n is built without validation; validating its table gives the same
    # semigroup: table, inverses, idempotents, zero and every below row
    S = invsemi.symmetric_inverse_semigroup(n, max_elements=1546)[0]
    T = invsemi.validate_inverse_semigroup(S.elements, S.table)
    assert (T, T.below) == (S, S.below)


def test_order_and_inverses_match_defining_formulas_on_five_points():
    S, maps = invsemi.symmetric_inverse_semigroup(5, max_elements=1546)
    n = len(S)
    for s in range(n):
        assert maps[S.inv(s)] == oracles.invert_partial(maps[s])
    for s in range(0, n, 13):  # every rank, by the defining formula s = t s* s
        ss = S.mul(S.inv(s), s)
        above = [t for t in range(n) if S.mul(t, ss) == s]
        assert [t for t in range(n) if invsemi.natural_leq(S, s, t)] == above


def test_importing_invsemi_loads_no_other_layer():
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(invsemi.__file__))
    code = (
        "import sys, germkit.invsemi\n"
        "print(sorted(m for m in sys.modules if m.startswith('germkit.')))\n"
        "import germkit\n"
        "print(germkit.algebra.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split("\n")[:2] == ["['germkit.invsemi']", "germkit.algebra"]


def _full_transformations(n):
    from itertools import product

    maps = list(product(range(n), repeat=n))
    index = {f: i for i, f in enumerate(maps)}
    return [str(f) for f in maps], [[index[tuple(g[f[x]] for x in range(n))] for g in maps] for f in maps]


def _associative_tables():
    """Associative tables, inverse or not: every associative operation on a
    3-set, T_2 and T_3 (regular, idempotents do not commute), a 2x2
    rectangular band, a null semigroup, and the inverse ones of the ladder."""
    from itertools import product

    for flat in product(range(3), repeat=9):
        table = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        if oracles.first_non_associative("abc", table) is None:
            yield ("x0", "x1", "x2"), table
    for n in (2, 3):
        yield _full_transformations(n)
    yield "abcd", [[(i & 2) | (j & 1) for j in range(4)] for i in range(4)]
    yield "zab", [[0] * 3 for _ in range(3)]
    for S in [*_corruption_instances().values(), invsemi.symmetric_inverse_semigroup(4)[0]]:
        yield S.elements, S.table


def test_inverses_match_oracle_on_associative_tables():
    # inverses are read along a generating set; every outcome, witness and
    # message included, is the one of trying every j for every i
    kinds = set()
    for elements, table in _associative_tables():
        expected = oracles.generalized_inverses(elements, table)
        try:
            S = invsemi.validate_inverse_semigroup(elements, table)
        except (invsemi.NoInverse, invsemi.NonUniqueInverse) as err:
            assert (str(err), err.witness) == expected
            kinds.add(type(err))
            continue
        assert S.inverse == expected
        kinds.add(invsemi.InverseSemigroup)
    assert kinds == {invsemi.NoInverse, invsemi.NonUniqueInverse, invsemi.InverseSemigroup}


def test_inverses_of_inverse_semigroup_are_read_along_generators(monkeypatch):
    # the candidate search runs once per generator, never per element, when
    # (x a)* = a* x* holds all along
    S, maps = invsemi.symmetric_inverse_semigroup(4)
    searched = []
    search = invsemi._inverse_candidates

    def counting(tbl, i, col_i):
        searched.append(i)
        return search(tbl, i, col_i)

    monkeypatch.setattr(invsemi, "_inverse_candidates", counting)
    T = invsemi.validate_inverse_semigroup(S.elements, S.table)
    assert T.inverse == S.inverse
    assert len(searched) == len(T.gens) < len(S)


def _seeded_subsemigroup(seed, npts=4):
    """The inverse subsemigroup of I_npts generated by seeded partial
    bijections and their inverses: for an even seed two random ones, which
    mostly generate a zero; for an odd seed a permutation and the identity
    on a union of its cycles, which leave a nontrivial group image."""
    import random

    rng = random.Random(seed)
    if seed % 2 == 0:
        maps = []
        for _ in range(2):
            dom = rng.sample(range(npts), rng.randint(1, npts))
            maps.append(tuple(sorted(zip(dom, rng.sample(range(npts), len(dom))))))
    else:
        perm = rng.sample(range(npts), npts)
        block, x = {0}, perm[0]
        while x not in block:
            block.add(x)
            x = perm[x]
        maps = [tuple(enumerate(perm)), tuple((x, x) for x in sorted(block))]
    gens = []
    for mapping in maps:
        f = invsemi.PartialBijection(mapping)
        gens += [f, oracles.invert_partial(f)]
    items = list(dict.fromkeys(gens))
    seen = set(items)
    for x in items:  # grows while scanned: closure under right products
        for g in gens:
            y = invsemi.compose_partial(x, g)
            if y not in seen:
                seen.add(y)
                items.append(y)
    names = [str(f.mapping) for f in items]
    tbl = invsemi.tabulate(items, invsemi.compose_partial, gens)
    return invsemi.validate_inverse_semigroup(names, tbl)


def _group_image_instances():
    instances = {name: catalog.semigroup(name) for name in catalog.SEMIGROUP_NAMES}
    for n in (3, 4):
        instances[f"i{n}"] = invsemi.symmetric_inverse_semigroup(n)[0]
    for n in (5, 6, 7):
        instances[f"sz{n}"] = invsemi.exel_semigroup(_cyclic(n)).semigroup
    for seed in range(8):
        instances[f"sub-i4-{seed}"] = _seeded_subsemigroup(seed)
    return instances


def test_max_group_image_classes_match_pair_scan():
    # union-find over u <= s gives the classes of the all-pairs common lower
    # bound scan, numbered by least member
    for name, S in _group_image_instances().items():
        root = oracles.min_group_congruence_by_pairs(S)
        number = {r: k for k, r in enumerate(sorted(set(root)))}
        assert invsemi.max_group_image(S).class_of == tuple(number[r] for r in root), name


def _partitions(S, seed):
    """Labelled partitions of S: the minimum group congruence, the trivial and
    universal ones, Green's L and R (one-sided congruences only), and two
    seeded merges of a few classes of the trivial partition."""
    import random

    n = len(S)
    rng = random.Random(seed)
    yield "group", invsemi.max_group_image(S).class_of
    yield "trivial", tuple(range(n))
    yield "universal", (0,) * n
    yield "L", tuple(S.mul(S.inv(s), s) for s in range(n))
    yield "R", tuple(S.mul(s, S.inv(s)) for s in range(n))
    for k in range(2):
        label = list(range(n))
        for _ in range(1 + k):
            s, t = rng.randrange(n), rng.randrange(n)
            old = label[t]
            label = [label[s] if c == old else c for c in label]
        yield f"merge{k}", tuple(label)


def test_congruence_failure_matches_pair_scan():
    # the check over S.gens with the pair scan as its fallback gives the scan's
    # verdict and first witness, on congruences and on partitions that are not
    failing = 0
    for seed, (name, S) in enumerate(_group_image_instances().items()):
        for kind, class_of in _partitions(S, seed):
            want = oracles.congruence_failure_by_pairs(S, class_of)
            assert invsemi.congruence_failure(S, class_of) == want, (name, kind)
            failing += want is not None
            if kind in ("group", "trivial", "universal"):
                assert want is None, (name, kind)
    assert failing >= 20



# --- one closure over generators, against the three walks it replaced --------

@functools.cache
def _closure_table(name):
    if name == "i4":
        return invsemi.symmetric_inverse_semigroup(4)[0]
    if name == "sz7":
        return invsemi.exel_semigroup(_cyclic(7)).semigroup
    if name == "chain120":  # a semilattice: almost every element is a generator
        return invsemi.validate_inverse_semigroup(
            [str(i) for i in range(120)], [[min(i, j) for j in range(120)] for i in range(120)])
    return catalog.semigroup(name)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_validation_scans_the_identity_last(n):
    # the identity of I_n is the product of other elements, so it joins no
    # validated generating set: n of them, not n + 1; Z_5 needs only 1
    S, maps = invsemi.symmetric_inverse_semigroup(n, max_elements=1546)
    identity = maps.index(invsemi.PartialBijection(tuple((x, x) for x in range(n))))
    gens = invsemi.validate_inverse_semigroup(S.elements, S.table).gens
    assert identity not in gens and len(gens) == n
    assert _cyclic(5).gens == (1,)


@pytest.mark.parametrize("name", [*catalog.SEMIGROUP_NAMES, "i4", "sz7", "chain120"])
def test_closure_of_a_table_matches_the_walks_it_replaced(name):
    S = _closure_table(name)
    gens, steps = invsemi.table_closure(S.table)
    assert gens == oracles.generating_set(S.table)
    assert oracles.closure_walk_failure(S.table, gens, steps) is None
    assert invsemi.validate_inverse_semigroup(S.elements, S.table).gens == tuple(gens)
    # over the generators S was validated with, both walks reach everything
    oracles.right_steps(S.table, S.gens)
    one_unit = (0,) * len(S)
    given, steps = invsemi.closure(S.table, [*S.gens, *range(len(S))], one_unit, one_unit)
    assert tuple(given) == S.gens
    assert oracles.closure_walk_failure(S.table, given, steps) is None


def _construction_gens(n):
    points = range(n)
    gens = [invsemi.PartialBijection(tuple((x, (x + 1) % n) for x in points))]
    if n >= 1:
        gens.append(invsemi.PartialBijection(tuple((x, x) for x in points[1:])))
    if n >= 2:
        gens.append(invsemi.PartialBijection(((0, 1), (1, 0)) + tuple((x, x) for x in points[2:])))
    return gens


def _refuse(*args):
    raise AssertionError("a constructor tabulated or validated its own table")


def test_constructors_agree_with_validated_tables(monkeypatch):
    # I_0..I_5 and S(Z_1)..S(Z_8) are built with `tabulate`, Light's test
    # and the validator made to raise: inverses, idempotents, zero, order
    # and gens come from the model.  Each then agrees, field by field and
    # row by row, with its materialised table validated, and that table
    # with the pairwise product rule (I_5's: against the validated one only)
    groups = [_cyclic(n) for n in range(1, 9)]
    with monkeypatch.context() as m:
        for name in ("tabulate", "_light_test", "validate_inverse_semigroup"):
            m.setattr(invsemi, name, _refuse)
        built = [invsemi.symmetric_inverse_semigroup(n, max_elements=1546) for n in range(6)]
        exels = [invsemi.exel_semigroup(G) for G in groups]
    cases = [(S, tuple(dict.fromkeys(maps.index(g) for g in _construction_gens(n))),
              None if n == 5 else _symmetric_pairwise_table(maps))
             for n, (S, maps) in enumerate(built)]
    cases += [(ex.semigroup, tuple(ex.forms.index((frozenset(), g)) for g in range(len(ex.group))),
               _exel_pairwise_table(ex.group, ex.forms)) for ex in exels]
    for S, gens, pairwise in cases:
        T = invsemi.validate_inverse_semigroup(S.elements, S.table)
        assert S.elements == T.elements
        assert S.inverse == T.inverse
        assert S.idempotents == T.idempotents
        assert S.zero == T.zero
        assert S.below == T.below
        assert S.gens == gens
        assert S.table == T.table and (pairwise is None or S.table == pairwise)
        assert (S, hash(S)) == (T, hash(T))
    assert [ex.of_group for ex in exels] == [S.gens for S, _, _ in cases[6:]]


def test_every_constructor_builds_the_one_semigroup_class():
    # no subclass, and nothing on the class named like the instance
    # attribute S.mul and S.prod load, which would keep the interpreter from
    # specialising that load
    z3 = catalog.semigroup("z3")
    built = [invsemi.validate_inverse_semigroup(z3.elements, z3.table),
             invsemi.symmetric_inverse_semigroup(3)[0],
             invsemi.exel_semigroup(z3).semigroup,
             graph.graph_semigroup(catalog.graphs("fan"))[0],
             germs.ample_semigroup(catalog.groupoid("pair")).semigroup]
    assert [type(S) for S in built] == [invsemi.InverseSemigroup] * len(built)
    for S in built:
        S.mul(0, 0)
        for method in (invsemi.InverseSemigroup.mul, invsemi.InverseSemigroup.prod):
            loaded = [name for name in method.__code__.co_names if name in vars(S)]
            assert loaded == ["_table"]
            assert not any(hasattr(invsemi.InverseSemigroup, name) for name in loaded)


def test_constructors_reach_past_the_table(monkeypatch):
    # I_6 (177.6M table entries) and S(Z_10) are built with `tabulate`
    # refused; |below| summed over S is |L| of the Munn action
    monkeypatch.setattr(invsemi, "tabulate", _refuse)
    S, maps = invsemi.symmetric_inverse_semigroup(6, max_elements=13327)
    assert len(S) == len(maps) == 13327 == sum(comb(6, k) ** 2 * factorial(k) for k in range(7))
    assert sum(b.bit_count() for b in S.below) == 291793 == sum(
        comb(6, k) ** 2 * factorial(k) * 2 ** k for k in range(7))
    assert maps[S.zero].mapping == ()
    ex = invsemi.exel_semigroup(_cyclic(10))
    assert len(ex.semigroup) == 2816
    assert sum(b.bit_count() for b in ex.semigroup.below) == 3 ** 9 + 9 * 3 ** 8 == 78732
    assert ex.semigroup.zero is None
    with pytest.raises(ResourceLimit, match=r"^\|I\(X\)\| = 13327 exceeds 13326$"):
        invsemi.symmetric_inverse_semigroup(6, max_elements=13326)


def test_is_idempotent_reads_no_table(monkeypatch):
    # with `tabulate` refused, reading the table would raise
    monkeypatch.setattr(invsemi, "tabulate", _refuse)
    S, maps = invsemi.symmetric_inverse_semigroup(4)
    assert [s for s in range(len(S)) if S.is_idempotent(s)] == list(S.idempotents)
    monkeypatch.undo()
    assert all(S.is_idempotent(s) == (S.mul(s, s) == s) for s in range(len(S)))


@settings(max_examples=60, deadline=None, database=None)
@given(_sized_pairs())
def test_closure_matches_the_walks_on_subsemigroups_of_i4(case):
    # the inverse subsemigroup of I_4 generated by the elements the drawn
    # pairs index, and its restricted product groupoid
    n, pairs = case
    S = _closure_table("i4")
    picked = {(n * i + j) % len(S) for i, j in pairs} | {n % len(S)}
    letters = sorted(picked | {S.inv(s) for s in picked})
    items = list(letters)
    for x in items:  # grows while scanned: closure under right products
        for a in letters:
            y = S.mul(x, a)
            if y not in items:
                items.append(y)
    pos = {x: k for k, x in enumerate(items)}
    tbl = [[pos[S.mul(x, y)] for y in items] for x in items]
    names = [S.elements[x] for x in items]
    gens, steps = invsemi.table_closure(tbl)
    assert gens == oracles.generating_set(tbl)
    assert oracles.closure_walk_failure(tbl, gens, steps) is None
    T = invsemi.validate_inverse_semigroup(names, tbl)
    assert T.gens == tuple(gens)
    G = invsemi.restricted_product_groupoid(T)
    assert G.gens == tuple(oracles.partial_generating_set(G.compose, G.source, G.target))


def _relabelled(S, rng):
    """S's table with its elements shuffled by rng, validated."""
    order = list(range(len(S)))  # old index at each new position
    rng.shuffle(order)
    new = {s: k for k, s in enumerate(order)}
    return invsemi.validate_inverse_semigroup(
        [S.elements[s] for s in order], [[new[S.mul(a, b)] for b in order] for a in order])


def test_d_is_s_star_s_on_every_constructor():
    # d[s] = s*s, and the idempotents derived from d are the s with ss = s
    catalog_semigroups = [catalog.semigroup(name) for name in catalog.SEMIGROUP_NAMES]
    built = [invsemi.validate_inverse_semigroup(S.elements, S.table) for S in catalog_semigroups]
    built += [invsemi.symmetric_inverse_semigroup(n, max_elements=1546)[0] for n in range(6)]
    groups = [_cyclic(n) for n in range(1, 8)] + [S for S in catalog_semigroups if invsemi.is_group(S)]
    built += [invsemi.exel_semigroup(G).semigroup for G in groups]
    rng = random.Random(32)
    graphs = [g for g in map(catalog.graphs, catalog.GRAPH_NAMES) if not graph.has_cycle(g)]
    graphs += [oracles.seeded_dag(rng, rng.randint(2, 6), rng.randint(0, 8)) for _ in range(10)]
    built += [graph.graph_semigroup(g)[0] for g in graphs]
    built += [germs.ample_semigroup(catalog.groupoid(name)).semigroup for name in catalog.GROUPOID_NAMES]
    built += [invsemi.max_group_image(S).group for S in built[:20]]
    assert len(built) == 20 + 2 + len(graphs) + len(catalog.GROUPOID_NAMES) + 20
    for S in built:
        assert S.d == tuple(S.mul(S.inv(s), s) for s in range(len(S)))
        assert S.idempotents == tuple(s for s in range(len(S)) if S.mul(s, s) == s)


def test_munn_representation_is_the_one_from_products():
    # read off the natural order, against s e s* by products, key order
    # included; the relabelled copies have u -> u*u decreasing along below[s]
    semigroups = [catalog.semigroup(name) for name in catalog.SEMIGROUP_NAMES]
    I3, I4 = (invsemi.symmetric_inverse_semigroup(n)[0] for n in (3, 4))
    semigroups += [I3, I4, invsemi.exel_semigroup(_cyclic(5)).semigroup,
                   invsemi.exel_semigroup(_cyclic(6)).semigroup]
    rng = random.Random(32)
    semigroups += [_relabelled(I3, rng) for _ in range(20)] + [_relabelled(I4, rng) for _ in range(4)]
    for S in semigroups:
        theta, old = invsemi.munn_representation(S), oracles.munn_by_products(S)
        assert theta.carrier == old.carrier and theta.domains == old.domains
        assert [list(m.items()) for m in theta.maps] == [list(m.items()) for m in old.maps]
