import pytest

from germkit import catalog, invsemi, paction


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
    with pytest.raises(invsemi.TooLarge):
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
    with pytest.raises(invsemi.TooLarge):
        invsemi.symmetric_inverse_semigroup(4, max_elements=100)


def test_symmetric_inverse_is_function_inverse():
    S, maps = invsemi.symmetric_inverse_semigroup(2)
    for i, f in enumerate(maps):
        assert maps[S.inv(i)] == invsemi.invert_partial(f)


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
    assert len(rp.compose) == 9


def test_restricted_product_of_semilattice_units_only():
    rp = invsemi.restricted_product_groupoid(CHAIN2)
    assert set(rp.units) == {0, 1}
    assert set(rp.compose) == {(0, 0), (1, 1)}


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
    assert len(rp.compose) == expected


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
