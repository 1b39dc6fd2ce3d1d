import random
from fractions import Fraction

import oracles
import pytest

from germkit import rings


def _sparse(vec):
    return {c: a for c, a in enumerate(vec) if a}


def test_ring_kinds():
    assert rings.RING_Q.is_field()
    assert not rings.RING_Z.is_field()
    assert rings.ring_zmod(5).is_field()
    assert not rings.ring_zmod(6).is_field()


def test_indecomposable():
    assert rings.RING_Q.is_indecomposable()
    assert rings.RING_Z.is_indecomposable()
    assert rings.ring_zmod(5).is_indecomposable()
    assert rings.ring_zmod(4).is_indecomposable()  # prime power: only 0,1 idempotent
    assert not rings.ring_zmod(6).is_indecomposable()  # 3*3 = 3
    assert not rings.ring_zmod(10).is_indecomposable()


def test_arithmetic_normalization():
    R5 = rings.ring_zmod(5)
    assert R5.add(3, 4) == 2
    assert R5.inv(2) == 3
    assert rings.RING_Q.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert rings.RING_Z.inv(-1) == -1
    with pytest.raises(rings.RingError):
        rings.RING_Z.inv(2)
    with pytest.raises(rings.RingError):
        R5.inv(0)


def test_inverse_mod_n_is_gcd_based():
    # every unit of Z/n inverts, every other residue is rejected, prime or not
    for n in (2, 5, 6, 9, 12):
        R = rings.ring_zmod(n)
        for a in range(1, n):
            if rings._gcd(a, n) == 1:
                assert R.mul(a, R.inv(a)) == 1
            else:
                with pytest.raises(rings.RingError, match=f"{a} is not a unit mod {n}"):
                    R.inv(a)


def test_zero_one_and_normalize_allocate_nothing():
    for R in (rings.RING_Q, rings.RING_Z, rings.ring_zmod(7)):
        assert R.zero is R.zero and R.one is R.one
        assert R.zero == 0 and R.one == 1
    q = Fraction(2, 3)
    assert rings.RING_Q.normalize(q) is q
    assert rings.RING_Q.normalize(2) == Fraction(2)
    assert type(rings.RING_Q.zero) is Fraction


def test_parse_ring_spec():
    assert rings.parse_ring_spec("Q") == rings.RING_Q
    assert rings.parse_ring_spec("Z") == rings.RING_Z
    assert rings.parse_ring_spec("Zp:7") == rings.ring_zmod(7)
    with pytest.raises(rings.RingError):
        rings.parse_ring_spec("R")
    for spec in ("Zp:x", "Zp:", "Zp:0", "Zp:1", "Zp:-5"):
        with pytest.raises(rings.BadModulus, match="modulus must be an integer >= 2"):
            rings.parse_ring_spec(spec)


def test_rref_known_matrix():
    R = rings.RING_Q
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, piv = oracles.rref(R, [[R.normalize(v) for v in r] for r in rows])
    assert piv == [0, 1]
    assert len(red) == 2
    # residue of a vector in the span is zero
    res = oracles.reduce_vector(R, [R.normalize(v) for v in [3, 4, 7]], red, piv)
    assert all(v == 0 for v in res)
    res = oracles.reduce_vector(R, [R.normalize(v) for v in [0, 0, 1]], red, piv)
    assert any(v != 0 for v in res)


def test_solve_in_span_field():
    R = rings.RING_Q
    gens = [[1, 1, 0], [0, 1, 1]]
    gens = [[R.normalize(v) for v in g] for g in gens]
    coeffs = rings.span_solver(R, map(_sparse, gens))(_sparse([R.normalize(v) for v in [1, 2, 1]]))
    assert coeffs == {0: 1, 1: 1}
    assert rings.span_solver(R, map(_sparse, gens))(_sparse([R.normalize(v) for v in [1, 0, 1]])) is None


def test_solve_in_span_integers():
    Z = rings.RING_Z
    assert rings.span_solver(Z, map(_sparse, [[2, 0], [0, 3]]))(_sparse([4, 3])) == {0: 2, 1: 1}
    assert rings.span_solver(Z, map(_sparse, [[2, 0], [0, 3]]))(_sparse([1, 0])) is None
    assert rings.span_solver(Z, map(_sparse, [[2, 4]]))(_sparse([1, 2])) is None
    # gcd combination: 3*(2,4) - 1*(5,10) = (1,2)
    coeffs = rings.span_solver(Z, map(_sparse, [[2, 4], [5, 10]]))(_sparse([1, 2]))
    assert coeffs is not None
    _assert_sparse(coeffs, 2)
    got = [coeffs.get(0, 0) * 2 + coeffs.get(1, 0) * 5, coeffs.get(0, 0) * 4 + coeffs.get(1, 0) * 10]
    assert got == [1, 2]


def test_solve_coefficients_reconstruct():
    R = rings.ring_zmod(5)
    gens = [[1, 2, 0], [0, 1, 4]]
    target = [2, 0, 4]  # 2*(1,2,0) + 1*(0,1,4) mod 5
    coeffs = rings.span_solver(R, map(_sparse, gens))(_sparse(target))
    assert coeffs == {0: 2, 1: 1}
    assert _combine(R, coeffs, gens, 3) == [R.normalize(v) for v in target]


def _random_gens(rng, R, m, n):
    """m rows of width n with entries in -3..3; some rows are zero and some
    are combinations of earlier rows."""
    gens = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * n
        elif kind < 0.45 and gens:
            a, b = rng.choice(gens), rng.choice(gens)
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            row = [x * u + y * v for u, v in zip(a, b)]
        else:
            row = [rng.randint(-3, 3) for _ in range(n)]
        gens.append([R.normalize(v) for v in row])
    return gens


def _combine(R, coeffs, gens, n):
    """The dense vector sum of c * gens[j] over the {j: c} coefficients."""
    out = [R.zero] * n
    for j, c in coeffs.items():
        out = [R.add(a, R.mul(c, b)) for a, b in zip(out, gens[j])]
    return out


def _assert_sparse(coeffs, m):
    """A solution names only generators that exist, with nonzero coefficients."""
    assert all(c != 0 for c in coeffs.values())
    assert all(j in range(m) for j in coeffs)


def _targets(rng, R, gens, n):
    """Combinations of the generators, which lie in the span, and random vectors."""
    out = []
    for _ in range(6):
        coeffs = {j: R.normalize(rng.randint(-3, 3)) for j in range(len(gens))}
        out.append(_combine(R, coeffs, gens, n))
        out.append([R.normalize(rng.randint(-3, 3)) for _ in range(n)])
    return out


RING_CASES = {"Q": rings.RING_Q, "Zp:5": rings.ring_zmod(5), "Z": rings.RING_Z}


@pytest.mark.parametrize("spec", ["Q", "Zp:5"])
@pytest.mark.parametrize("seed", range(12))
def test_span_solver_membership_matches_rref_oracle(spec, seed):
    R = RING_CASES[spec]
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    gens = _random_gens(rng, R, rng.randint(0, 7), n)
    red, piv = oracles.rref(R, gens)
    solve = rings.span_solver(R, map(_sparse, gens))
    for target in _targets(rng, R, gens, n) + [[R.zero] * n]:
        member = not any(oracles.reduce_vector(R, target, red, piv))
        assert (solve(_sparse(target)) is not None) == member


@pytest.mark.parametrize("spec", ["Q", "Zp:5", "Z"])
@pytest.mark.parametrize("seed", range(12))
def test_span_solver_coefficients_rebuild_target(spec, seed):
    R = RING_CASES[spec]
    rng = random.Random(100 + seed)
    n = rng.randint(1, 6)
    gens = _random_gens(rng, R, rng.randint(0, 7), n)
    solve = rings.span_solver(R, map(_sparse, gens))
    for k, target in enumerate(_targets(rng, R, gens, n)):
        coeffs = solve(_sparse(target))
        if k % 2 == 0:
            assert coeffs is not None  # a combination of the generators
        if coeffs is not None:
            _assert_sparse(coeffs, len(gens))
            assert _combine(R, coeffs, gens, n) == target


@pytest.mark.parametrize("spec", ["Q", "Zp:5", "Z"])
def test_span_solver_reused_matches_fresh(spec):
    R = RING_CASES[spec]
    rng = random.Random(7)
    gens = _random_gens(rng, R, 6, 5)
    solve = rings.span_solver(R, map(_sparse, gens))
    for target in _targets(rng, R, gens, 5) * 2:
        assert solve(_sparse(target)) == rings.span_solver(R, map(_sparse, gens))(_sparse(target))


def test_span_solver_edge_cases():
    R = rings.RING_Q
    assert rings.span_solver(R, [])(_sparse([R.zero] * 3)) == {}
    assert rings.span_solver(R, [])(_sparse([R.zero, R.one])) is None
    # a target column that no generator has is not in the span
    assert rings.span_solver(R, [{0: 1}])({0: 1, 5: 1}) is None
    with pytest.raises(rings.RingError):
        rings.span_solver(R, [{0: 1}])({-1: 1})
    with pytest.raises(rings.RingError):
        rings.span_solver(R, [{0: 1}, {"x": 1}])
    with pytest.raises(rings.NotAField):
        rings.span_solver(rings.ring_zmod(6), map(_sparse, [[1, 2]]))
    with pytest.raises(rings.NotAField):
        rings.span_solver(rings.ring_zmod(6), [])


@pytest.mark.parametrize("spec", ["Q", "Zp:5", "Z"])
@pytest.mark.parametrize("seed", range(12))
def test_span_solver_matches_dense_coefficient_oracle(spec, seed):
    # the cached pivot inverses and the sparse return change no coefficient:
    # the solution spread over range(len(gens)) is the dense oracle's list
    R = RING_CASES[spec]
    rng = random.Random(200 + seed)
    n = rng.randint(1, 6)
    gens = _random_gens(rng, R, rng.randint(0, 7), n)
    solve = rings.span_solver(R, map(_sparse, gens))
    dense = oracles.dense_span_solver(R, map(_sparse, gens))
    for target in _targets(rng, R, gens, n) + [[R.zero] * n]:
        coeffs, expected = solve(_sparse(target)), dense(_sparse(target))
        if expected is None:
            assert coeffs is None
        else:
            _assert_sparse(coeffs, len(gens))
            assert [coeffs.get(j, R.zero) for j in range(len(gens))] == expected
