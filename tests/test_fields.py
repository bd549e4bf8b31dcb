import pytest

from ecgraphs import fields
from ecgraphs.constructions import paley
from ecgraphs.fields import FieldError, FiniteField, factor_prime_power
from ecgraphs.graphs import GraphError

# the least irreducible modulus (ascending coefficients, monic) of every
# extension field GF(p^k), k >= 2, up to the order cap
MODULI = {
    4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1), 25: (2, 0, 1),
    27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1), 64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1), 121: (1, 0, 1), 125: (1, 1, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 0, 1), 243: (1, 2, 0, 0, 0, 1), 256: (1, 1, 0, 1, 1, 0, 0, 0, 1), 289: (3, 0, 1),
    343: (2, 0, 0, 1), 361: (1, 0, 1), 512: (1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 529: (1, 0, 1),
    625: (2, 0, 0, 0, 1), 729: (2, 1, 0, 0, 0, 0, 1), 841: (2, 0, 1), 961: (1, 0, 1),
    1024: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 1331: (4, 1, 0, 1), 1369: (2, 0, 1),
    1681: (3, 0, 1), 1849: (1, 0, 1), 2048: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    2187: (2, 0, 1, 0, 0, 0, 0, 1), 2197: (2, 0, 0, 1), 2209: (1, 0, 1), 2401: (1, 1, 0, 0, 1),
    2809: (2, 0, 1), 3125: (1, 4, 0, 0, 0, 1), 3481: (1, 0, 1), 3721: (2, 0, 1),
    4096: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(64) == (2, 6)
    for bad in (1, 6, 12, 100):
        with pytest.raises(FieldError):
            factor_prime_power(bad)


def test_order_cap():
    FiniteField(4096)
    with pytest.raises(FieldError):
        FiniteField(8192)


def test_gf9_multiplicative_group():
    f = FiniteField(9)
    assert all(f.power(x, 8) == 1 for x in range(1, 9))
    assert f.modulus == (1, 0, 1)  # x^2 + 1, the least irreducible over GF(3)


def test_gf5_squares():
    f = FiniteField(5)
    assert {x for x in range(1, 5) if f.is_square(x)} == {1, 4}


def test_gf9_square_count():
    f = FiniteField(9)
    assert sum(1 for x in range(1, 9) if f.is_square(x)) == 4


def test_squares_match_direct_squaring():
    for q in (5, 9, 13, 25, 49):
        f = FiniteField(q)
        direct = {f.mul(x, x) for x in range(1, q)}
        assert {x for x in range(1, q) if f.is_square(x)} == direct


def test_inverse_of_zero():
    with pytest.raises(FieldError):
        FiniteField(7).inverse(0)


def test_out_of_range_elements():
    f = FiniteField(9)
    with pytest.raises(FieldError):
        f.add(9, 0)


def test_field_axioms_sampled(rng):
    for q in (7, 8, 9, 16, 25, 27, 49):
        f = FiniteField(q)
        for _ in range(150):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(f.add(a, b), b) == a
            if a:
                assert f.mul(a, f.inverse(a)) == 1
        assert all(f.mul(1, x) == x for x in range(q))


def test_modulus_is_irreducible_by_trial_division():
    # independent check for the quadratic/cubic cases: no roots in GF(p)
    for q in (9, 25, 27, 49):
        f = FiniteField(q)
        coeffs = f.modulus
        for r in range(f.p):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * r + c) % f.p
            assert acc != 0


def test_char2_everything_is_square():
    f = FiniteField(16)
    assert all(f.is_square(x) for x in range(16))
    squares = {f.mul(x, x) for x in range(16)}
    assert squares == set(range(16))  # Frobenius is a bijection


def test_moduli_pinned():
    found = {}
    for q in range(2, fields.MAX_FIELD_ORDER + 1):
        try:
            _, k = factor_prime_power(q)
        except FieldError:
            continue
        if k >= 2:
            found[q] = FiniteField(q).modulus
    assert found == MODULI


def test_order_bounds_checked_before_factoring(monkeypatch):
    # factoring is a loop up to q, so the size caps must refuse first
    def refuse(q):
        raise AssertionError(f"factored {q}")

    monkeypatch.setattr(fields, "factor_prime_power", refuse)
    with pytest.raises(FieldError):
        FiniteField(5000)
    with pytest.raises(GraphError):
        paley(81)


def test_negative_exponent_inverts():
    f = FiniteField(9)
    for a in range(1, 9):
        assert f.power(a, -1) == f.inverse(a)
        assert f.power(a, -3) == f.inverse(f.power(a, 3))
        assert f.mul(f.power(a, -2), f.power(a, 2)) == 1
    with pytest.raises(FieldError, match="zero has no multiplicative inverse"):
        f.power(0, -1)
