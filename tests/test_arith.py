import hashlib
import itertools
import os
import random
import subprocess
import sys
import threading
import time

import pytest
from sympy import ZZ, Poly, Symbol, factorint
from sympy.polys.galoistools import (
    gf_add,
    gf_gcdex,
    gf_mul,
    gf_neg,
    gf_pow_mod,
    gf_rem,
    gf_strip,
)

import modpcheck
from modpcheck import arith
from modpcheck.arith import (
    Fq,
    Memo,
    WittRing,
    minimal_irreducible,
    witt_precision,
)
from modpcheck.errors import NotAUnit
from modpcheck.harness import RunConfig, run_suite


def zp_coordinates(ring, y):
    """Coordinates of y in the power basis {1, x, ..., x^{f-1}} mod p^N."""
    return tuple(c % ring.pN for c in y)


def _oracle_irreducible(g, p):
    """Trial-division irreducibility for degree <= 3 (no proper factor has
    degree >= 2 without a linear one, so root-freeness decides deg 2 and 3)."""
    k = len(g)
    if k == 1:
        return True

    def ev(x):
        v = 0
        for c in reversed((*g, 1)):
            v = (v * x + c) % p
        return v

    return all(ev(x) != 0 for x in range(p)) if k <= 3 else None


def test_minimal_irreducible_is_first():
    for p, k in ((11, 1), (13, 2), (17, 3)):
        g = minimal_irreducible(p, k)
        assert _oracle_irreducible(list(g), p)
        # nothing smaller works
        m_found = sum(c * p**i for i, c in enumerate(g))
        for m in range(m_found):
            cand = []
            mm = m
            for _ in range(k):
                cand.append(mm % p)
                mm //= p
            assert not _oracle_irreducible(cand, p)


def test_minimal_irreducible_frozen_values():
    assert minimal_irreducible(11, 1) == (0,)
    # x^2 + 2 over F_13: -1 and -2 ... -1 is a square (5^2), -2 is not
    assert minimal_irreducible(13, 2) == (2, 0)


def _axioms(field, sample):
    for a in sample:
        for b in sample:
            assert field.mul(a, b) == field.mul(b, a)
            assert field.add(a, b) == field.add(b, a)
            for c in sample[:6]:
                assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
                assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_field_axioms_small():
    F = Fq(13, 2)
    _axioms(F, list(range(0, F.q, 7)) + [1, 12, 168])
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0


def test_field_axioms_f3_sampled():
    F = Fq(17, 3)
    rng = random.Random(1)
    sample = [rng.randrange(F.q) for _ in range(12)]
    _axioms(F, sample)
    for a in sample:
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0


def test_frobenius():
    for p, k in ((11, 1), (13, 2), (17, 3)):
        F = Fq(p, k)
        rng = random.Random(2)
        for _ in range(30):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))
            assert F.pow(F.mul(a, b), F.p) == F.mul(F.pow(a, F.p), F.pow(b, F.p))
            assert F.pow(a, F.p ** k) == a  # order divides k
        for c in range(p):  # prime field fixed
            assert F.pow(c, F.p) == c


def test_witt_precision_rule():
    assert witt_precision(11, 40) == 3
    assert witt_precision(13, 30) == 3
    assert witt_precision(17, 34) == 3
    assert witt_precision(11, 1) == 2
    assert witt_precision(11, 0) == 2
    assert witt_precision(11, 11) == 3


def test_teichmuller_fixed_point_and_reduction():
    # N = 2, 3, 4 are the precisions that runs use
    for (p, f), N in itertools.product(((11, 1), (13, 2), (17, 3)), (2, 3, 4)):
        R = WittRing(p, f, N)
        sample = range(1, R.field.q) if R.field.q <= 200 else random.Random(3).sample(range(1, R.field.q), 40)
        for x in sample:
            y = R.teichmuller(x)
            assert R.pow(y, R.field.q) == y
            assert R.reduce_mod_p(y) == x
        assert R.teichmuller(0) == (0,) * f


def test_teichmuller_multiplicative():
    R = WittRing(13, 2, 3)
    for a in range(1, R.field.q, 5):
        for b in range(1, R.field.q, 7):
            assert R.mul(R.teichmuller(a), R.teichmuller(b)) == R.teichmuller(R.field.mul(a, b))
    R3 = WittRing(17, 3, 3)
    rng = random.Random(4)
    for _ in range(60):
        a, b = rng.randrange(1, R3.field.q), rng.randrange(1, R3.field.q)
        assert R3.mul(R3.teichmuller(a), R3.teichmuller(b)) == R3.teichmuller(R3.field.mul(a, b))


def test_f1_matches_plain_zp():
    # degree-1 Witt ring is Z/p^N; Teichmuller is x^(p^(N-1))
    p = 11
    for N in (2, 3, 4):
        R = WittRing(p, 1, N)
        for x in range(1, p):
            assert R.teichmuller(x) == (pow(x, p ** (N - 1), p**N),)
        a, b = (123 % p**N,), (4567 % p**N,)
        assert R.mul(a, b) == ((a[0] * b[0]) % p**N,)


def test_zp_coordinates_linear():
    R = WittRing(13, 2, 3)
    rng = random.Random(5)
    for _ in range(40):
        u = tuple(rng.randrange(R.pN) for _ in range(2))
        v = tuple(rng.randrange(R.pN) for _ in range(2))
        cu, cv = zp_coordinates(R, u), zp_coordinates(R, v)
        cs = zp_coordinates(R, tuple((x + y) % R.pN for x, y in zip(u, v)))
        assert cs == tuple((x + y) % R.pN for x, y in zip(cu, cv))


def test_unit_decompose():
    for (p, f), N in itertools.product(((11, 1), (13, 2), (17, 3)), (2, 3, 4)):
        R = WittRing(p, f, N)
        rng = random.Random(6)
        for _ in range(25):
            u = tuple(rng.randrange(R.pN) for _ in range(f))
            if not R.is_unit(u):
                with pytest.raises(NotAUnit):
                    R.unit_decompose(u)
                continue
            a0, u1 = R.unit_decompose(u)
            assert R.reduce_mod_p(u1) == 1
            assert all((c - e) % p == 0 for c, e in zip(u1, R.one))
            assert R.mul(R.teichmuller(a0), u1) == u


# --- WittRing against sympy's ZZ[x] arithmetic -------------------------------
# The oracle multiplies in ZZ[x], divides by the monic lift of the minimal
# polynomial and only then reduces the coefficients mod p^N.


def _zz_oracle(R):
    x = Symbol("x")
    modulus = Poly([1, *reversed(R.field.g_coeffs)], x, domain=ZZ)

    def reduce(poly):
        coeffs = poly.rem(modulus).all_coeffs()[::-1]
        return tuple(c % R.pN for c in coeffs + [0] * (R.f - len(coeffs)))

    def poly(a):
        return Poly(list(reversed(a)), x, domain=ZZ)

    return poly, reduce


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("p,f", [(13, 2), (17, 3)])
def test_witt_mul_and_pow_match_sympy(p, f, N):
    R = WittRing(p, f, N)
    poly, reduce = _zz_oracle(R)
    rng = random.Random(p * 10 + N)
    for _ in range(40):
        a = tuple(rng.randrange(R.pN) for _ in range(f))
        b = tuple(rng.randrange(R.pN) for _ in range(f))
        assert R.mul(a, b) == reduce(poly(a) * poly(b)), (a, b)
        n = rng.randrange(12)
        assert R.pow(a, n) == reduce(poly(a) ** n), (a, n)


def test_field_construction_deterministic():
    F1 = Fq(13, 2)
    F2 = Fq(13, 2)
    assert F1 is F2  # cached
    assert F1.g_coeffs == (2, 0)
    assert Fq(17, 3).g_coeffs == minimal_irreducible(17, 3)


# sha256 of repr([g_coeffs, generator, EXP, LOG, neg of every a] + for q <= 169
# [add, mul of every pair]), each pair list flat with (a, b) at a*q + b
FIELD_TABLE_DIGESTS = {
    (11, 1): "725cc533b3e72b549594d553e359bdfbb529604b1451d204c6e967e33ed68084",
    (13, 2): "2ab2d9681476ae596b5778e5f697bfd9a66acc35f0e6efbcfa70ce170e44ee48",
    (17, 3): "8902a3cd096ba4277e0d0342a64ac79ca1ee97d416b6a5c50b057be2c06101fd",
    (23, 4): "30df1943e13a4769f91934b0e9f1e46a3ec9a255ed8e2bad292c7ea4a88d5dbe",
}


@pytest.mark.parametrize("p,k", sorted(FIELD_TABLE_DIGESTS))
def test_field_tables_are_pinned(p, k):
    F = Fq(p, k)
    q = F.q
    tables = [F.g_coeffs, F.generator, F.EXP, F.LOG, list(map(F.neg, range(q)))]
    if q <= 169:
        tables += [[op(a, b) for a in range(q) for b in range(q)] for op in (F.add, F.mul)]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == FIELD_TABLE_DIGESTS[p, k]


# --- Fq against sympy's dense GF(p)[x] arithmetic ---------------------------
# The oracle shares no code with Fq: it decodes the int encodings itself and
# reduces products and Bezout inverses modulo the chosen polynomial with
# sympy.polys.galoistools (coefficient lists, leading coefficient first).


def _gf_poly(e, p, k):
    coeffs = []
    for _ in range(k):
        coeffs.append(e % p)
        e //= p
    return gf_strip(coeffs[::-1])


def _gf_encode(poly, p):
    e = 0
    for c in poly:
        e = e * p + c % p
    return e


class _GFOracle:
    def __init__(self, p, k):
        self.p, self.k = p, k
        self.modulus = [1, *reversed(minimal_irreducible(p, k))]

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = gf_mul(_gf_poly(a, p, k), _gf_poly(b, p, k), p, ZZ)
        return _gf_encode(gf_rem(prod, self.modulus, p, ZZ), p)

    def inv(self, b):
        s, _, h = gf_gcdex(_gf_poly(b, self.p, self.k), self.modulus, self.p, ZZ)
        assert h == [1]
        return _gf_encode(gf_rem(s, self.modulus, self.p, ZZ), self.p)

    def add(self, a, b):
        p, k = self.p, self.k
        return _gf_encode(gf_add(_gf_poly(a, p, k), _gf_poly(b, p, k), p, ZZ), p)

    def neg(self, a):
        return _gf_encode(gf_neg(_gf_poly(a, self.p, self.k), self.p, ZZ), self.p)

    def has_full_order(self, a):
        # a^((q-1)/l) != 1 for every prime l dividing q - 1
        p, q = self.p, self.p**self.k
        return all(gf_pow_mod(_gf_poly(a, p, self.k), (q - 1) // ell, self.modulus, p, ZZ) != [1]
                   for ell in factorint(q - 1))


def _oracle_pairs(F):
    if F.q <= 11:
        return [(a, b) for a in range(F.q) for b in range(F.q)]
    rng = random.Random(F.q)
    zeros = [(0, 0), *((0, c) for c in (1, 2, F.q - 1)), *((c, 0) for c in (1, 2, F.q - 1))]
    return zeros + [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 3), (11, 1), (13, 2), (17, 3),
                                 (37, 2), (101, 1), (8191, 1)])
def test_fq_matches_sympy_galoistools(p, k):
    # every field multiplies and negates by its log tables and adds by its
    # digit loop; above q = 11 the pairs are sampled, plus zero operands
    F, oracle = Fq(p, k), _GFOracle(p, k)
    q = F.q
    assert Poly(oracle.modulus, Symbol("x"), modulus=p).is_irreducible
    # the generator is the least unit of order q - 1, EXP lists its powers
    # and LOG inverts EXP
    assert [c for c in range(1, F.generator + 1) if oracle.has_full_order(c)] == [F.generator]
    assert F.EXP[0] == 1
    assert all(F.EXP[n + 1] == oracle.mul(F.EXP[n], F.generator) for n in range(q - 2))
    assert sorted(F.EXP) == list(range(1, q))
    assert all(F.LOG[e] == n for n, e in enumerate(F.EXP))
    assert all(F.neg(a) == oracle.neg(a) for a in range(q))
    for a, b in _oracle_pairs(F):
        assert F.add(a, b) == oracle.add(a, b), (a, b)
        assert F.mul(a, b) == oracle.mul(a, b), (a, b)
        if b:
            assert F.inv(b) == oracle.inv(b), b
            assert F.div(a, b) == oracle.mul(a, oracle.inv(b)), (a, b)
    with pytest.raises(NotAUnit):
        F.div(1, 0)
    with pytest.raises(NotAUnit):
        F.div(0, 0)


# --- Zech-logarithm addition --------------------------------------------------


def digit_add(field, a, b):
    """a + b by the base-p digits of the encodings: the loop Fq added with
    before it read Zech logarithms, kept as their reference."""
    p = field.p
    e = 0
    mul = 1
    for _ in range(field.k):
        e += ((a + b) % p) * mul
        a //= p
        b //= p
        mul *= p
    return e


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (11, 1), (13, 2), (17, 3), (23, 4)])
def test_zech_add_matches_digit_loop_and_sympy(p, k):
    # all pairs up to q = 11, else sampled pairs with zero operands; each
    # first operand also meets itself (Z at 0) and its negative (Z is None)
    F, oracle = Fq(p, k), _GFOracle(p, k)
    pairs = _oracle_pairs(F)
    pairs += [(a, c) for a, _ in pairs[:200] for c in (a, F.neg(a))]
    for a, b in pairs:
        assert F.add(a, b) == digit_add(F, a, b) == oracle.add(a, b), (a, b)
    assert F.add(F.neg(1), 1) == F.add(1, F.neg(1)) == 0
    assert len(F.zech[()]) == F.q - 1
    assert [n for n, z in enumerate(F.zech[()]) if z is None] == [(F.q - 1) // 2 if p > 2 else 0]


def test_identities_run_leaves_the_zech_table_unbuilt():
    # a fresh interpreter, so that no field of an earlier test is reused:
    # the identities sweep multiplies in F_169 but never adds
    code = ("from modpcheck.arith import Fq\n"
            "from modpcheck.harness import RunConfig, run_suite\n"
            "rep = run_suite(RunConfig(p=13, f=2, r=(5, 6), suites=('identities',)))\n"
            "assert rep.passed and rep.suites\n"
            "import modpcheck.arith as arith\n"
            "assert (13, 2) in arith._FIELD_CACHE\n"
            "print(() not in Fq(13, 2).zech)\n")
    src = os.path.dirname(os.path.dirname(modpcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True\n"


def test_concurrent_first_adds_build_the_zech_table_once(monkeypatch):
    # four threads make the first addition of a fresh field at once: Z is
    # built once, and every thread gets the sums of the digit loop
    built = []
    right = arith._zech_logs

    def slow_build(*args):
        built.append(args[0])
        time.sleep(0.01)  # hold the build open while the others arrive
        return right(*args)

    monkeypatch.setattr(arith, "_zech_logs", slow_build)
    F = object.__new__(Fq)._init(17, 3)
    rng = random.Random(7)
    pairs = [(rng.randrange(1, F.q), rng.randrange(1, F.q)) for _ in range(500)]
    want = [digit_add(F, a, b) for a, b in pairs]
    start = threading.Barrier(4)
    got = {}
    errors = []

    def work(t):
        try:
            start.wait(timeout=30)
            got[t] = [F.add(a, b) for a, b in pairs]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert built == [17]
    assert all(got[t] == want for t in range(4))


def test_irreducible_search_runs_once_per_field(monkeypatch):
    # the field build and the report fingerprint read one search
    calls = []
    monkeypatch.setattr(arith.IRREDUCIBLES, "build",
                        lambda p, k: calls.append((p, k)) or minimal_irreducible(p, k))
    monkeypatch.delitem(arith.IRREDUCIBLES, (13, 2), raising=False)
    monkeypatch.setattr(arith, "_FIELD_CACHE", Memo(arith._FIELD_CACHE.build))
    F = Fq(13, 2)
    rep = run_suite(RunConfig(p=13, f=2, r=(5, 6), suites=("weights",)))
    assert rep.fingerprint["field"]["poly"] == list(F.g_coeffs) == [2, 0]
    assert calls == [(13, 2)]
