"""Exact finite-field and truncated unramified-Witt arithmetic.

F = F_{p^k} with k = f.  Elements are int encodings e = sum d_i p^i where
(d_0, ..., d_{k-1}) are the coordinates in the power basis {1, x, ..., x^{k-1}}
modulo the deterministic minimal irreducible: the lexicographically smallest
monic irreducible of degree k over F_p (candidates ordered by the integer
whose base-p digits are the non-leading coefficients).  The chosen polynomial
is part of every report fingerprint.

O_K/p^N (unramified, degree f) uses the same basis with the coefficients of
the minimal polynomial lifted verbatim to [0, p); elements are coordinate
tuples mod p^N.  Both rings share one polynomial layer, mod any m:
_poly_mulmod, _poly_powmod, power_columns (all powers of one element, by
doubling), and _digits and _encode between encodings and coordinates.

F_q keeps two tables at every q: EXP, the powers of a generator, and LOG,
their discrete logs, built in passes over whole lists.  Products and
negatives add logs (a*b = EXP[LOG a + LOG b]), and sums read the Zech
logarithms Z[n] = LOG[1 + g^n] (Huber, IEEE Trans. Inf. Theory 36(4), 1990),
built on the first addition.
_Packing holds elements as Kronecker-packed ints, whose sums and products
are plain int arithmetic; `packing` picks the slot width of every one.
gauss_jordan records the row operations that reduce the Jacobian of the
chart's linear coordinate change to the identity.  Memo is the one lazy
cache, with two lifetimes: the module-level Memos keep fields, their Zech
tables, Witt rings and packings for the life of the process, and a
RunScope holds the Memos whose values, the charts among them, live only as
long as one run.
"""

from __future__ import annotations

import sys
import threading
from functools import partial, reduce
from itertools import islice, repeat
from operator import add, mod, mul

from .errors import NotAUnit, RangeViolation, SingularJacobian


class Memo(dict):
    """A dict that fills itself: memo[key] is build(*key), built once per key
    and kept.

    A hit is a plain dict lookup.  A miss takes the memo's lock, looks again
    and builds, so threads that miss the same key at once get one object.
    The lock is re-entrant, so a build may look up its own memo; the builds
    of different memos call each other in one order only, so their locks
    cannot deadlock.  A build that raises stores nothing.
    """

    def __init__(self, build):
        super().__init__()
        self.build = build
        self._lock = threading.RLock()

    def __missing__(self, key):
        with self._lock:
            if key not in self:  # another thread may have built it meanwhile
                self[key] = self.build(*key)
            return self.get(key)


class RunScope(dict):
    """The values that the jobs of one run share: scope[build] is the Memo
    of build in this scope, made on first use, so build(*key) runs once per
    key while the scope lives.  A key must hold everything its value
    depends on.  The value is charged to the job that built it."""

    def __missing__(self, build):
        return self.setdefault(build, Memo(build))


def _poly_mulmod(a, b, g, m):
    """a*b in (Z/m)[x]/(x^k + g), g the k non-leading coefficients of the
    monic modulus; a, b and g are sequences of ints.  Each slot is reduced
    mod m once, when it is complete."""
    k = len(g)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % m
        if c:
            for t, gt in enumerate(g):
                if gt:
                    prod[i - k + t] -= c * gt
    return [x % m for x in prod[:k]]


def _poly_powmod(a, n, g, m):
    """a^n in (Z/m)[x]/(x^k + g), n >= 0, by square and multiply."""
    r = [1] + [0] * (len(g) - 1)
    while n:
        if n & 1:
            r = _poly_mulmod(r, a, g, m)
        a = _poly_mulmod(a, a, g, m)
        n >>= 1
    return r


def power_columns(step, count, g, m):
    """The coordinates of step^0, ..., step^(count-1) in (Z/m)[x]/(x^k + g):
    list j holds coordinate j of every power.  The lists grow by doubling:
    when they hold n powers, coordinate i of step^(n+i') is sum_j
    (step^n x^j)_i times entry i' of list j, mod m, a pass over whole lists."""
    k = len(g)
    cols = [[int(j == 0)] for j in range(k)]
    while len(cols[0]) < count:
        need = count - len(cols[0])
        mat = [_poly_mulmod(step, [int(i == j) for i in range(k)], g, m) for j in range(k)]
        terms = [[map(mul, repeat(r[i]), islice(c, need)) for r, c in zip(mat, cols)]
                 for i in range(k)]
        cols = [c + list(map(mod, reduce(partial(map, add), t), repeat(m)))
                for c, t in zip(cols, terms)]
        step = _poly_mulmod(step, step, g, m)
    return cols


def _digits(e, p, k):
    """The k base-p digits of e, least significant first."""
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _encode(cs, p):
    """sum (cs[i] mod p) p^i: the field encoding of coordinates cs."""
    e = 0
    for c in reversed(cs):
        e = e * p + c % p
    return e


def _is_irreducible(g, p):
    """Monic degree-k polynomial with non-leading coeffs g irreducible over F_p."""
    k = len(g)
    x = [0, 1] if k > 1 else [0]
    if k == 1:
        return True
    # x^(p^k) == x mod g, and gcd(x^(p^(k/l)) - x, g) = 1 for prime l | k
    xq = list(x)
    for _ in range(k):
        xq = _poly_powmod(xq, p, g, p)
    if xq != x + [0] * (k - 2):
        return False
    for ell in _prime_divisors(k):
        xe = list(x)
        for _ in range(k // ell):
            xe = _poly_powmod(xe, p, g, p)
        diff = [(u - v) % p for u, v in zip(xe, x + [0] * (k - 2))]
        if _poly_gcd_is_one(diff, g, p) is False:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_gcd_is_one(a, g, p):
    # gcd of a (deg < k) with the monic modulus given by non-leading coeffs g
    b = g + [1]
    a = list(a)
    while any(a):
        # b mod a
        da = max(i for i, c in enumerate(a) if c)
        lead_inv = pow(a[da], p - 2, p)
        b = list(b)
        for i in range(len(b) - 1, da - 1, -1):
            c = b[i]
            if c:
                fac = c * lead_inv % p
                for t in range(da + 1):
                    b[i - da + t] = (b[i - da + t] - fac * a[t]) % p
        b = b[:da] or [0]
        a, b = b, a
    # gcd is b (up to scalar)
    db = [i for i, c in enumerate(b) if c]
    return db == [0]


def minimal_irreducible(p, k):
    """Non-leading coefficients of the first monic irreducible of degree k."""
    for m in range(p**k):
        g = _digits(m, p, k)
        if k > 1 and g[0] == 0:
            continue  # divisible by x
        if _is_irreducible(g, p):
            return tuple(g)
    raise ArithmeticError("no irreducible found (unreachable)")


IRREDUCIBLES = Memo(minimal_irreducible)  # one search per (p, k): field and fingerprint


def _zech_logs(p, EXP, LOG, h):
    """Z[n] = LOG[1 + g^n], None at n = h where 1 + g^h = 0: adding 1 raises
    the lowest base-p digit of an encoding, which wraps from p-1 to 0."""
    Z = [LOG[e + 1 - p * (e % p == p - 1)] for e in EXP]
    Z[h] = None
    return Z


_FIELD_CACHE = Memo(lambda p, k: object.__new__(Fq)._init(p, k))


class Fq:
    """F_{p^k} with int-encoded elements, one instance per (p, k).

    EXP[n] = gen^n is Horner over the k digit lists of power_columns, each
    entry reduced mod p at every doubling, and LOG is its inverse
    permutation.  mul adds logs mod q-1; neg adds h to the log, where -1 =
    gen^h: h = (q-1)/2 for odd p, 0 at p = 2.  add is EXP[LOG a + Z[LOG b -
    LOG a]], Z = zech[()] the Zech logarithms (_zech_logs): zech is a Memo,
    so the first add builds Z, once across threads, and a run that never
    adds never builds it."""

    def __new__(cls, p, k):
        return _FIELD_CACHE[p, k]

    def _init(self, p, k):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.g_coeffs = g = IRREDUCIBLES[p, k]

        # generator: the least element of order q - 1, or 1, the only unit of F_2
        fact = _prime_divisors(q - 1)
        self.generator = gen = next(
            (c for c in range(2, q)
             if all(_encode(_poly_powmod(_digits(c, p, k), (q - 1) // ell, g, p), p) != 1
                    for ell in fact)), 1)
        self.EXP = EXP = list(reduce(lambda e, c: map(add, map(mul, e, repeat(p)), c),
                                     reversed(power_columns(_digits(gen, p, k), q - 1, g, p))))
        self.LOG = LOG = [0] * q
        for n, e in enumerate(EXP):
            LOG[e] = n
        qm, h = q - 1, (q - 1) // 2 if p > 2 else 0
        self.neg = lambda a: a and EXP[(LOG[a] + h) % qm]
        self.mul = lambda a, b: a and b and EXP[(LOG[a] + LOG[b]) % qm]
        self.zech = zech = Memo(lambda: _zech_logs(p, EXP, LOG, h))

        def zech_add(a, b):  # not add: the EXP build above reads operator.add
            if a and b:
                la = LOG[a]
                z = zech[()][(LOG[b] - la) % qm]
                return 0 if z is None else EXP[(la + z) % qm]
            return a or b

        self.add = zech_add
        return self

    def inv(self, a):
        return self.pow(a, -1)

    def div(self, a, b):
        """a / b; NotAUnit when b is 0."""
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if a == 0:
            if n < 0:
                raise NotAUnit("0 has no inverse")
            return 1 if n == 0 else 0
        return self.EXP[(self.LOG[a] * n) % (self.q - 1)]

    def scale_int(self, a, n):
        """n·a for an integer n (prime-field scalar)."""
        return self.mul(a, n % self.p)

    def from_int(self, n):
        return n % self.p

    def units(self):
        return range(1, self.q)

    def coords(self, a):
        return tuple(_digits(a, self.p, self.k))

    def from_coords(self, cs):
        return _encode(cs, self.p)

    def __repr__(self):
        return f"Fq(p={self.p}, k={self.k})"


class _Packing:
    """Kronecker packing of F_q coefficients into single ints.

    The k power-basis digits of an element sit in consecutive `bits`-wide
    slots, so the product of two packed elements is their unreduced
    polynomial product (2k-1 slots) and a sum of packed values or products
    is plain int addition, exact while no slot reaches 2^bits.  `decode`
    turns blocks of such sums back into field encodings: slots mod p, then
    reduction by the minimal polynomial.

    Its users build their blocks with `join`: k-slot element blocks for
    the unit sums of iwasawa, whose packed elements meet only prime-field
    values (the Y_0 sum, at most (p-1)^min(f+1, 4) per unit in a slot, and
    the torus-eigenvector row, (p-1)^2 per unit), and (2k-1)-slot product
    blocks for the row products of _mul_terms, k(p-1)^2 per term pair.
    Each takes its instance from `packing`, which picks every width as a
    byte lane, so `decode` turns many blocks at once.
    """

    def __init__(self, field, bits):
        self.bits = bits
        self.p = p = field.p
        k = field.k
        # field encoding -> packed, by digit spread: e = d + p*e' packs as
        # d | packed(e') << bits
        table = [0]
        for _ in range(k):
            table = [d | t << bits for t in table for d in range(p)]
        self.table = table
        # slot i of a product stands for x^i mod g, so digit j sums the slots
        # times coordinate j of x^i, mod p: (shift, factor) pairs, top digit first
        x_powers = power_columns([0, 1], 2 * k - 1, field.g_coeffs, p)
        self.digit_terms = [[(bits * i, r) for i, r in enumerate(c) if r] for c in x_powers[::-1]]

    def join(self, values, stride):
        """The int whose block i of `stride` slots holds the packed value
        values[i], the layout `decode` reads; each value fits its block."""
        width = stride * self.bits // 8
        return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")

    def decode(self, v, count, stride):
        """The field encodings of the `count` blocks of `stride` slots at the
        bottom of v, for a width of 8, 16, 32 or 64 bits: v is read as an
        array of lanes, one list per slot position by strided slices, and
        digit_terms combine the lists; a slot position past the stride is
        not read, so stride k decodes sums of packed elements.  Slots above
        the blocks are cut off, so a carry gives wrong digits, never an
        error."""
        p, bits = self.p, self.bits
        n = count * stride * bits
        lanes = memoryview((v & (1 << n) - 1).to_bytes(n // 8, sys.byteorder)).cast(
            _LANE_FORMATS[bits])
        if sys.byteorder == "big":
            lanes = lanes[::-1]
        out = None
        for terms in self.digit_terms:
            t = None
            for shift, r in terms:
                if shift < stride * bits:
                    col = lanes[shift // bits::stride]
                    col = col.tolist() if r == 1 else list(map(mul, col, repeat(r)))
                    t = col if t is None else list(map(add, t, col))
            t = map(mod, t, repeat(p))
            out = list(t) if out is None else list(map(add, map(mul, out, repeat(p)), t))
        return out


_LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}
_PACKINGS = Memo(_Packing)


def packing(field, per_term, terms):
    """The _Packing of `field` whose slots hold a sum of `terms` nonnegative
    values, each at most `per_term`, without carrying into the next slot.

    A slot is the narrowest byte lane (_LANE_FORMATS) of at least the bit
    length of per_term*terms; wider than 64 bits raises RangeViolation.  One
    instance per (field, width) is built for the process."""
    bits = (per_term * terms).bit_length()
    lane = next((w for w in _LANE_FORMATS if w >= bits), None)
    if lane is None:
        raise RangeViolation(f"a {bits}-bit slot is wider than any byte lane")
    return _PACKINGS[field, lane]


def gauss_jordan(field, rows):
    """The row operations E_k of the Gauss-Jordan elimination of a small
    matrix over F_q (list of lists of encodings), with E_n...E_1 rows = I, in
    order: (i, j, c) adds c times row j to row i, (i, i, c) scales row i by c.
    A zero pivot gets a lower row added, so no rows are exchanged; a singular
    matrix raises SingularJacobian."""
    n = len(rows)
    m = [list(r) for r in rows]
    ops = []

    def op(i, j, c):
        ops.append((i, j, c))
        scaled = [field.mul(c, w) for w in m[j]]
        m[i] = scaled if i == j else list(map(field.add, m[i], scaled))

    for col in range(n):
        if not m[col][col]:
            piv = next((r for r in range(col + 1, n) if m[r][col]), None)
            if piv is None:
                raise SingularJacobian("matrix is singular")
            op(col, piv, 1)
        if m[col][col] != 1:
            op(col, col, field.inv(m[col][col]))
        for r in range(n):
            if r != col and m[r][col]:
                op(r, col, field.neg(m[r][col]))
    return ops


def witt_precision(p, D):
    """Digit count N for residue characteristic p at series cutoff D: the
    least N with p^(N-1) > D.

    _binomial_product needs p^N >= depth for each depth it is asked for, at
    most D; N keeps one guard digit beyond that.
    """
    N = 2
    while p ** (N - 1) <= D:
        N += 1
    return N


_WITT_CACHE = Memo(lambda p, f, N: object.__new__(WittRing)._init(p, f, N))


class WittRing:
    """O_K/p^N: unramified degree-f extension truncated at p^N, one instance
    per (p, f, N).

    Elements are coordinate tuples of length f mod p^N in the power basis,
    with the residue field's minimal polynomial lifted to integer
    coefficients in [0, p); products and powers are F_q's polynomial
    arithmetic mod p^N.
    """

    def __new__(cls, p, f, N):
        return _WITT_CACHE[p, f, N]

    def _init(self, p, f, N):
        self.p = p
        self.f = f
        self.N = N
        self.pN = p**N
        self.field = Fq(p, f)
        self.one = (1,) + (0,) * (f - 1)
        return self

    def mul(self, a, b):
        return tuple(_poly_mulmod(a, b, self.field.g_coeffs, self.pN))

    def pow(self, a, n):
        return tuple(_poly_powmod(a, n, self.field.g_coeffs, self.pN))

    def reduce_mod_p(self, a):
        """Residue-field encoding of a mod p."""
        return _encode(a, self.p)

    def is_unit(self, a):
        return self.reduce_mod_p(a) != 0

    def teichmuller(self, e):
        """Multiplicative lift [e] of the field element with encoding e: any
        lift y of e has y^(q^n) = [e] mod p^(n+1), so [e] = y^(q^(N-1))."""
        return self.pow(self.field.coords(e), self.field.q ** (self.N - 1))

    def unit_decompose(self, u):
        """u = [a0]·u1 with u1 = 1 mod p; returns (a0 encoding, u1 tuple).
        The lift is multiplicative, so [a0]^-1 = [a0^-1]; a0 = 0 raises
        NotAUnit."""
        a0 = self.reduce_mod_p(u)
        return a0, self.mul(u, self.teichmuller(self.field.inv(a0)))

    def __repr__(self):
        return f"WittRing(p={self.p}, f={self.f}, N={self.N})"
