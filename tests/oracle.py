"""F_q, truncated series over it, the Teichmuller lifts, n(g), the
eigencoordinates Y_j, their unit images and the chart conversion y_to_t,
each computed from its definition, sharing no code with ``modpcheck``.

The package builds Y_0 as one packed sum over Lucas rows and Y_j as the
coefficientwise p^j-th power of Y_0.  This module knows none of that.  It
takes F_q = F_p[x]/(g) with g the least monic irreducible of degree f, as
the ``arith`` docstring fixes it: candidates ordered by the integer whose
base-p digits are the non-leading coefficients, each tested by sympy's
``gf_irreducible_p``.  It lifts g verbatim to Z/p^N, multiplies
polynomials mod (g, p^N) itself, lifts a unit a to [a] by iterating
y -> y^q from its digits (after n steps y = [a] mod p^(n+1)), and reads the
coefficient of T^beta in Y_j = sum_{a != 0} a^(-p^j) n([a]) as

    sum_{a != 0} a^(-p^j) prod_l C(c_l([a]), beta_l) mod p,

with ``math.comb`` on the whole lift coordinates c_l([a]).  The image
u(Y_j) of a unit u is the same sum over the lifts multiplied by u.  N is
its own choice: the least N with p^N >= depth, which the binomials need,
plus one guard digit.

A series is a dict {exponent tuple: encoding}, an element of F_q its
encoding sum_i d_i p^i in the power basis.  A product of series multiplies
the digit vectors of every pair of terms in Z[x], sums them per exponent
and reduces each sum mod (g, p) once; a power is repeated products, the
binomial series sum_t C(n, t) v^t takes exact falling-factorial binomials,
and n(g) and the Hasse derivative D^gamma take ``math.comb``.  y_to_t is
sum_m c_m Y^m, with Y^m = prod_j Y_j^(m_j) a product of the Y_j above.

Ring elements are coordinate lists; a coordinate may be an int or a numpy
array holding that coordinate of every unit at once, so one call raises
all q - 1 units to the same power.
"""

import functools
import itertools
import math

import numpy as np
from sympy import ZZ
from sympy.polys.galoistools import gf_irreducible_p


@functools.cache
def modulus(p, f):
    """The non-leading coefficients (g_0, ..., g_{f-1}) of the least monic
    irreducible x^f + g_{f-1} x^{f-1} + ... + g_0 over F_p."""
    for n in range(p**f):
        g = digits(n, p, f)
        if gf_irreducible_p([1, *reversed(g)], p, ZZ):
            return tuple(g)
    raise AssertionError(f"no irreducible of degree {f} over F_{p}")


def mul(a, b, g, m):
    """a*b in (Z/m)[x]/(x^f + g_{f-1} x^{f-1} + ... + g_0)."""
    f = len(g)
    prod = [0] * (2 * f - 1)
    for i in range(f):
        for j in range(f):
            prod[i + j] = prod[i + j] + a[i] * b[j]
    return reduce_mod(prod, g, m)


def reduce_mod(prod, g, m):
    """The polynomial prod[0] + prod[1] x + ..., of degree below 2f - 1,
    mod (g, m)."""
    f, prod = len(g), list(prod)
    for d in range(len(prod) - 1, f - 1, -1):  # x^d = -x^(d-f) (g_0 + ... + g_{f-1} x^{f-1})
        c = prod[d] % m
        for i in range(f):
            prod[d - f + i] = prod[d - f + i] - c * g[i]
    return [c % m for c in prod[:f]]


def power(a, n, g, m):
    """a^n, n >= 0, by square and multiply."""
    out = [1] + [0] * (len(g) - 1)
    while n:
        if n & 1:
            out = mul(out, a, g, m)
        a = mul(a, a, g, m)
        n >>= 1
    return out


def units(p, f):
    """The digits of every unit a = 1, ..., q-1 (the encoding
    a = sum_i a_i p^i): f arrays, array i holding digit i of each."""
    return digits(np.arange(1, p**f, dtype=np.int64), p, f)


def encode(digits, p):
    return sum(int(d) % p * p**i for i, d in enumerate(digits))


def digits(e, p, f):
    """The f base-p digits of the encoding e, least significant first."""
    return [e // p**i % p for i in range(f)]


def field_mul(a, b, p, f):
    return encode(mul(digits(a, p, f), digits(b, p, f), modulus(p, f), p), p)


def field_add(a, b, p, f):
    return encode([x + y for x, y in zip(digits(a, p, f), digits(b, p, f))], p)


def field_inv(a, p, f):
    """a^(q-2), the inverse of a unit."""
    return encode(power(digits(a, p, f), p**f - 2, modulus(p, f), p), p)


def digits_needed(p, depth):
    """The least N with p^N >= depth, plus one guard digit."""
    n = 0
    while p**n < depth:
        n += 1
    return n + 1


@functools.cache
def teichmuller_lifts(p, f, n):
    """The coordinates of [a] mod p^n for every unit a, as in `units`:
    y -> y^q iterated n times from the digits of a."""
    g, pn = modulus(p, f), p**n
    assert f * pn**2 < 2**63, "the products of two coordinates overflow int64"
    y = units(p, f)
    for _ in range(n):
        y = power(y, p**f, g, pn)
    return y


def monomials(f, depth):
    """Every exponent beta of total degree below depth."""
    return [b for b in itertools.product(range(depth), repeat=f) if sum(b) < depth]


def eigencoordinates(p, f, depth, betas=None):
    """[{beta: encoding of the coefficient of T^beta in Y_j} for j < f],
    zero coefficients left out, over `betas` (default every monomial of
    degree below depth)."""
    return _weighted_sums(p, f, depth, teichmuller_lifts(p, f, digits_needed(p, depth)), betas)


def unit_images(p, f, depth, u):
    """The same for u(Y_j) = sum_{a != 0} a^(-p^j) n(u*[a]), u a unit of
    O_K given by its coordinates: each lift is multiplied by u mod p^N."""
    n = digits_needed(p, depth)
    lifts = mul(teichmuller_lifts(p, f, n), [c % p**n for c in u], modulus(p, f), p**n)
    return _weighted_sums(p, f, depth, lifts)


def _weighted_sums(p, f, depth, lifts, betas=None):
    """[{beta: sum_a a^(-p^j) prod_l C(c_l, beta_l) mod p} for j < f], the
    c_l the coordinates `lifts` holds for every unit a, as in `units`."""
    q, g = p**f, modulus(p, f)
    betas = monomials(f, depth) if betas is None else betas
    # C(c_l, m) mod p for every coordinate l, m < depth and unit a
    binomials = [np.array([[math.comb(c, m) % p for c in coord.tolist()] for m in range(depth)])
                 for coord in lifts]
    # the coefficient of T^beta in n(c), prod_l C(c_l, beta_l) mod p: one
    # row per beta, one column per unit
    rows = np.array([math.prod(b[m] for b, m in zip(binomials, beta)) % p for beta in betas])
    out = []
    for j in range(f):
        weights = power(units(p, f), -p**j % (q - 1), g, p)  # a^(-p^j), digit by digit
        coeffs = rows @ np.stack(weights, axis=1) % p
        out.append({beta: e for beta, c in zip(betas, coeffs) if (e := encode(c, p))})
    return out


def truncate(xt, bound):
    return {k: c for k, c in xt.items() if sum(k) < bound}


def series_sum(p, f, xt, yt, c=1):
    """x + c*y."""
    out = dict(xt)
    for k, v in yt.items():
        out[k] = field_add(out.get(k, 0), field_mul(c, v, p, f), p, f)
    return {k: v for k, v in out.items() if v}


def series_product(p, f, xt, yt, bound=math.inf):
    """The terms of x*y below total degree `bound`: the digit vectors of
    every pair of terms multiplied in Z[x], summed per exponent, and each
    sum reduced mod (g, p) once."""
    ys = [(ky, sum(ky), digits(cy, p, f)) for ky, cy in yt.items()]
    sums = {}
    for kx, cx in xt.items():
        dx, room = digits(cx, p, f), bound - sum(kx)
        for ky, deg, dy in ys:
            if deg < room:
                acc = sums.setdefault(tuple(map(sum, zip(kx, ky))), [0] * (2 * f - 1))
                for i, a in enumerate(dx):
                    for j, b in enumerate(dy):
                        acc[i + j] += a * b
    g = modulus(p, f)
    return {k: e for k, acc in sums.items() if (e := encode(reduce_mod(acc, g, p), p))}


def series_power(p, f, xt, n, bound=math.inf):
    """x^n below `bound`, n >= 0: n products from the constant 1, x^m cut
    below bound - (n-m)*min(fdeg x, 0), as the factor x^(n-m) beside it
    lowers a degree by no more."""
    low = min([0, *map(sum, xt)])
    out = {(0,) * f: 1}
    for m in range(1, n + 1):
        out = series_product(p, f, out, xt, bound - (n - m) * low)
    return truncate(out, bound)


def binomial_series(p, f, vt, n, bound):
    """(1 + v)^n below a finite bound, for every term of v of degree >= 1
    and any integer n: sum_t C(n, t) v^t, with C(n, t) = n(n-1)...(n-t+1)/t!
    exactly, up to the first t with v^t zero below the bound."""
    assert bound < math.inf and all(sum(k) >= 1 for k in vt)
    one = {(0,) * f: 1}
    out, vpow, binom, t = truncate(one, bound), one, 1, 0
    while vpow := series_product(p, f, vpow, vt, bound):
        binom, t = binom * (n - t) // (t + 1), t + 1
        out = series_sum(p, f, out, vpow, binom % p)
    return out


def generator_series(p, coords, depth):
    """n(g) = prod_l (1 + T_l)^(c_l) below total degree `depth`, for
    coordinates c_l >= 0: T^beta has coefficient prod_l C(c_l, beta_l) mod p."""
    rows = [[math.comb(c, m) % p for m in range(depth)] for c in coords]
    return {beta: c for beta in monomials(len(coords), depth)
            if (c := math.prod(row[m] for row, m in zip(rows, beta)) % p)}


def hasse_derivative(p, f, xt, gamma):
    """D^gamma(x): T^beta -> C(beta, gamma) T^(beta - gamma), where
    C(beta, gamma) = prod_l C(beta_l, gamma_l) by ``math.comb`` on the whole
    exponents; terms with some beta_l < gamma_l go to 0."""
    out = {tuple(b - g for b, g in zip(k, gamma)):
           field_mul(math.prod(map(math.comb, k, gamma)) % p, c, p, f)
           for k, c in xt.items() if all(b >= g for b, g in zip(k, gamma))}
    return {k: c for k, c in out.items() if c}


def frobenius(xt, p):
    """phi(Y_j) = Y_{j-1}^p: the exponent of Y_j moves to slot j-1, times p."""
    return {tuple(p * e for e in k[1:] + k[:1]): c for k, c in xt.items()}


def y_to_t(p, f, depth, xt, bound):
    """The additive image sum_m c_m Y^m of the multiplicative series xt
    (exponents >= 0) below bound <= depth."""
    out = {}
    for m, c in xt.items():
        out = series_sum(p, f, out, truncate(y_monomial(p, f, depth, m), bound), c)
    return out


@functools.cache
def y_monomial(p, f, depth, m):
    """Y^m = prod_j Y_j^(m_j) below depth, the Y_j those of
    `eigencoordinates`: Y^m = Y^(m - e_j) Y_j, j the last nonzero slot."""
    j = max((i for i, e in enumerate(m) if e), default=None)
    if j is None:
        return {(0,) * f: 1}
    prev = y_monomial(p, f, depth, m[:j] + (m[j] - 1,) + m[j + 1:])
    return series_product(p, f, prev, _eigencoordinates(p, f, depth)[j], depth)


_eigencoordinates = functools.cache(eigencoordinates)
