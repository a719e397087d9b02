"""F_q, the Teichmuller lifts, n(g), the eigencoordinates Y_j and their
unit images, each computed from its definition, sharing no code with
``modpcheck``.

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
        g = [n // p**i % p for i in range(f)]
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
    for d in range(2 * f - 2, f - 1, -1):  # x^d = -x^(d-f) (g_0 + ... + g_{f-1} x^{f-1})
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
    a = np.arange(1, p**f, dtype=np.int64)
    return [a // p**i % p for i in range(f)]


def encode(digits, p):
    return sum(int(d) % p * p**i for i, d in enumerate(digits))


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
