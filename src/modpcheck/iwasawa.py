"""Exact truncated arithmetic in the completed group algebra of O_K.

Two coordinate charts over F_q share one algebra, and one class, AElement,
holds its elements in either chart:

  * additive chart: polynomials in f variables T_0..T_{f-1}, truncated at a
    total-degree cutoff (exclusive).  Group elements g of O_K embed as
    n(g) = prod_l (1 + T_l)^{c_l(g)} where c_l are Z_p-coordinates in the
    power basis.
  * multiplicative chart: Laurent combinations of the eigenvector
    coordinates Y_0..Y_{f-1}, truncated at a filtration cutoff (terms of
    total degree >= cutoff are unknown and dropped).

Y_j is the weighted average of n([a]) over Teichmuller representatives with
weight a^{-p^j}; the Frobenius phi sends Y_j to Y_{j-1}^p and a unit u of
O_K acts continuously, fixing Y_j up to the eigenvalue of its Teichmuller
part times a principal distortion of filtration depth >= p-1.

An AElement does not record its chart; the caller knows it.  Laurent
exponents are allowed in both, and only the chart conversions (y_to_t and
t_to_y) enforce the nonnegative supports of the additive chart.  All operations track how far
each truncated element is known and refuse to compare beyond that point.
"""

import math
import random
import threading
from dataclasses import dataclass
from operator import add

from .arith import Fq, WittRing, _poly_powmod, witt_precision
from .errors import (
    ExponentPrecisionTooLow,
    HypothesisViolation,
    NotAUnit,
    PrecisionExhausted,
    SingularJacobian,
)
from .reporting import Sweep

INF = math.inf


def default_cutoff(p, f):
    """Working filtration depth used by the verification presets."""
    if f == 1:
        return 40
    if f == 2:
        return 30
    return 2 * p


def _binom_mod(n, m, p):
    # C(n, m) mod p for arbitrary integer n, m >= 0; falling factorial is
    # exactly divisible by m!
    if m < 0:
        return 0
    if m == 0:
        return 1 % p
    num = 1
    for i in range(m):
        num *= n - i
    return (num // math.factorial(m)) % p


def _sorted_by_degree(terms):
    return sorted((sum(k), k) for k in terms)


def _mul_terms(field, xt, yt, bound):
    """Dict product with total-degree early exit at `bound` (exclusive).

    Coefficients are multiplied and summed as _Packing ints and each output
    key is encoded once.  A key receives at most min(len(xt), len(yt))
    products of two reduced packed coefficients, so S is _slot_bits of
    k*(p-1)^2 and that count, rounded up to a multiple of 8 bits so that
    only a few packings are ever built.
    """
    if not xt or not yt:
        return {}
    bits = _slot_bits(field.k * (field.p - 1) ** 2, min(len(xt), len(yt)))
    pack = _packing(field, -(-bits // 8) * 8)
    pk = pack.table
    acc = {}
    get = acc.get
    ybuk = [(d, k, pk[yt[k]]) for d, k in _sorted_by_degree(yt)]
    for dx, kx in _sorted_by_degree(xt):
        cx = pk[xt[kx]]
        rem = bound - dx
        for dy, ky, cy in ybuk:
            if dy >= rem:
                break
            k = tuple(map(add, kx, ky))
            acc[k] = get(k, 0) + cx * cy
    encode = pack.encode
    return {k: e for k, v in acc.items() if (e := encode(v))}


def _accumulate(fld, out, terms, cutoff=INF, w=1):
    """Add w * terms into the dict `out` in place, skipping total degrees
    >= cutoff and deleting keys whose sum vanishes; w is a nonzero field
    encoding.

    This is the only accumulation loop left that calls Fq.add/Fq.mul per
    coefficient; products and the other sums run on _Packing ints.
    """
    fadd = fld.add
    fmul = fld.mul
    get = out.get
    bounded = cutoff != INF
    scaled = w != 1
    for k, c in terms.items():
        if bounded and sum(k) >= cutoff:
            continue
        if scaled:
            c = fmul(w, c)
        prev = get(k)
        if prev is None:
            out[k] = c
        else:
            s = fadd(prev, c)
            if s:
                out[k] = s
            else:
                del out[k]


def _ldeg(terms):
    if not terms:
        return INF
    return min(sum(k) for k in terms)


def _mul_bound(kx, dx, ky, dy):
    # product of something known below kx with least degree dx by something
    # known below ky with least degree dy is known below this
    return min(kx + dy, ky + dx)


def one_plus_var_power(field, f, cutoff, l, c, digits):
    """(1 + T_l)^c in the additive chart, c an integer class mod p^digits.

    Walks base-p digits of c using (1+T)^(p^i) = 1 + T^(p^i); exact below
    cutoff provided p^digits >= cutoff.
    """
    p = field.p
    if p**digits < cutoff:
        raise ExponentPrecisionTooLow(
            f"need p^N >= {cutoff}, have N={digits}")
    c %= p**digits
    out = AElement.const(field, f, 1, cutoff=cutoff)
    step = 1
    for _ in range(digits):
        if step >= cutoff:
            break
        d = c % p
        c //= p
        if d:
            terms = {}
            for m in range(d + 1):
                if m * step >= cutoff:
                    break
                coeff = field.from_int(math.comb(d, m) % p)
                if coeff:
                    k = tuple(m * step if i == l else 0 for i in range(f))
                    terms[k] = coeff
            out = out * AElement(field, f, cutoff, terms)
        step *= p
    return out.copy_truncated(cutoff)


class AElement:
    """Truncated element of the algebra in either chart.

    `terms` maps integer exponent tuples (of T_0..T_{f-1} in the additive
    chart, of Y_0..Y_{f-1} in the multiplicative one) to nonzero F_q
    encodings; `cutoff` is the total degree below which the element is known
    exactly (terms of total degree >= cutoff are dropped as unknown).
    """

    __slots__ = ("field", "f", "cutoff", "terms")

    def __init__(self, field, f, cutoff, terms=None):
        self.field = field
        self.f = f
        self.cutoff = cutoff
        self.terms = {} if terms is None else terms

    @classmethod
    def monomial(cls, field, f, k, c=1, cutoff=INF):
        k = tuple(k)
        if len(k) != f:
            raise HypothesisViolation("exponent length must be f")
        t = {k: c} if (c and sum(k) < cutoff) else {}
        return cls(field, f, cutoff, t)

    @classmethod
    def const(cls, field, f, c, cutoff=INF):
        return cls.monomial(field, f, (0,) * f, c, cutoff)

    def copy_truncated(self, cutoff):
        if cutoff >= self.cutoff:
            return AElement(self.field, self.f, min(cutoff, self.cutoff), dict(self.terms))
        return AElement(
            self.field, self.f, cutoff,
            {k: c for k, c in self.terms.items() if sum(k) < cutoff},
        )

    def _binop(self, other, w):
        """self + w * other, known below both cutoffs."""
        fld = self.field
        if isinstance(other, int):
            other = AElement.const(fld, self.f, fld.from_int(other))
        cutoff = min(self.cutoff, other.cutoff)
        out = {k: c for k, c in self.terms.items() if sum(k) < cutoff}
        _accumulate(fld, out, other.terms, cutoff, w)
        return AElement(fld, self.f, cutoff, out)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, self.field.neg(1))

    def __neg__(self):
        fld = self.field
        return AElement(fld, self.f, self.cutoff, {k: fld.neg(c) for k, c in self.terms.items()})

    def scale(self, c):
        fld = self.field
        if not c:
            return AElement(fld, self.f, self.cutoff, {})
        return AElement(fld, self.f, self.cutoff,
                        {k: fld.mul(c, v) for k, v in self.terms.items()})

    def scale_int(self, n):
        return self.scale(self.field.from_int(n))

    def __mul__(self, other):
        bound = _mul_bound(self.cutoff, _ldeg(self.terms), other.cutoff, _ldeg(other.terms))
        terms = _mul_terms(self.field, self.terms, other.terms, bound)
        return AElement(self.field, self.f, bound, terms)

    def __pow__(self, n):
        fld = self.field
        if len(self.terms) == 1:
            # exact monomial fast path, valid for negative n as well
            (k, c), = self.terms.items()
            d = sum(k)
            cut = self.cutoff if self.cutoff == INF else self.cutoff + (n - 1) * d
            if n == 0:
                return AElement.const(fld, self.f, 1, cutoff=INF)
            return AElement.monomial(fld, self.f, tuple(n * ki for ki in k),
                                     fld.pow(c, n), cut)
        if n < 0:
            raise NotAUnit("negative power of a non-monomial; invert first")
        result = AElement.const(fld, self.f, 1, cutoff=INF)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def pth_power(self, times=1):
        """x^(p^times) by the characteristic-p rule; knowledge scales by p^times."""
        fld = self.field
        p = fld.p
        step = p**times
        terms = {tuple(step * ki for ki in k): fld.pow(c, step)
                 for k, c in self.terms.items()}
        cut = self.cutoff if self.cutoff == INF else self.cutoff * step
        return AElement(fld, self.f, cut, terms)

    # ---- additive chart ----

    def coeff(self, k):
        return self.terms.get(tuple(k), 0)

    def hasse_derivative(self, gamma):
        """D^gamma: T^beta -> C(beta, gamma) T^(beta-gamma), exact."""
        fld = self.field
        p = fld.p
        out = {}
        g = tuple(gamma)
        for k, c in self.terms.items():
            if any(ki < gi for ki, gi in zip(k, g)):
                continue
            b = 1
            for ki, gi in zip(k, g):
                b = b * math.comb(ki, gi) % p
                if not b:
                    break
            if not b:
                continue
            ck = fld.scale_int(c, b)
            if ck:
                out[tuple(ki - gi for ki, gi in zip(k, g))] = ck
        return AElement(fld, self.f, self.cutoff - sum(g), out)

    def map_coeffs(self, fn):
        out = {}
        for k, c in self.terms.items():
            v = fn(c)
            if v:
                out[k] = v
        return AElement(self.field, self.f, self.cutoff, out)

    def frobenius_sub(self):
        """Substitution T_l -> T_l^p (coefficients unchanged)."""
        p = self.field.p
        terms = {tuple(p * ki for ki in k): c for k, c in self.terms.items()}
        cut = self.cutoff * p if self.cutoff != INF else INF
        return AElement(self.field, self.f, cut, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AElement):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((self.cutoff, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        n = len(self.terms)
        return f"AElement(f={self.f}, cutoff={self.cutoff}, terms={n})"


def fdeg(x):
    """Filtration degree: least total degree in the support; inf for 0."""
    return _ldeg(x.terms)


def is_torus_fixed(x, p=None):
    """True when every exponent k satisfies sum k_j p^j == 0 mod q-1."""
    p = p if p is not None else x.field.p
    q1 = p**x.f - 1
    for k in x.terms:
        w = sum(kj * p**j for j, kj in enumerate(k))
        if w % q1:
            return False
    return True


def eq_below(x, y, bound):
    """Exact agreement of all terms of total degree < bound.

    Raises PrecisionExhausted if either operand is not known that far.
    """
    if bound > min(x.cutoff, y.cutoff):
        raise PrecisionExhausted(
            f"comparison to depth {bound} exceeds knowledge "
            f"{min(x.cutoff, y.cutoff)}")
    diff = x - y
    return all(sum(k) >= bound for k in diff.terms)


def difference_floor(x, y):
    """Largest depth to which x and y can honestly be compared."""
    return min(x.cutoff, y.cutoff)


def invert_unit(x):
    """Inverse of c*Y^m*(1+eps) with fdeg(eps) >= 1.

    Knowledge drops to cutoff - 2*fdeg(x).  Raises NotAUnit when the minimal
    degree part is not a single monomial.
    """
    if not x.terms:
        raise NotAUnit("zero has no inverse")
    d = fdeg(x)
    lead = [(k, c) for k, c in x.terms.items() if sum(k) == d]
    if len(lead) != 1:
        raise NotAUnit("leading form is not a single monomial")
    (k0, c0), = lead
    fld = x.field
    lead_inv = AElement.monomial(fld, x.f, tuple(-a for a in k0), fld.inv(c0))
    w = lead_inv * x - 1  # fdeg >= 1, known below cutoff - d
    geom = AElement.const(fld, x.f, 1, cutoff=w.cutoff)
    term = AElement.const(fld, x.f, 1, cutoff=w.cutoff)
    while True:
        term = (-w) * term
        term = term.copy_truncated(w.cutoff)
        if term.is_zero():
            break
        geom = geom + term
    return (lead_inv * geom).copy_truncated(
        x.cutoff if x.cutoff == INF else x.cutoff - 2 * d)


@dataclass(frozen=True)
class ZpExponent:
    """Exponent c0 + c1*phi with both coefficients classes mod p^digits."""

    c0: int
    digits: int
    c1: int = 0


def zp_power(g, c):
    """g^c for a principal unit g = 1 + eps (fdeg(eps) >= 1).

    c is an int (digit count derived from g's knowledge) or a ZpExponent;
    the phi coefficient acts through frobenius.  Base-p digit walk with
    (1+eps)^(p^i) = 1 + eps^(p^i).  Raises ExponentPrecisionTooLow if the
    provided digit count cannot determine the result below g's cutoff.
    """
    fld = g.field
    p = fld.p
    eps = g - 1
    d0 = fdeg(eps)
    if d0 < 1:
        raise NotAUnit("zp_power needs g = 1 + (filtration degree >= 1)")
    cutoff = g.cutoff
    if cutoff == INF and d0 != INF:
        raise ExponentPrecisionTooLow(
            "digit walk needs a finite knowledge bound on g")
    if isinstance(c, ZpExponent):
        n_digits = c.digits
        if cutoff != INF and p**n_digits * max(d0 if d0 != INF else 1, 1) < cutoff:
            raise ExponentPrecisionTooLow(
                f"p^{n_digits} digits cannot pin depth {cutoff}")
        out = _digit_walk(g, c.c0 % p**n_digits, n_digits)
        if c.c1 % p**n_digits:
            out = out * _digit_walk(frobenius(g).copy_truncated(cutoff),
                                    c.c1 % p**n_digits, n_digits)
        return out.copy_truncated(cutoff)
    n_digits = 1
    scale = p
    ref = cutoff if cutoff != INF else 1
    while scale * max(d0 if d0 != INF else 1, 1) < ref:
        scale *= p
        n_digits += 1
    return _digit_walk(g, c % scale, n_digits).copy_truncated(cutoff)


def _digit_walk(g, c, n_digits):
    fld = g.field
    p = fld.p
    out = AElement.const(fld, g.f, 1, cutoff=g.cutoff)
    eps = g - 1
    for i in range(n_digits):
        d = c % p
        c //= p
        if d:
            base = eps + 1
            out = out * (base**d)
            out = out.copy_truncated(g.cutoff)
        if c:
            eps = eps.pth_power()
    return out


def frobenius(x):
    """Algebra Frobenius on a multiplicative-chart element.

    Y_j -> Y_{j-1}^p, i.e. exponent slot j feeds slot j-1 scaled by p,
    coefficients unchanged.  Knowledge scales by p.  In the additive chart
    the same map is T_l -> T_l^p, which is AElement.frobenius_sub.
    """
    f = x.f
    p = x.field.p
    terms = {}
    for k, c in x.terms.items():
        terms[tuple(p * k[(j + 1) % f] for j in range(f))] = c
    cut = x.cutoff if x.cutoff == INF else x.cutoff * p
    return AElement(x.field, f, cut, terms)


def _matrix_inverse(field, rows):
    """Inverse of a small matrix over F_q (list of lists of encodings)."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise SingularJacobian("coordinate Jacobian is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(inv, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [field.sub(v, field.mul(c, w)) for v, w in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def _slot_bits(per_term, terms):
    """Width of a packed slot that holds a sum of `terms` nonnegative values,
    each at most `per_term`, without carrying into the next slot."""
    return (per_term * terms).bit_length()


class _Packing:
    """Kronecker packing of F_q coefficients into single ints.

    The k power-basis digits of an element sit in consecutive `bits`-wide
    slots, so the product of two packed elements is their unreduced
    polynomial product (2k-1 slots) and a sum of packed values or products
    is plain int addition, exact while no slot reaches 2^bits.  `encode`
    turns such a sum back into a field encoding: slots mod p, then
    reduction by the minimal polynomial.

    It serves the reversion table, the eigencoordinate sum, the series
    product (_mul_terms) and the torus-eigenvector sum; each of them states
    the bound on one slot of its sums that fixes its width.  Instances come
    from the shared cache `_packing`.
    """

    def __init__(self, field, bits):
        self.bits = bits
        self.p = p = field.p
        k = field.k
        self.mask = (1 << bits) - 1
        table = []
        for e in field.elements():
            v = 0
            for i, d in enumerate(field.coords(e)):
                v |= d << (bits * i)
            table.append(v)
        self.table = table  # field encoding -> packed
        # slot i >= k of a product stands for x^i mod g, so digit j is slot j
        # plus each such slot times the coefficient of x^j in x^i mod g, all
        # mod p; digit_terms holds the (shift, factor) pairs, top digit first
        x = [0, 1] + [0] * (k - 2)
        high = {i: _poly_powmod(x, i, list(field.g_coeffs), p)
                for i in range(k, 2 * k - 1)}
        self.digit_terms = [[(bits * j, 1)] + [(bits * i, r[j]) for i, r in high.items() if r[j]]
                            for j in range(k - 1, -1, -1)]

    def encode(self, v):
        """Field encoding of a sum of packed elements and packed products."""
        mask, p = self.mask, self.p
        e = 0
        for terms in self.digit_terms:
            t = 0
            for shift, r in terms:
                t += (v >> shift & mask) * r
            e = e * p + t % p
        return e


_PACKINGS = {}
_PACKINGS_LOCK = threading.Lock()


def _packing(field, bits):
    """The _Packing of `field` with `bits`-wide slots, built once per
    (field, width) even when threads ask for it at the same time."""
    key = (field, bits)
    hit = _PACKINGS.get(key)
    if hit is None:
        with _PACKINGS_LOCK:
            hit = _PACKINGS.get(key)
            if hit is None:
                hit = _PACKINGS[key] = _Packing(field, bits)
    return hit


@dataclass(frozen=True)
class _TauState:
    """One published build of the reversion table (see _TauTable)."""

    depth: int
    pack: _Packing
    monomials: dict  # packed exponent key -> exponent tuple
    powers: dict  # beta -> {degree d: {packed key: packed coefficient}}


class _TauTable:
    """Reversion data: the additive coordinates as multiplicative-chart
    series, with a graded monomial table for substitution.

    tau[l] inverts the coordinate change degree by degree; powers[beta][d]
    holds the degree-d part of tau^beta for every |beta| <= depth.  Extended
    lazily and rebuilt from scratch when a deeper request arrives (cost is
    dominated by the final depth).

    Packed representation: an exponent tuple m is the int sum_i m_i R^i in
    radix R = depth + 1, so a monomial product is one int addition, and a
    coefficient is a _Packing int with S-bit slots.  Every accumulation
    (a degree part of a power, a tail of a coordinate equation, a t_to_y
    result) is a sum of products of two reduced packed coefficients, each
    adding at most k*(p-1)^2 to a slot, and no key receives more of them
    than there are monomials of degree <= depth, C(depth + f, f).  S is the
    bit length of the product of the two bounds.

    Builds run under a lock and publish depth, packing and powers together
    as one _TauState, so a reader never sees a depth its powers lack.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self._lock = threading.Lock()
        self._state = None

    @property
    def depth(self):
        state = self._state
        return 0 if state is None else state.depth

    def ensure(self, depth):
        """The table state covering every |beta| <= depth."""
        state = self._state
        if state is None or depth > state.depth:
            with self._lock:
                state = self._state
                if state is None or depth > state.depth:
                    state = self._build(max(depth, 0))
                    self._state = state
        return state

    def _build(self, depth):
        ctx = self.ctx
        fld = ctx.field
        f = ctx.f
        radix = depth + 1
        pack = _packing(fld, _slot_bits(fld.k * (fld.p - 1) ** 2,
                                        math.comb(depth + f, f)))
        pk = pack.table
        encode = pack.encode

        def reduced(acc):
            return {key: pk[e] for key, v in acc.items() if (e := encode(v))}

        minv = ctx.jacobian_inverse
        neg_minv = [[pk[fld.neg(c)] for c in row] for row in minv]
        unit_keys = [radix**j for j in range(f)]
        # degree-1 seed: tau_l = sum_j minv[l][j] * Y_j
        taus = [{1: {unit_keys[j]: pk[c] for j, c in enumerate(row) if c}}
                for row in minv]
        unit_vecs = [tuple(1 if i == l else 0 for i in range(f)) for l in range(f)]
        powers = dict(zip(unit_vecs, taus))

        # tau^beta = tau^prev * tau_l, with l the first nonzero slot of beta
        chain = []
        for beta in _graded_exponents(f, depth):
            if sum(beta) >= 2:
                l = next(i for i, b in enumerate(beta) if b)
                prev = tuple(b - (i == l) for i, b in enumerate(beta))
                chain.append((sum(beta), beta, prev, taus[l]))
                powers[beta] = {}
        ys = ctx.y_series
        coeffs = [[(powers[beta], pk[c]) for beta, c in y.terms.items()
                   if 2 <= sum(beta) <= depth] for y in ys]

        for d in range(2, depth + 1):
            # extend the powers to degree d (uses tau parts < d)
            for wb, beta, prev, tau_l in chain:
                if wb > d:
                    break
                acc = {}
                get = acc.get
                for a, part in powers[prev].items():
                    other = tau_l.get(d - a)
                    if not other or not part:
                        continue
                    other = list(other.items())
                    for k1, c1 in part.items():
                        for k2, c2 in other:
                            k = k1 + k2
                            acc[k] = get(k, 0) + c1 * c2
                powers[beta][d] = reduced(acc)
            # solve for tau parts of degree d: first the higher-order tail
            # of each coordinate equation, then distribute through -M^{-1}
            tails = []
            for j in range(f):
                acc = {}
                get = acc.get
                for parts, cb in coeffs[j]:
                    part = parts.get(d)
                    if part:
                        for k, c in part.items():
                            acc[k] = get(k, 0) + cb * c
                tails.append(reduced(acc))
            for l in range(f):
                acc = {}
                get = acc.get
                for j in range(f):
                    c = neg_minv[l][j]
                    if c:
                        for k, v in tails[j].items():
                            acc[k] = get(k, 0) + c * v
                taus[l][d] = reduced(acc)

        monomials = {}
        for m in _graded_exponents(f, depth):
            key = 0
            for e in reversed(m):
                key = key * radix + e
            monomials[key] = m
        return _TauState(depth, pack, monomials, powers)


def _graded_exponents(f, deg_max):
    out = []
    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)
    for d in range(deg_max + 1):
        rec((), d, f)
    return out


class ChartContext:
    """Shared, cached per (p, f, cutoff): generator series, coordinate
    Jacobian, reversion table, and the unit-action conversion cache."""

    def __init__(self, p, f, cutoff):
        self.p = p
        self.f = f
        self.D = cutoff
        self.field = Fq(p, f)
        self.q = self.field.q
        self.N = witt_precision(p, cutoff)
        self.ring = WittRing(p, f, self.N)
        self.tdepth = cutoff if f <= 2 else cutoff - p + 1
        self.alpha_max = (cutoff - 1) // p
        self.piece_cap = -(-cutoff // p)
        self._y_series = None
        self._jac_inv = None
        self.tau = _TauTable(self)
        self._n_cache = {}
        self._convb = {}
        self._u1_cache = {}
        self._ypow_cache = {}

    # ---- additive-chart generator data ----

    def n_series(self, a, depth=None):
        """n([a]) = prod_l (1+T_l)^(c_l of the Teichmuller lift), truncated."""
        depth = self.tdepth if depth is None else depth
        key = (a, depth)
        hit = self._n_cache.get(key)
        if hit is not None:
            return hit
        coords = self.ring.teichmuller(a)
        out = AElement.const(self.field, self.f, 1, cutoff=depth)
        for l, c in enumerate(coords):
            out = out * one_plus_var_power(self.field, self.f, depth, l, c, self.N)
        out = out.copy_truncated(depth)
        if self.q <= 256:
            self._n_cache[key] = out
        return out

    @property
    def y_series(self):
        """Tuple of the f eigencoordinate series in the additive chart."""
        if self._y_series is None:
            fld = self.field
            ys = [AElement(fld, self.f, self.tdepth, self._y0_terms())]
            for _ in range(1, self.f):
                # eigencoordinate at the next slot is the coefficientwise
                # p-th power of the previous one
                ys.append(ys[-1].map_coeffs(lambda c: fld.pow(c, fld.p)))
            self._y_series = tuple(ys)
            self.jacobian_inverse  # fail fast when singular
        return self._y_series

    def _y0_terms(self):
        """Coefficients of Y_0 = sum over units a of a^{-1} n([a]).

        The coefficient of T^beta is sum_a a^{-1} prod_l C(c_l(a), beta_l)
        mod p, with c_l(a) the coordinates of the Teichmuller lift of a, and
        each binomial is a product of digit binomials (Lucas's theorem).  The
        lifts are the powers of the lift of the field generator.

        The sum is Kronecker-packed: a^{-1} is a _Packing int with S-bit
        slots, and the binomials of the last variable for all exponents
        m < depth sit in consecutive k*S-bit blocks of one int, so one
        product adds a unit's contribution to every m at once.  A
        contribution is at most (p-1)^(f+1) per slot (a digit of a^{-1}
        times f binomials, each reduced mod p), over q-1 units.
        """
        fld, ring = self.field, self.ring
        p, f, depth = self.p, self.f, self.tdepth
        digits = 0
        while p**digits < depth:
            digits += 1
        pe = p**digits
        small = [[math.comb(n, m) % p for m in range(p)] for n in range(p)]

        def lucas(c, m):
            out = 1
            for _ in range(digits):
                out = out * small[c % p][m % p] % p
                c //= p
                m //= p
            return out

        pack = _packing(fld, _slot_bits((p - 1) ** (f + 1), self.q - 1))
        width = fld.k * pack.bits
        cache = {}

        def binomials(c):
            # C(c, m) mod p for m < depth, as a list and packed in blocks;
            # only c mod p^digits matters
            r = c % pe
            hit = cache.get(r)
            if hit is None:
                vec = [lucas(r, m) for m in range(depth)]
                hit = cache[r] = vec, sum(b << (width * m) for m, b in enumerate(vec))
            return hit

        acc = {}
        get = acc.get
        teich_gen = ring.teichmuller(fld.generator)
        lift = ring.one
        for a in fld.EXP:  # generator powers, in step with their lifts
            outer = [((), 1, 0)]  # (exponents of T_0..T_{f-2}, binomial product, degree)
            for c in lift[:-1]:
                vec = binomials(c)[0]
                outer = [(t + (m,), x * b, dg + m) for t, x, dg in outer
                         for m, b in enumerate(vec[:depth - dg]) if b]
            last = binomials(lift[-1])[1]
            w = pack.table[fld.inv(a)]
            for t, x, _ in outer:
                acc[t] = get(t, 0) + w * x * last
            lift = ring.mul(lift, teich_gen)

        terms = {}
        bmask = (1 << width) - 1
        for t, v in acc.items():
            for m in range(depth - sum(t)):
                e = pack.encode(v & bmask)
                if e:
                    terms[t + (m,)] = e
                v >>= width
        return terms

    @property
    def jacobian(self):
        ys = self.y_series
        unit = [tuple(1 if i == l else 0 for i in range(self.f)) for l in range(self.f)]
        return [[ys[j].terms.get(unit[l], 0) for l in range(self.f)] for j in range(self.f)]

    @property
    def jacobian_inverse(self):
        if self._jac_inv is None:
            self._jac_inv = _matrix_inverse(self.field, self.jacobian)
        return self._jac_inv

    # ---- chart conversions ----

    def t_to_y(self, s, bound=None):
        """Multiplicative-chart image; defined on nonnegative supports only."""
        bound = min(s.cutoff, self.tdepth) if bound is None else bound
        if bound > min(s.cutoff, self.tdepth):
            raise PrecisionExhausted(
                f"conversion to depth {bound} exceeds knowledge")
        if bound <= 0:
            return AElement(self.field, self.f, max(bound, 0), {})
        tab = self.tau.ensure(bound - 1)
        pk = tab.pack.table
        acc = {}
        get = acc.get
        for beta, cb in s.terms.items():
            if min(beta) < 0:
                raise HypothesisViolation(
                    "additive chart only holds nonnegative supports")
            if not any(beta):
                acc[0] = get(0, 0) + pk[cb]
                continue
            if sum(beta) >= bound:
                continue
            c = pk[cb]
            for d, part in tab.powers[beta].items():
                if d < bound:
                    for k, v in part.items():
                        acc[k] = get(k, 0) + c * v
        encode = tab.pack.encode
        monomials = tab.monomials
        terms = {monomials[k]: e for k, v in acc.items() if (e := encode(v))}
        return AElement(self.field, self.f, bound, terms)

    def y_monomial_series(self, j, e):
        """j-th eigencoordinate to the e-th power in the additive chart."""
        key = (j, e)
        hit = self._ypow_cache.get(key)
        if hit is None:
            hit = self.y_series[j] ** e
            self._ypow_cache[key] = hit
        return hit

    def y_to_t(self, x, bound=None):
        """Additive-chart image; defined on nonnegative supports only."""
        bound = min(x.cutoff, self.tdepth) if bound is None else bound
        if bound > min(x.cutoff, self.tdepth):
            raise PrecisionExhausted(
                f"conversion to depth {bound} exceeds knowledge")
        fld = self.field
        out = AElement(fld, self.f, bound, {})
        for k, c in x.terms.items():
            if any(e < 0 for e in k):
                raise HypothesisViolation(
                    "additive chart only holds nonnegative supports")
            term = AElement.const(fld, self.f, c, cutoff=bound)
            for j, e in enumerate(k):
                if e:
                    term = term * self.y_monomial_series(j, e)
            out = out + term.copy_truncated(bound)
        return out

    # ---- unit action ----

    def convb(self, j, gamma):
        """Unit-independent conversion block: multiplicative-chart image of
        D^gamma(Y_j) * (1+T)^gamma, known below D - p*|gamma|."""
        key = (j, tuple(gamma))
        hit = self._convb.get(key)
        if hit is not None:
            return hit
        bound = self.D - self.p * sum(gamma)
        s = self.y_series[j].hasse_derivative(gamma)
        for l, g in enumerate(gamma):
            if g:
                onep = AElement(self.field, self.f, INF,
                               {tuple(m if i == l else 0 for i in range(self.f)):
                                self.field.from_int(math.comb(g, m))
                                for m in range(g + 1)})
                s = s * onep
        out = self.t_to_y(s.copy_truncated(max(bound, 0)), max(bound, 0))
        self._convb[key] = out
        return out

    def unit_data(self, u):
        """Split u = [a0]*u1 and extract the mod-p digit matrix of u1."""
        ring = self.ring
        a0, u1 = ring.unit_decompose(u)
        if u1 == ring.one:
            return UnitData(a0, None)
        p = self.p
        fld = self.field
        # w = (u1 - 1)/p as a residue-field element in the power basis
        wbar_coords = tuple(((c - (1 if l == 0 else 0)) // p) % p
                            for l, c in enumerate(u1))
        wbar = fld.from_coords(wbar_coords)
        if wbar == 0:
            return UnitData(a0, None)
        dmat = []
        for i in range(self.f):
            ei = fld.from_coords(tuple(1 if l == i else 0 for l in range(self.f)))
            prod = fld.mul(wbar, ei)
            dmat.append(tuple(fld.coords(prod)))
        return UnitData(a0, tuple(dmat))

    def _u1_pieces(self, dmat):
        """Principal-part distortion series v_j with u1(Y_j) = Y_j(1 + v_j)."""
        hit = self._u1_cache.get(dmat)
        if hit is not None:
            return hit
        fld = self.field
        f = self.f
        cap = self.piece_cap
        # epsilon_i - 1 in the additive chart at the piece depth
        eps = []
        for i in range(f):
            e = AElement.const(fld, f, 1, cutoff=cap)
            for l in range(f):
                d = dmat[i][l]  # T_l exponent of the image of slot i
                if d:
                    e = e * one_plus_var_power(fld, f, cap, l, d, 1)
            eps.append(e - AElement.const(fld, f, 1, cutoff=cap))
        vs = []
        for j in range(f):
            acc = AElement(fld, f, self.D, {})
            for gamma in _graded_exponents(f, self.alpha_max):
                g = sum(gamma)
                if g < 1:
                    continue
                w = AElement.const(fld, f, 1, cutoff=cap)
                for i, gi in enumerate(gamma):
                    if gi:
                        w = w * eps[i] ** gi
                if w.is_zero():
                    continue
                piece = self.t_to_y(w.copy_truncated(cap), cap)
                if piece.is_zero():
                    continue
                blk = self.convb(j, gamma) * frobenius(piece)
                acc = acc + blk.copy_truncated(self.D)
            # v_j = Y_j^{-1} * (u1(Y_j) - Y_j); the gamma sum above is already
            # the correction term, so divide by the leading monomial
            yinv = AElement.monomial(fld, f, tuple(-1 if i == j else 0 for i in range(f)), 1)
            vs.append((yinv * acc).copy_truncated(self.D - 1))
        out = tuple(vs)
        self._u1_cache[dmat] = out
        return out

    def teich_weight(self, a0, k):
        """Eigenvalue of [a0] on the monomial with exponent k."""
        e = sum(kj * self.p**j for j, kj in enumerate(k)) % (self.q - 1)
        return self.field.pow(a0, e)

    def unit_on_y(self, data, j):
        """u(Y_j) as a multiplicative-chart element, known below D."""
        fld = self.field
        f = self.f
        yj = AElement.monomial(fld, f, tuple(1 if i == j else 0 for i in range(f)), 1,
                               cutoff=self.D)
        if data.dmat is not None:
            v = self._u1_pieces(data.dmat)[j]
            yj = (yj * (v + 1)).copy_truncated(self.D)
        w = self.teich_weight(data.a0, tuple(1 if i == j else 0 for i in range(f)))
        return yj.scale(w)


@dataclass(frozen=True)
class UnitData:
    """Teichmuller part encoding plus the principal-part digit matrix
    (None when the unit is a Teichmuller representative)."""

    a0: int
    dmat: tuple


def _binomial_series(v, n, bound):
    """(1 + v)^n truncated below bound, n any integer, fdeg(v) >= 1."""
    fld = v.field
    out = AElement.const(fld, v.f, 1, cutoff=min(bound, v.cutoff))
    vt = AElement.const(fld, v.f, 1, cutoff=INF)
    t = 0
    while True:
        t += 1
        vt = (vt * v).copy_truncated(min(bound, v.cutoff))
        if vt.is_zero():
            break
        c = fld.from_int(_binom_mod(n, t, fld.p))
        if c:
            out = out + vt.scale(c)
    return out


def unit_action(ctx, u, x):
    """Action of a unit u of O_K (ring coordinate tuple or UnitData) on a
    multiplicative-chart element, exact below min(K_x, D-1+fdeg(x))."""
    data = u if isinstance(u, UnitData) else ctx.unit_data(u)
    fld = ctx.field
    f = ctx.f
    if data.dmat is None and data.a0 == 1:
        return x
    vs = ctx._u1_pieces(data.dmat) if data.dmat is not None else None
    d0 = fdeg(x)
    if d0 == INF:
        return x
    bound = min(x.cutoff, ctx.D - 1 + d0)
    acc = AElement(fld, f, bound, {})
    for k, c in x.terms.items():
        w = fld.mul(c, ctx.teich_weight(data.a0, k))
        term = AElement.monomial(fld, f, k, w, cutoff=bound)
        if vs is not None:
            need = bound - sum(k)  # depth the unit factors must reach
            for j, e in enumerate(k):
                if e:
                    term = (term * _binomial_series(vs[j], e, need)).copy_truncated(bound)
        acc = acc + term
    return acc.copy_truncated(bound)


def unit_ratio(ctx, u, j):
    """f_{u,j}: the eigenvalue-normalized ratio of Y_j to u(Y_j).

    Equals (1 + v_j)^{-1}; fdeg(f - 1) >= p - 1 and it is known below D-1.
    """
    data = u if isinstance(u, UnitData) else ctx.unit_data(u)
    if data.dmat is None:
        return AElement.const(ctx.field, ctx.f, 1, cutoff=ctx.D - 1)
    v = ctx._u1_pieces(data.dmat)[j]
    return invert_unit(v + 1)


def cocycle_factor(ctx, u, j, numerator):
    """w * phi(w)^{-1} with w = f_{u,j}^(numerator/(1-q) mod p^N)."""
    e = numerator * pow(1 - ctx.q, -1, ctx.p**ctx.N) % ctx.p**ctx.N
    w = zp_power(unit_ratio(ctx, u, j), ZpExponent(e, ctx.N))
    return (w * invert_unit(frobenius(w))).copy_truncated(w.cutoff)


def principal_units(ctx, count, seed=0):
    """Sampled units of the form 1 + p*w in O_K/p^N coordinates."""
    rng = random.Random(seed)
    span = ctx.p ** (ctx.N - 1)
    pN = ctx.p**ctx.N
    out = []
    for _ in range(count):
        w = tuple(rng.randrange(span) for _ in range(ctx.f))
        out.append(tuple(((1 if l == 0 else 0) + ctx.p * w[l]) % pN
                         for l in range(ctx.f)))
    return out


_CTX_CACHE = {}


def chart_context(p, f, cutoff=None):
    cutoff = default_cutoff(p, f) if cutoff is None else cutoff
    key = (p, f, cutoff)
    hit = _CTX_CACHE.get(key)
    if hit is None:
        hit = ChartContext(p, f, cutoff)
        _CTX_CACHE[key] = hit
    return hit


# ---- axiom checkers -------------------------------------------------------


def check_frobenius_generators(ctx):
    """phi(Y_j) == Y_{j-1}^p in the additive chart, generic power oracle."""
    sweep = Sweep("frobenius-generator-images")
    depth = ctx.tdepth
    for j in range(ctx.f):
        lhs = ctx.y_series[j].frobenius_sub().copy_truncated(depth)
        rhs = (ctx.y_series[(j - 1) % ctx.f] ** ctx.p).copy_truncated(depth)
        diff = lhs - rhs
        keys = set(lhs.terms) | set(rhs.terms)
        for k in sorted(keys):
            sweep.check(diff.terms.get(k) is None, j=j, exponent=list(k),
                        lhs=lhs.terms.get(k, 0), rhs=rhs.terms.get(k, 0))
    return sweep.result(info={"depth": depth})


def _torus_slot_bits(fld):
    """Slot width S of the packed torus-eigenvector sum: q-1 products of two
    reduced packed coefficients, each adding at most k*(p-1)^2 to a slot."""
    return _slot_bits(fld.k * (fld.p - 1) ** 2, fld.q - 1)


def check_torus_eigenvector(ctx):
    """Scaling by a Teichmuller representative multiplies the j-th
    eigencoordinate by a^(p^j): reindexed summand comparison, all a.

    The sum over b of b^(-p^j) n([ab]) is Kronecker-packed.  Each n([c]) is
    one int with a block of (2k-1)*S bits per monomial of degree < depth (in
    the order of _graded_exponents) holding its _Packing coefficient, so the
    sum for one (a, j) is q-1 int multiply-adds, and each block is encoded
    once.  S = _slot_bits(k*(p-1)^2, q-1) (see _torus_slot_bits).
    """
    sweep = Sweep("torus-reindex-eigenvector")
    fld = ctx.field
    depth = ctx.tdepth
    lifts = {a: ctx.ring.teichmuller(a) for a in fld.units()}
    for a in fld.units():
        for b in fld.units():
            # multiplicativity of the lifts backs the reindexing step
            if ctx.ring.mul(lifts[a], lifts[b]) != lifts[fld.mul(a, b)]:
                sweep.check(False, a=a, b=b, stage="teichmuller-product")
                return sweep.result()
    units = fld.units()
    pack = _packing(fld, _torus_slot_bits(fld))
    pk = pack.table
    encode = pack.encode
    width = (2 * fld.k - 1) * pack.bits
    mask = (1 << width) - 1
    monomials = _graded_exponents(ctx.f, depth - 1)
    shift = {m: i * width for i, m in enumerate(monomials)}
    packed = {c: sum(pk[e] << shift[m] for m, e in ctx.n_series(c, depth).terms.items())
              for c in units}
    weights = [[(b, pk[fld.inv(fld.frob(b, j))]) for b in units]  # b^(-p^j)
               for j in range(ctx.f)]
    for a in units:
        for j in range(ctx.f):
            v = 0
            for b, w in weights[j]:
                v += w * packed[fld.mul(a, b)]
            acc = {}
            for m in monomials:
                if e := encode(v & mask):
                    acc[m] = e
                v >>= width
            want = ctx.y_series[j].scale(fld.frob(a, j))
            diff = AElement(fld, ctx.f, depth, acc) - want
            sweep.check(diff.is_zero(), a=a, j=j,
                        discrepancies=len(diff.terms))
    return sweep.result(info={"depth": depth})


def check_exponent_additivity(ctx, samples=20, seed=0):
    """n(g)n(h) == n(g+h) for sampled ring elements g, h."""
    sweep = Sweep("binomial-exponent-additivity")
    rng = random.Random(seed)
    fld = ctx.field
    depth = min(ctx.tdepth, 2 * ctx.p)
    span = ctx.p**ctx.N

    def n_of(coords):
        out = AElement.const(fld, ctx.f, 1, cutoff=depth)
        for l, c in enumerate(coords):
            out = out * one_plus_var_power(fld, ctx.f, depth, l, c, ctx.N)
        return out

    for _ in range(samples):
        g = tuple(rng.randrange(span) for _ in range(ctx.f))
        h = tuple(rng.randrange(span) for _ in range(ctx.f))
        gh = tuple((x + y) % span for x, y in zip(g, h))
        diff = (n_of(g) * n_of(h)).copy_truncated(depth) - n_of(gh)
        sweep.check(diff.is_zero(), g=list(g), h=list(h))
    return sweep.result(info={"depth": depth})


def check_unit_ratio_depth(ctx, units=None, count=20, seed=0):
    """fdeg(f_{u,j} - 1) >= p - 1 for sampled principal units."""
    sweep = Sweep("principal-unit-ratio-depth")
    if units is None:
        units = principal_units(ctx, count, seed)
    for idx, u in enumerate(units):
        for j in range(ctx.f):
            r = unit_ratio(ctx, u, j)
            d = fdeg(r - 1)
            sweep.check(d >= ctx.p - 1, unit=list(u), j=j,
                        depth=None if d == INF else d)
    return sweep.result(info={"units": len(units)})


def check_action_composition(ctx, pairs=4, seed=1):
    """(u1*u2)(x) == u1(u2(x)) on the generators for sampled unit pairs."""
    sweep = Sweep("unit-action-composition")
    rng = random.Random(seed)
    span = ctx.p**ctx.N
    for _ in range(pairs):
        u1 = tuple(rng.randrange(span) for _ in range(ctx.f))
        u2 = tuple(rng.randrange(span) for _ in range(ctx.f))
        if not (ctx.ring.is_unit(u1) and ctx.ring.is_unit(u2)):
            continue
        u12 = ctx.ring.mul(u1, u2)
        for j in range(ctx.f):
            g = AElement.monomial(ctx.field, ctx.f,
                                  tuple(1 if i == j else 0 for i in range(ctx.f)), 1)
            lhs = unit_action(ctx, u12, g)
            rhs = unit_action(ctx, u1, unit_action(ctx, u2, g))
            floor = difference_floor(lhs, rhs)
            sweep.check(eq_below(lhs, rhs, floor), j=j, u1=list(u1),
                        u2=list(u2), floor=floor)
    return sweep.result()


def check_frobenius_action_commute(ctx, count=4, seed=2):
    """u(phi(x)) == phi(u(x)) on generators for sampled principal units."""
    sweep = Sweep("frobenius-action-commute")
    for u in principal_units(ctx, count, seed):
        for j in range(ctx.f):
            g = AElement.monomial(ctx.field, ctx.f,
                                  tuple(1 if i == j else 0 for i in range(ctx.f)), 1,
                                  cutoff=ctx.D)
            lhs = frobenius(unit_action(ctx, u, g))
            rhs = unit_action(ctx, u, frobenius(g))
            floor = difference_floor(lhs, rhs)
            sweep.check(eq_below(lhs, rhs, floor), j=j, unit=list(u), floor=floor)
    return sweep.result()


def check_iwasawa_axioms(ctx, units=20, seed=0):
    """Axiom bundle used by the verification harness."""
    out = [check_frobenius_generators(ctx)]
    if ctx.f <= 2:
        out.append(check_torus_eigenvector(ctx))
    out.append(check_exponent_additivity(ctx, seed=seed))
    out.append(check_unit_ratio_depth(ctx, count=units, seed=seed))
    out.append(check_action_composition(ctx, seed=seed + 1))
    out.append(check_frobenius_action_commute(ctx, seed=seed + 2))
    return out
