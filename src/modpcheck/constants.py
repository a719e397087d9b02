"""Integer constant tables, index bookkeeping, and the scalar pairing algebra.

Everything here is exact: integer vectors are int tuples indexed by the
embeddings j = 0..f-1, plus finite-field scalars for the pairing constants.
ConstantTables builds the tables of one parameter set once, as dicts, and
applies an optional one-cell Mutation after the build.  The check_*
functions read the tables from it, sweep every tuple allowed by the
hypotheses of the identity they verify and report the first counterexample
rather than raising.
"""

import itertools
import math
import random
from operator import add, eq, ge, le, mul, sub

from .arith import Fq, RunScope
from .base_combinatorics import SubsetJ, right_boundary, vmap
from .errors import ConfigInvalid, HypothesisViolation, PairNotDefined, RangeViolation
from .reporting import Sweep, run_table, witness
from .weights import (
    Translation,
    aJ,
    alpha_char,
    char_of_lambda,
    char_of_weight,
    sJ_tJ,
)


# ---------------------------------------------------------------------------
# scalar constant vectors attached to a subset J


def rJ(params, J):
    """Twist exponents picked up when the origin of a J-block is moved."""
    r, f = params.r, params.f
    out = []
    for j in range(f):
        v = (r[j] + 1 if (j + 1) in J else 0) - (1 if j in J else 0)
        out.append(v)
    return tuple(out)


def cJ(params, J):
    """Per-coordinate carry budget; always within [0, p-1]."""
    r, p, f = params.r, params.p, params.f
    out = []
    for j in range(f):
        v = 0
        if j not in J:
            v += p - 2 - r[j]
        if (j + 1) not in J:
            v += r[j] + 1
        out.append(v)
    return tuple(out)


def cPrimeJ(params, J):
    """Companion of cJ; satisfies p*shift(e^{J cap (J+1)}) + cJ - cPrimeJ = f."""
    r, p, f = params.r, params.p, params.f
    out = []
    for j in range(f):
        inJ, sucJ = j in J, (j + 1) in J
        if not inJ and not sucJ:
            v = p - 1 - f
        elif inJ and not sucJ:
            v = r[j] + 1 - f
        elif not inJ and sucJ:
            v = p - 2 - r[j] - f
        else:
            v = p - f
        out.append(v)
    return tuple(out)


def epsilonJ(params, J):
    """Sign attached to J: parity of the non-special interior of J, with the
    one exceptional corner (no special embeddings, J full)."""
    if not params.Jrho and J.is_full():
        return -1 if params.f % 2 == 0 else 1
    core = (J - right_boundary(J)) - params.Jrho
    return -1 if len(core) % 2 else 1


def _t_pair(p, s, Jp):
    """Shift exponents for the (J, Jp) comparison: p-1-s(J) plus a Jp bump."""
    return tuple(p - 1 - sj + (1 if (j - 1) in Jp else 0) for j, sj in enumerate(s))


def _m_frame(Kss, J, Jp):
    # (signs, offsets) of the signed exponent vector of the i-indexed element
    # in a J-block: m_j = signs_j (2 i_j + offsets_j), that is
    # sign_j (2 i_j + e^Kss_j - e^{J^Kss}_j + e^{Jp+1}_j) with
    # Kss = (J-1) & Jrho; the reindexing sweep evaluates it formally,
    # outside the small box of i too
    f = J.f
    sym = J ^ Kss
    signs = tuple(-1 if (j + 1) not in J else 1 for j in range(f))
    offsets = tuple(
        (1 if j in Kss else 0) - (1 if j in sym else 0) + (1 if (j - 1) in Jp else 0)
        for j in range(f)
    )
    return signs, offsets


def _m_vec(frame, i):
    signs, offsets = frame
    return tuple(s * (2 * x + o) for s, x, o in zip(signs, i, offsets))


def _tjx_odd_offset(p, r, J, j):
    # offset added to n*p by the shift exponent at slot j when x = 2n + 1
    return (r[j] + 1) if (j + 1) not in J else (p - 1 - r[j])


def _a_domain(J, j0):
    # the hypothesis domain of aJn(J, ., j0): n_{j0+1} = 0, 1 <= n_j <= 2f - e^J_j
    f = J.f
    anchor = (j0 + 1) % f
    ranges = []
    for j in range(f):
        if j == anchor:
            ranges.append((0,))
        else:
            ranges.append(tuple(range(1, 2 * f - (1 if j in J else 0) + 1)))
    return list(itertools.product(*ranges))


class AJnFrame:
    """Exponent table aJn(J, ., j0) with its per-(J, j0) data computed once:
    the anchor slot j0+1, the hypothesis bounds, the zero slot, the bumps and
    the image of every n of the hypothesis domain, at most (2f)^(f-1).  Of
    Jrho it reads only zero: whether j0 sits in J^sh (see _frame_key)."""

    __slots__ = ("f", "p", "anchor", "bounds", "bumps", "images")

    def __init__(self, p, f, r, J, j0, zero):
        self.f, self.p = f, p
        self.anchor = (j0 + 1) % f
        self.bounds = tuple(
            (j, 2 * f - (1 if j in J else 0)) for j in range(f) if j != self.anchor
        )
        # None marks the zero slot j0
        self.bumps = tuple(
            None if j == j0 % f and zero else _tjx_odd_offset(p, r, J, j)
            for j in range(f)
        )
        self.images = {ent: self._formula(ent) for ent in _a_domain(J, j0)}

    def image(self, ent):
        """Entries of aJn(J, n, j0) for the entries of n; HypothesisViolation
        names a wrong length, a nonzero anchor slot or the first slot outside
        its bounds, in that order.  One lookup on the hypothesis domain;
        only a miss computes."""
        try:
            return self.images[ent]
        except (KeyError, TypeError):
            return self._formula(ent)

    def _formula(self, ent):
        if len(ent) != self.f:
            raise HypothesisViolation(f"n indexed by f={len(ent)}, table by f={self.f}")
        if ent[self.anchor] != 0:
            raise HypothesisViolation(
                f"n at slot j0+1 is {ent[self.anchor]}, expected 0"
            )
        for j, hi in self.bounds:
            if not 1 <= ent[j] <= hi:
                raise HypothesisViolation(f"n_{j}={ent[j]} outside [1, {hi}]")
        p = self.p
        out = []
        # slot j reads x = n_{j+1}: the shift exponent of x minus n_j
        for nj, x, bump in zip(ent, ent[1:] + ent[:1], self.bumps):
            if bump is None:
                out.append(0)
            else:
                half, odd = divmod(x, 2)
                out.append(half * p + (bump if odd else 0) - nj)
        return tuple(out)


def _frame_key(params, J, j0):
    return params.p, params.f, params.r, J, j0, j0 in params.sh(J)


def hj(params, h, j):
    """Base-p assembly of the cyclic vector h starting at slot j.

    Satisfies the telescoping relation p*hj(h, j+1) - hj(h, j) = (q-1)*h_j
    for any h.
    """
    f = params.f
    return sum(h[(j + i) % f] * params.p**i for i in range(f))


# ---------------------------------------------------------------------------
# pairing scalars


class MuAlgebra:
    """Pairing scalars mu(J, Jp) in product form rho_factor[J] * sigma_factor[Jp],
    as int encodings of F_q multiplied by ``field``.

    mu(J, Jp) is defined exactly when the special parts match:
    (J-1)^ss == Jp^ss.  The product form makes every cross-ratio relation
    between entries sharing a defining class hold identically, which is all
    the downstream matrix algorithms rely on.  The class masks of both sides
    and the sign (-1)^(f-1) * epsilon(Jp) of gamma, indexed by subset mask,
    are computed once.
    """

    __slots__ = ("params", "field", "rho_factor", "sigma_factor",
                 "row_class", "col_class", "col_sign")

    def __init__(self, params, field: Fq, rho_factor: dict, sigma_factor: dict):
        self.params, self.field = params, field
        self.rho_factor, self.sigma_factor = rho_factor, sigma_factor
        subs = params.subsets()
        Jrho = params.Jrho
        self.row_class = tuple((J.shift(-1) & Jrho).bits for J in subs)
        self.col_class = tuple((Jp & Jrho).bits for Jp in subs)
        lead = (-1) ** (params.f - 1)
        self.col_sign = tuple(lead * epsilonJ(params, Jp) for Jp in subs)

    def defined(self, J, Jp):
        return self.row_class[J.bits] == self.col_class[Jp.bits]

    def mu(self, J, Jp):
        if not self.defined(J, Jp):
            raise PairNotDefined(f"mu undefined for pair ({J!r}, {Jp!r})")
        return self.field.mul(self.rho_factor[J], self.sigma_factor[Jp])

    def gamma(self, J, Jp):
        m = self.mu(J, Jp)
        return m if self.col_sign[Jp.bits] == 1 else self.field.neg(m)

    def mu_star(self, J):
        """Row factor: mu(J, K) / mu(J2, K) == mu_star(J) / mu_star(J2)."""
        return self.rho_factor[J]

    def gamma_star(self, Jp):
        """Column factor carrying the sign of gamma."""
        s = self.sigma_factor[Jp]
        return s if self.col_sign[Jp.bits] == 1 else self.field.neg(s)


def mu_gamma(params, seed=0):
    """Seeded choice of nonzero pairing scalars in product form."""
    field = Fq(params.p, params.f)
    rng = random.Random(seed)
    rho, sigma = {}, {}
    for J in params.subsets():
        rho[J] = rng.randrange(1, field.q)
        sigma[J] = rng.randrange(1, field.q)
    return MuAlgebra(params, field, rho, sigma)


# ---------------------------------------------------------------------------
# the constant tables of one parameter set and their one-cell mutations


MUTABLE = ("s", "t", "a", "r", "c", "cprime", "tJJp", "aJn")


class Mutation:
    """One-cell additive perturbation of a named constant table."""

    __slots__ = ("table", "jmask", "j", "jpmask", "delta")

    def __init__(self, table: str, jmask: int, j: int, jpmask: int = 0, delta: int = 1):
        if table not in MUTABLE:
            raise ConfigInvalid(f"unknown table {table!r}; pick one of {MUTABLE}")
        self.table, self.jmask, self.j, self.jpmask, self.delta = table, jmask, j, jpmask, delta

    def _fields(self):
        return self.table, self.jmask, self.j, self.jpmask, self.delta

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"Mutation(table={self.table!r}, jmask={self.jmask!r}, j={self.j!r}, "
                f"jpmask={self.jpmask!r}, delta={self.delta!r})")


class ConstantTables:
    """The constant tables of one parameter set, as dicts named after the
    MUTABLE entries, with an optional one-cell mutation.

    s, t, a, r, c and cprime are keyed by J, tJJp by (J, Jp) and aJn by
    (J, j0), whose value is the image of the pristine AJnFrame of (J, j0),
    which the Jrho jobs sharing scope, a RunScope, share.  Every table is
    built from the pristine formulas before the mutation adds its delta to
    its one cell, so an s mutant leaves t and tJJp pristine; an aJn mutant
    wraps the images of the f frames of J to shift slot j of every output.
    The identity sweeps read the constants only through an instance of this
    class, so any single-cell perturbation must trip at least one of them.
    """

    def __init__(self, params, mutation=None, *, scope):
        p, f = params.p, params.f
        frames = scope[AJnFrame]
        subs = params.subsets()
        self.s = {J: sJ_tJ(params, J)[0] for J in subs}
        self.t = {J: sJ_tJ(params, J)[1] for J in subs}
        self.a = {J: aJ(params, J) for J in subs}
        self.r = {J: rJ(params, J) for J in subs}
        self.c = {J: cJ(params, J) for J in subs}
        self.cprime = {J: cPrimeJ(params, J) for J in subs}
        self.tJJp = {(J, Jp): _t_pair(p, self.s[J], Jp) for J in subs for Jp in subs}
        self.aJn = {(J, j0): frames[_frame_key(params, J, j0)].image
                    for J in subs for j0 in range(f)}
        m = mutation
        if m is None:
            return
        masks = range(len(subs))
        if m.jmask not in masks or m.j not in range(f) or (
            m.table == "tJJp" and m.jpmask not in masks
        ):
            raise ConfigInvalid(f"{m!r} names no cell of {m.table} at f={f}")
        J = subs[m.jmask]
        bump = tuple(m.delta if j == m.j else 0 for j in range(f))
        if m.table == "aJn":
            # the wrapped image holds its frame and the bump, never self
            for j0 in range(f):
                self.aJn[J, j0] = lambda ent, im=self.aJn[J, j0]: tuple(map(add, im(ent), bump))
            return
        table = getattr(self, m.table)
        key = (J, subs[m.jpmask]) if m.table == "tJJp" else J
        table[key] = tuple(map(add, table[key], bump))


def all_mutations(params):
    """Every single-cell +1 mutation of the mutable tables."""
    subs = params.subsets()
    out = []
    for table in MUTABLE:
        for J in subs:
            for j in range(params.f):
                if table == "tJJp":
                    for Jp in subs:
                        out.append(Mutation(table, J.bits, j, jpmask=Jp.bits))
                else:
                    out.append(Mutation(table, J.bits, j))
    return out


# ---------------------------------------------------------------------------
# shared sweep helpers


def _pairs_same_class(params, subs):
    # pairs (J, Jp) with (J-1)^ss == Jp^ss
    for J in subs:
        cls = J.shift(-1) & params.Jrho
        for Jp in subs:
            if (Jp & params.Jrho) == cls:
                yield J, Jp


# ---------------------------------------------------------------------------
# bound checks


def check_weight_table_bounds(params, tables):
    """Window checks for the s, pairwise-shift, and carry tables."""
    p, f = params.p, params.f
    subs = params.subsets()

    sw = Sweep("bound-s")
    extra = 1 if f == 1 else 0
    for J in subs:
        Jsh = params.sh(J)
        s = tables.s[J]
        for j in range(f):
            dsh = 1 if j in Jsh else 0
            lo = 2 * (f - dsh) + 1 + extra
            hi = p - 2 - 2 * (f + dsh)
            sw.check(lo <= s[j] <= hi, J=J, j=j, s=s[j], lo=lo, hi=hi)

    tw = Sweep("bound-pairwise-shift")
    for J in subs:
        Jsh = params.sh(J)
        for Jp in subs:
            tv = tables.tJJp[J, Jp]
            for j in range(f):
                hi = p - 1 - 2 * (f - (1 if j in Jsh else 0))
                tw.check(1 <= tv[j] <= hi, J=J, Jp=Jp, j=j, t=tv[j], hi=hi)

    cw = Sweep("bound-carry-window")
    for J in subs:
        c, cp = tables.c[J], tables.cprime[J]
        for j in range(f):
            cw.check(
                0 <= c[j] <= p - 1 and 0 <= cp[j] <= p - 1,
                J=J, j=j, c=c[j], cprime=cp[j],
            )

    dw = Sweep("carry-difference-identity")
    for J in subs:
        c, cp = tables.c[J], tables.cprime[J]
        overlap = J & J.shift(1)
        for j in range(f):
            lhs = p * (1 if (j + 1) in overlap else 0) + c[j] - cp[j]
            dw.check(lhs == f, J=J, j=j, value=lhs)

    return [sw.result(), tw.result(), cw.result(), dw.result()]


# ---------------------------------------------------------------------------
# identity checks


def check_change_origin(params, tables, scope):
    """Origin translation acts as base offset a(J) plus a successor-driven
    sign flip on the whole admissible window.

    Each box is compared with the separable formula in one pass; only a box
    that fails it is swept again tuple by tuple, to record the first
    counterexample.  An image outside a window fails the row.

    A box is built once per scope, a RunScope, keyed on J, the box, the
    base a(J) and the translation.  It sees Jrho only through J^sh, so the
    runs of several Jrho that share a scope check each distinct box once."""
    f = params.f
    boxes = scope[_change_origin_box]
    sw = Sweep("change-origin-composition")
    for J in params.subsets():
        translate = Translation(params, J)
        base = tables.a[J]
        Jsh = params.sh(J)
        ranges = tuple(
            range(-(2 * (f - dsh) + 1), 2 * (f + dsh) + 1)
            for dsh in (1 if j in Jsh else 0 for j in range(f))
        )
        sw.add(*boxes[J, ranges, base, translate])
    return sw.result()


def _change_origin_box(J, ranges, base, translate):
    # (checked, first witness) of one box
    image = translate.image
    signs = tuple(-1 if (j + 1) in J else 1 for j in range(J.f))
    formula = itertools.product(
        *[[a + s * v for v in rng] for a, s, rng in zip(base, signs, ranges)]
    )
    try:
        if all(map(eq, map(image, itertools.product(*ranges)), formula)):
            return math.prod(map(len, ranges)), None
    except RangeViolation:
        pass
    sw = Sweep("change-origin-composition")
    for ent in itertools.product(*ranges):
        try:
            got = image(ent)
        except RangeViolation as exc:
            sw.check(False, J=J, b=ent, error=str(exc))
            continue
        want = tuple(map(add, base, map(mul, signs, ent)))
        sw.check(got == want, J=J, b=ent)
    return sw.checked, sw.counterexample


def _check_t_vs_r(params, tables, subs):
    sw = Sweep("t-equals-r-plus-shift")
    for J in subs:
        Jsh = params.sh(J)
        want = vmap(lambda j, r: r + (1 if j in Jsh else 0), range(params.f), tables.r[J])
        sw.check(tables.t[J] == want, J=J, t=tables.t[J], want=want)
    return sw.result()


def _check_tpair_vs_s(params, tables, subs):
    sw = Sweep("pairwise-shift-vs-s")
    p, f = params.p, params.f
    for J in subs:
        s = tables.s[J]
        for Jp in subs:
            tv = tables.tJJp[J, Jp]
            for j in range(f):
                want = p - 1 - s[j] + (1 if (j - 1) in Jp else 0)
                sw.check(tv[j] == want, J=J, Jp=Jp, j=j, t=tv[j], want=want)
    return sw.result()


def _check_s_complement(params, tables, subs):
    sw = Sweep("s-complement")
    p = params.p
    for J, Jp in _pairs_same_class(params, subs):
        sym = J ^ Jp
        inter_nss = (J & Jp) - params.Jrho
        sJ, sJp = tables.s[J], tables.s[Jp]
        for j in sym.shift(-1).members():
            lhs = (
                2 * (1 if j in inter_nss else 0)
                + (p - 2 - sJ[j])
                + (1 if j in sym else 0)
            )
            sw.check(lhs == sJp[j], J=J, Jp=Jp, j=j, lhs=lhs, rhs=sJp[j])
    return sw.result()


def _check_m_closed_form(params, tables, subs):
    sw = Sweep("m-closed-form")
    for J, Jp in _pairs_same_class(params, subs):
        inter_nss = (J & Jp) - params.Jrho
        i = tuple(1 if j in inter_nss else 0 for j in range(params.f))
        m = _m_vec(_m_frame(J.shift(-1) & params.Jrho, J, (J ^ Jp).shift(-1)), i)
        for j in range(params.f):
            want = (1 if j in Jp else 0) * (-1 if (j + 1) not in J else 1)
            sw.check(m[j] == want, J=J, Jp=Jp, j=j, m=m[j], want=want)
    return sw.result()


_REINDEX_PARTS = ("m", "shift", "carry", "positivity", "box")


def _check_shift_overlap_reindex(params, tables, subs, scope):
    """Reindexing a block across the overlap at j0: the m-vector, the shift
    exponents, the assembled carry digits, and positivity all transport.

    Each (J, j0) block runs through _reindex_block, built once per scope, a
    RunScope, keyed on what the block reads: p, r_{j0+1}, J, j0, Jrho
    through K^ss = (J-1) & Jrho and J2^sh, s(K^ss), per Jp the shift
    exponents of (J, Jp) and of the reindexed (J2, Jpp), and the box of i.
    So the runs of several Jrho that share a scope check each distinct
    block once, and a mutated s or tJJp makes its own."""
    sw = Sweep("shift-overlap-reindex")
    p, f, r = params.p, params.f, params.r
    blocks = scope[_reindex_block]
    for J in subs:
        Kss = J.shift(-1) & params.Jrho
        nss = J.shift(-1) - params.Jrho
        Jsh = params.sh(J)
        for j0 in range(f):
            anchor = (j0 + 1) % f
            if anchor not in nss:
                continue
            J2 = J - SubsetJ.of(f, [j0 + 2])
            flip = SubsetJ.of(f, [j0 + 1])
            shifts = tuple((Jp, tables.tJJp[J, Jp], tables.tJJp[J2, Jp ^ flip])
                           for Jp in subs if (j0 in Jp) == ((j0 + 1) in J))
            # i runs over the small box 0 <= i_j <= f - e^{J^sh}_j with
            # i_{j0+1} = 0
            ranges = tuple(range(1 if j == anchor else f - (1 if j in Jsh else 0) + 1)
                           for j in range(f))
            sw.add(*blocks[p, r[anchor], J, j0, Kss, params.sh(J2), tables.s[Kss],
                           shifts, ranges])
    return sw.result()


def _reindex_block(p, r_anchor, J, j0, Kss, J2sh, svec, shifts, ranges):
    # (checked, first witness) of one (J, j0) block, every i of the box
    # against every (Jp, tJJp[J, Jp], tJJp[J2, Jpp]) of shifts, i first.
    # Runs on entries tuples: a part that holds is only counted, and only
    # the first failing part builds its witness
    f = J.f
    anchor, k = (j0 + 1) % f, (j0 + 2) % f
    # K^ss of J2 is Kss: J2-1 lacks only j0+1 of J-1, which is not special
    J2 = J - SubsetJ.of(f, [j0 + 2])
    anchor_out = 1 if (j0 + 1) not in J else 0

    def frame(K, Kp, tv):
        # the m frame, the shift exponents and the carry digits of the block
        # (K, Kp) as p i_{j+1} + const_j - twice_j i_j
        sym = K ^ Kss
        const = tuple(
            (svec[j] if (j + 1) in sym else p - 1)
            - (0 if j in Kp else tv[j])
            - (anchor_out if j == anchor else 0)
            for j in range(f)
        )
        twice = tuple(0 if j in Kp else 2 for j in range(f))
        return _m_frame(Kss, K, Kp), tv, const, twice

    # the anchor values of the shift exponents and the small box of J2;
    # per Jp, the bump of slot k and the i-free part of the positivity
    # hypothesis
    at_anchor = (r_anchor + 1, p - 1 - r_anchor)
    box = tuple(f - (1 if j in J2sh else 0) for j in range(f))
    frames = [
        (Jp, frame(J, Jp, tv), frame(J2, Jp ^ SubsetJ.of(f, [j0 + 1]), tv2),
         -(0 if (j0 + 1) in Jp else 1) + (1 if (j0 + 2) in Kss else 0),
         tuple((1 if (j - 1) in Jp else 0) - (1 if j in (J ^ Kss) else 0) for j in range(f)))
        for Jp, tv, tv2 in shifts
    ]
    checked, failure = 0, None
    for i in itertools.product(*ranges):
        for Jp, (m_of, tv, c1, w1), (m2_of, tv2, c2, w2), bump, hyp_off in frames:
            ip = i[:k] + (i[k] + bump,) + i[k + 1:]
            m1 = _m_vec(m_of, i)
            shift = [(2 * x + t, 2 * y + u) for x, t, y, u in zip(i, tv, ip, tv2)]
            cvec = [p * x1 + c - w * x for x, x1, c, w in zip(i, i[1:] + i[:1], c1, w1)]
            cpvec = [p * x1 + c - w * x for x, x1, c, w in zip(ip, ip[1:] + ip[:1], c2, w2)]
            hyp = all(2 * x + h >= 0 for x, h in zip(i, hyp_off))
            oks = (
                m1 == _m_vec(m2_of, ip) and m1[anchor] == 0,
                all(pair == at_anchor if j == anchor else pair[0] == pair[1]
                    for j, pair in enumerate(shift)),
                cvec == cpvec,
                not hyp or (min(cvec) >= 0 and min(ip) >= 0),
                all(map(le, ip, box)),
            )
            if failure is None and not all(oks):
                part = _REINDEX_PARTS[oks.index(False)]
                extra = {"c": cvec, "c2": cpvec} if part == "carry" else {}
                failure = witness(J=J, j0=j0, i=i, Jp=Jp, part=part, **extra)
            checked += 4 + hyp
    return checked, failure


def _check_character_origin(params, tables, subs):
    sw = Sweep("character-origin")
    f = params.f
    target = char_of_lambda(params, params.r, (0,) * f)
    for J in subs:
        Jsh = params.sh(J)
        i = vmap(lambda j, r: r + (1 if j in Jsh else 0), range(f), tables.r[J])
        chi = char_of_weight(params, J) * alpha_char(params, i)
        sw.check(chi == target, J=J)
    return sw.result()


def _check_r_additivity(params, tables, subs):
    sw = Sweep("r-additivity")
    for J1 in subs:
        for J2 in subs:
            if J1 & J2:
                continue
            total = vmap(add, tables.r[J1], tables.r[J2])
            sw.check(tables.r[J1 | J2] == total, J1=J1, J2=J2)
    return sw.result()


def _check_c_as_r_difference(params, tables, subs):
    sw = Sweep("c-as-r-difference")
    p, f = params.p, params.f
    for J in subs:
        c = tables.c[J]
        rv, rv1 = tables.r[J], tables.r[J.shift(1)]
        sw.check(
            alpha_char(params, c) == alpha_char(params, vmap(sub, rv1, rv)),
            J=J, part="character",
        )
        for j in range(f):
            want = p * (0 if j in J else 1) - (0 if (j - 1) in J else 1)
            sw.check(
                c[j] + rv[j] - rv1[j] == want, J=J, j=j, part="integer",
                lhs=c[j] + rv[j] - rv1[j], want=want,
            )
    return sw.result()


def _check_carry_inequality(params, tables, subs):
    sw = Sweep("carry-inequality")
    p, f = params.p, params.f
    for J in subs:
        for Jp in subs:
            if not Jp <= J:
                continue
            Jpp = Jp ^ J.shift(-1)
            over = Jp & J.shift(-1)
            cvec = vmap(
                lambda j, c, r: p * (1 if j in over else 0) + c - f - r,
                range(f), tables.c[Jp], tables.r[J - Jp],
            )
            Jp1 = Jp.shift(1)
            Jp1sh = params.sh(Jp1)
            tv = tables.tJJp[Jp1, Jpp]
            bonus = 1 if not Jpp else 0
            for j in range(f):
                rhs = bonus
                if j not in Jpp:
                    rhs += (
                        2 * ((1 if j in (Jp1 & J) else 0) - (1 if j in Jp1sh else 0))
                        + tv[j]
                    )
                for d in (0, 1):
                    sw.check(
                        cvec[j] - d >= rhs,
                        J=J, Jp=Jp, j=j, d=d, lhs=cvec[j] - d, rhs=rhs,
                    )
    return sw.result()


def _check_c_restriction(params, tables, subs):
    sw = Sweep("c-restriction")
    p, f, r = params.p, params.f, params.r
    for J in subs:
        for Jp in subs:
            if not Jp <= J:
                continue
            cp, cw = tables.c[Jp], tables.c[J]
            rd = tables.r[J - Jp]
            for j in range(f):
                want = cw[j] + (p - 1 - r[j] if j in (J - Jp) else 0)
                sw.check(
                    cp[j] - rd[j] == want, J=J, Jp=Jp, j=j,
                    lhs=cp[j] - rd[j], want=want,
                )
    return sw.result()


def _check_scalar_ratio_classes(params, mu, subs):
    """The cross-ratio relations of the pairing scalars, class by class.

    A class C is a subset of Jrho; its rows are the J with (J-1)^ss == C and
    its columns the Jp with Jp^ss == C, so every (row, col) pair is defined.
    The row has four parts; per class of n rows and k columns they count

    - cross ratios: mu(J1, J3) mu(J2, J4) == mu(J1, J4) mu(J2, J3), n^2 k^2;
    - mu-star: mu(J1, K) mu_star(J2) == mu(J2, K) mu_star(J1), n^2 k;
    - gamma-star: gamma(J, J3) gamma_star(J4) == gamma(J, J4) gamma_star(J3),
      n k^2;
    - gamma-sign: gamma(J, Jp) == (-1)^(f-1) eps(Jp) mu(J, Jp), n k, one per
      defined pair, checked after every class in subset order.

    Each of the first three is one flat pass: the class's scalars are read
    once into lists indexed by position, both sides of every comparison are
    computed into two lists, in the order of the part's nested loops (the
    last fastest), and the lists are compared.  Every comparison is still
    made and counted, so the row stays exhaustive, never sampled.  If a
    part fails, _add_family reads its first failing index back as one
    digit per loop (i mod the last loop's size, and so on outwards) and
    builds the witness of those subsets, with the keys in loop order.
    """
    sw = Sweep("scalar-ratio-classes")
    fmul = mu.field.mul
    for C in subs:
        if not C <= params.Jrho:
            continue
        rows = [J for J in subs if (J.shift(-1) & params.Jrho) == C]
        cols = [Jp for Jp in subs if (Jp & params.Jrho) == C]
        m = [[mu.mu(J, Jp) for Jp in cols] for J in rows]
        g = [[mu.gamma(J, Jp) for Jp in cols] for J in rows]
        by_row = list(zip(m, [mu.mu_star(J) for J in rows]))
        g_star = [mu.gamma_star(Jp) for Jp in cols]
        _add_family(
            sw, C, (("J1", rows), ("J2", rows), ("J3", cols), ("J4", cols)),
            [fmul(x, y) for m1 in m for m2 in m for x in m1 for y in m2],
            [fmul(x, y) for m1 in m for m2 in m for y in m2 for x in m1],
        )
        _add_family(
            sw, C, (("J1", rows), ("J2", rows), ("K", cols)),
            [fmul(x, s2) for m1, _ in by_row for m2, s2 in by_row for x in m1],
            [fmul(y, s1) for m1, s1 in by_row for m2, _ in by_row for y in m2],
            part="mu-star",
        )
        _add_family(
            sw, C, (("J", rows), ("J3", cols), ("J4", cols)),
            [fmul(x, t) for row in g for x in row for t in g_star],
            [fmul(y, t) for row in g for t in g_star for y in row],
            part="gamma-star",
        )
    sign0 = 1 if params.f % 2 == 1 else -1
    for J, Jp in _pairs_same_class(params, subs):
        want = mu.field.scale_int(mu.mu(J, Jp), sign0 * epsilonJ(params, Jp))
        sw.check(mu.gamma(J, Jp) == want, J=J, Jp=Jp, part="gamma-sign")
    return sw.result()


def _add_family(sw, cls, loops, lhs, rhs, part=None):
    # add the comparisons lhs[i] == rhs[i] to sw; the lists run over the
    # nested loops, ((key, subsets), ...) outermost first, so a failing i
    # is a mixed-radix number with one digit per loop
    if lhs == rhs:
        sw.add(len(lhs))
        return
    i = next(n for n, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    picks = []
    for key, values in reversed(loops):
        i, k = divmod(i, len(values))
        picks.append((key, values[k]))
    tail = {} if part is None else {"part": part}
    sw.add(len(lhs), witness(cls=cls, **dict(reversed(picks)), **tail))


# the row names of each entry of identity_sweeps, in report order
IDENTITY_ROWS = (
    ("bound-s", "bound-pairwise-shift", "bound-carry-window", "carry-difference-identity"),
    ("t-equals-r-plus-shift",), ("pairwise-shift-vs-s",), ("change-origin-composition",),
    ("s-complement",), ("m-closed-form",), ("shift-overlap-reindex",), ("character-origin",),
    ("r-additivity",), ("c-as-r-difference",), ("carry-inequality",), ("c-restriction",),
    ("scalar-ratio-classes",), ("shifted-table-additivity",),
    ("vanishing-region-envelope", "reduction-target-domination"),
)


def identity_sweeps(params, seed=0, mutation=None, *, scope):
    """Bound checks plus every exact constant identity, exhaustively, as a
    check table: (row names, thunk) entries in report order.  scope, a
    RunScope, shares the aJn frames, the change-of-origin boxes, the
    reindexing blocks and the shifted-table domains between the Jrho jobs
    of one run."""
    tables = ConstantTables(params, mutation, scope=scope)
    subs = params.subsets()

    def over_subsets(check):
        return lambda: [check(params, tables, subs)]

    return list(zip(IDENTITY_ROWS, (
        lambda: check_weight_table_bounds(params, tables),
        over_subsets(_check_t_vs_r),
        over_subsets(_check_tpair_vs_s),
        lambda: [check_change_origin(params, tables, scope)],
        over_subsets(_check_s_complement),
        over_subsets(_check_m_closed_form),
        lambda: [_check_shift_overlap_reindex(params, tables, subs, scope)],
        over_subsets(_check_character_origin),
        over_subsets(_check_r_additivity),
        over_subsets(_check_c_as_r_difference),
        over_subsets(_check_carry_inequality),
        over_subsets(_check_c_restriction),
        lambda: [_check_scalar_ratio_classes(params, mu_gamma(params, seed), subs)],
        lambda: [check_shifted_table_additivity(params, tables, scope)],
        lambda: check_domination_claims(params, tables),
    ), strict=True))


def run_identities(params, seed=0, mutation=None, scope=None):
    """The rows of identity_sweeps; a package error fails only the rows of
    the sweep that raised it.  scope None runs in a RunScope of its own."""
    return run_table(identity_sweeps(params, seed, mutation,
                                     scope=RunScope() if scope is None else scope))


def check_shifted_table_additivity(params, tables, scope):
    """aJn(J, n) + rJ(J minus Jp) == aJn(Jp, n + e^{J minus Jp}) whenever
    j0+1 avoids the difference and the anchor condition holds.

    Each (J, Jp, j0) domain runs through _additivity_domain, built once per
    scope, a RunScope, keyed on J, Jp, j0, the images aJn(J, ., j0) and
    aJn(Jp, ., j0) and rJ(J minus Jp).  A mutant's tables wrap the images
    anew, so they never read a pristine domain."""
    f = params.f
    domains = scope[_additivity_domain]
    sw = Sweep("shifted-table-additivity")
    for J in params.subsets():
        Jss = J & params.Jrho
        Jsh = params.sh(J)
        for Jp in params.subsets():
            if not Jp <= J:
                continue
            diff = J - Jp
            rdiff = tables.r[diff]
            for j0 in range(f):
                if (j0 + 1) in diff:
                    continue
                if j0 in Jsh and not (Jss | SubsetJ.of(f, [j0 + 1])) <= Jp:
                    continue
                sw.add(*domains[J, Jp, j0, tables.aJn[J, j0], tables.aJn[Jp, j0], rdiff])
    return sw.result()


def _additivity_domain(J, Jp, j0, at_J, at_Jp, rdiff):
    # (checked, first witness) of one (J, Jp, j0) domain, compared on
    # entries tuples in one pass
    domain, diff = _a_domain(J, j0), J - Jp
    shift = tuple(1 if j in diff else 0 for j in range(J.f))
    lhs = [tuple(map(add, at_J(e), rdiff)) for e in domain]
    rhs = [at_Jp(tuple(map(add, e, shift))) for e in domain]
    if lhs == rhs:
        return len(domain), None
    i = next(n for n, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    return len(domain), witness(J=J, Jp=Jp, j0=j0, n=domain[i], lhs=lhs[i], rhs=rhs[i])


def check_domination_claims(params, tables):
    """Worst-case envelopes used to localize the reduction:

    - vanishing-region-envelope: evaluation at the extreme n dominates every
      index of norm <= f with minimum -m' at j0 (trivial single check at f=1);
    - reduction-target-domination: the anchored table dominates the shifted
      target row by row.
    """
    p, f = params.p, params.f
    env = Sweep("vanishing-region-envelope")
    if f == 1:
        for J in params.subsets():
            a = tables.aJn[J, 0]((0,))
            env.check(a[0] == 0, J=J, a=a)
    else:
        for J in params.subsets():
            for j0 in range(f):
                at = tables.aJn[J, j0]
                for mp in range(1, p):
                    nval = min(mp, 2 * f - 1)
                    ent = [nval] * f
                    ent[(j0 + 1) % f] = 0
                    a = at(tuple(ent))
                    bound = (f - 1) * mp + f
                    ok = a[j0] >= -mp
                    for j in range(f):
                        if j == j0 % f:
                            continue
                        ok = ok and a[j] - (1 if j == (j0 + 1) % f else 0) >= bound
                    env.check(ok, J=J, j0=j0, mprime=mp, a=a, bound=bound)

    cor = Sweep("reduction-target-domination")
    if f >= 2:
        for J in params.subsets():
            Jss = J & params.Jrho
            Jsh = params.sh(J)
            for Jp in params.subsets():
                if not (Jss <= Jp and Jp < J):
                    continue
                diff = J - Jp
                for j0 in range(f):
                    if (j0 + 1) in diff:
                        continue
                    ent = [2] * f
                    ent[(j0 + 1) % f] = 0
                    ent[j0 % f] = 1 + (1 if j0 in diff else 0)
                    lhs = list(tables.aJn[Jp, j0](tuple(ent)))
                    lhs[(j0 + 1) % f] -= 1
                    rhs = [x + f for x in tables.r[diff]]
                    rhs[j0 % f] -= f + 1 - (1 if j0 in Jsh else 0)
                    cor.check(all(map(ge, lhs, rhs)), J=J, Jp=Jp, j0=j0, lhs=lhs, rhs=rhs)
    return [env.result(), cor.result()]
