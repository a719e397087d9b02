"""Matrix layer of the rank-2^f module over the multiplicative chart.

The substitution operator and the unit action of O_K^x act on a free module
whose 2^f basis lines are indexed by subsets of Z/fZ.  This module builds
their matrices over the truncated Laurent chart, inverts the substitution
matrix by inclusion-triangular back-substitution, solves the twisted
fixed-point systems that pin down the unit-action matrices, and verifies
the structural claims: support patterns, filtration depths, leading-term
congruences, commutation of the two actions, and the eigenline classifier
for twisted fixed vectors.

Entries are AElement values; missing entries are exact zeros, and no
matrix stores one: every builder drops them through _nonzero.  Every
comparison respects the tracked knowledge cutoffs, so a check can only
assert agreement strictly below the propagated precision floor of the
entry it looks at.

Every twist monomial is prod_j (Y_j * Y_{j-1}^(-p))^(h_j) for some integer
vector h, whose exponent _twist gives: slot j gets h_j - p*h_{j+1}.
"""

import itertools
import random

from .arith import Fq
from .base_combinatorics import SubsetJ, all_subsets, vmap
from .constants import cJ, hj, rJ
from .errors import (
    ConfigInvalid,
    HypothesisViolation,
    NonConvergence,
    NotAUnit,
    NotInvertible,
)
from .iwasawa import (
    INF,
    AElement,
    cocycle_factor,
    eq_below,
    fdeg,
    frobenius,
    is_torus_fixed,
    principal_units,
    unit_action,
)
from .reporting import Sweep, witness


def _between(lo, hi):
    """Subsets S with lo <= S <= hi, by submask walk."""
    if not lo <= hi:
        return
    free = hi.bits & ~lo.bits
    sub = free
    subsets = all_subsets(hi.f)
    while True:
        yield subsets[lo.bits | sub]
        if sub == 0:
            return
        sub = (sub - 1) & free


def _zero(fld, f):
    return AElement(fld, f, INF, {})


def _nonzero(entries):
    """The (key, entry) pairs whose entry is not an exact zero, as a dict."""
    return {rc: v for rc, v in entries if v.terms or v.cutoff != INF}


def _twist(p, h):
    """Exponent of prod_j (Y_j * Y_{j-1}^(-p))^(h_j), indices cyclic."""
    f = len(h)
    return tuple(h[j] - p * h[(j + 1) % f] for j in range(f))


# ---------------------------------------------------------------------------
# matrices


class PhiGammaMatrix:
    """Square matrix over the Laurent chart, rows and columns indexed by
    subsets of Z/fZ.  Missing entries are exact zeros; entries that are
    zero only as far as they are known keep their finite cutoff."""

    __slots__ = ("params", "field", "entries")

    def __init__(self, params, field, entries: dict):
        self.params = params
        self.field = field
        self.entries = entries

    @classmethod
    def identity(cls, params, fld):
        ent = {(J, J): AElement.const(fld, params.f, 1) for J in params.subsets()}
        return cls(params, fld, ent)

    def entry(self, rowJ, colJ):
        e = self.entries.get((rowJ, colJ))
        return _zero(self.field, self.params.f) if e is None else e

    def map_entries(self, fn):
        return PhiGammaMatrix(
            self.params, self.field, {rc: fn(x) for rc, x in self.entries.items()}
        )

    def __matmul__(self, other):
        byrow = {}
        for (r2, c2), y in other.entries.items():
            byrow.setdefault(r2, []).append((c2, y))
        pairs = {}
        for (r, mid), x in self.entries.items():
            for c, y in byrow.get(mid, ()):
                pairs.setdefault((r, c), []).append((x, y))
        return PhiGammaMatrix(self.params, self.field, _nonzero(
            (rc, AElement.sum(self.field, self.params.f, [x * y for x, y in xys]))
            for rc, xys in pairs.items()))


def _entry_pairs(A, B):
    """(key, A entry, B entry) over the union of both supports, ordered by
    the row and column masks."""
    keys = set(A.entries) | set(B.entries)
    for key in sorted(keys, key=lambda rc: (rc[0].bits, rc[1].bits)):
        yield key, A.entry(*key), B.entry(*key)


def phi_support(params):
    """Nonzero positions of the substitution matrix: column J+1 holds the
    rows J' with J^ss <= J' <= J."""
    out = set()
    for J in params.subsets():
        col = J.shift(1)
        for Jp in _between(J & params.Jrho, J):
            out.add((Jp, col))
    return out


def _phi_matrix(mu, exponent, flip=None):
    """Substitution matrix: each slot (J', J+1) of phi_support holds
    gamma(J+1, J') times the monomial Y^exponent(J, J').

    flip, a (rowJ, colJ) pair on the support, negates that one scalar; it
    is the detectability hook used by mutation runs.
    """
    params = mu.params
    fld = mu.field
    ent = {}
    for J in params.subsets():
        col = J.shift(1)
        for Jp in _between(J & params.Jrho, J):
            g = mu.gamma(col, Jp)
            if flip == (Jp, col):
                g = fld.neg(g)
            ent[(Jp, col)] = AElement.monomial(fld, params.f, exponent(J, Jp), g)
    return PhiGammaMatrix(params, fld, ent)


def mat_phi_untwisted(mu):
    """Substitution matrix in the raw basis: the row J' monomial of column
    J+1 has exponent -(c^J + r^(J minus J'))."""
    params = mu.params
    return _phi_matrix(mu, lambda J, Jp: vmap(
        lambda c, r: -(c + r), cJ(params, J), rJ(params, J - Jp)))


def mat_phi_twisted(mu, flip=None):
    """Substitution matrix in the pole-normalized basis: the column J+1
    monomial twists by h_j = r_j+1 on the j outside J, so every entry of
    that column sits at filtration depth -(p-1)*sum(r_j+1)."""
    p, r = mu.params.p, mu.params.r
    return _phi_matrix(mu, lambda J, Jp: _twist(
        p, [0 if j in J else rj + 1 for j, rj in enumerate(r)]), flip)


def default_flip(params):
    """Sign-flip slot of the eps mutant: the lowest row of the constant
    column, that is (Jrho, full).  Off the full Jrho the flip fails
    unit-substitution-commutation.  At the full Jrho the slot is the
    diagonal one, (full, full), which that row cannot see: the flip passes
    every phigamma row there."""
    full = SubsetJ.full(params.f)
    row = params.Jrho if not params.Jrho.is_full() else full
    return (row, full.shift(1))


def basis_change(params, fld):
    """Diagonal change of basis with entry Y^(r^(J complement)) at J."""
    ent = {}
    for J in params.subsets():
        k = rJ(params, J.complement())
        ent[(J, J)] = AElement.monomial(fld, params.f, k)
    return PhiGammaMatrix(params, fld, ent)


def solve_right_inverse(M):
    """Right inverse X (M @ X == identity) for a matrix with the
    substitution support pattern.

    Column J+1 meets row J' only when J' <= J, so rows ordered by
    decreasing size make the system triangular with the invertible
    (J, J+1) slot on the diagonal.  That slot must be a nonzero monomial,
    inverted as its -1st power; NotInvertible is raised when it is missing,
    zero or anything else.
    """
    params = M.params
    fld = M.field
    f = params.f
    subs = params.subsets()
    full = SubsetJ.full(f)
    diag_inv = {}
    for J in subs:
        e = M.entries.get((J, J.shift(1)))
        if e is None or e.is_zero():
            raise NotInvertible(f"column {J.shift(1)!r} has no unit at row {J!r}")
        try:
            diag_inv[J] = e.pow_below(-1, INF)
        except NotAUnit as exc:
            raise NotInvertible(str(exc)) from exc
    rows_desc = sorted(subs, key=lambda J: (-len(J), J.bits))
    ent = {}
    for K in subs:
        sol = {}
        for Jp in rows_desc:
            parts = [AElement.const(fld, f, 1)] if Jp == K else []
            for J in _between(Jp, full):
                if J == Jp:
                    continue
                e = M.entries.get((Jp, J.shift(1)))
                x = sol.get(J.shift(1))
                if e is not None and x is not None:
                    parts.append(-(e * x))
            if parts:
                sol[Jp.shift(1)] = diag_inv[Jp] * AElement.sum(fld, f, parts)
        ent.update(_nonzero(((rowK, K), v) for rowK, v in sol.items()))
    return PhiGammaMatrix(params, fld, ent)


# ---------------------------------------------------------------------------
# twisted fixed-point systems


class ThetaProblem:
    """Twisted difference system on f-tuples of torus-fixed elements.

    Component i of the operator is
        theta(a)_i = a_i - lam_i * W_i * phi(a_{i+1}),
    where W_i is the twist monomial of h with h_j weighted by
    (j - i in J) - (j - i in J'), all indices cyclic.  The twist scalars
    lam_i are nonzero F_q encodings (ints).
    """

    __slots__ = ("p", "J", "Jp", "lam", "h", "b", "field", "twist_monomials")

    def __init__(self, p: int, J: SubsetJ, Jp: SubsetJ, lam: tuple, h: tuple, b: tuple):
        f = J.f
        if Jp.f != f or len(lam) != f or len(b) != f or len(h) != f:
            raise HypothesisViolation("component counts must all equal f")
        for j in range(f):
            if not 1 <= h[j] <= p - 2:
                raise HypothesisViolation(f"h_{j}={h[j]} outside [1, p-2]")
        if not all(lam):
            raise HypothesisViolation("twist scalars must be nonzero")
        for x in b:
            if not is_torus_fixed(x):
                raise HypothesisViolation("right-hand side must be torus-fixed")
        self.p, self.J, self.Jp, self.lam, self.h, self.b = p, J, Jp, lam, h, b
        self.field = b[0].field
        # the f twist monomials lam_i * W_i
        self.twist_monomials = tuple(
            AElement.monomial(self.field, f, _twist(p, [
                v * (((j - i) % f in J) - ((j - i) % f in Jp))
                for j, v in enumerate(h)
            ]), lam[i])
            for i in range(f)
        )

    @property
    def f(self):
        return self.J.f


def _theta_increment(mono, a, f):
    # (id - theta)(a): component i is mono_i * phi(a_{i+1})
    return tuple(mono[i] * frobenius(a[(i + 1) % f]) for i in range(f))


def theta_apply(prob, a):
    """Apply the twisted difference operator to an f-tuple."""
    f = prob.f
    a = tuple(a)
    if len(a) != f:
        raise HypothesisViolation("need one component per embedding slot")
    for x in a:
        if not is_torus_fixed(x):
            raise HypothesisViolation("inputs must be torus-fixed")
    inc = _theta_increment(prob.twist_monomials, a, f)
    return tuple(a[i] - inc[i] for i in range(f))


def solve_cutoff(p, f, depth=None):
    """Working truncation of the solver: one band beyond the leading-term
    congruence window, or the requested depth if that is deeper."""
    base = (f + 2) * (p - 1) + 1
    return base if depth is None else max(base, depth)


def theta_solve(prob, depth=None):
    """The unique solution of theta(a) = b, to the working truncation W.

    Needs J' strictly inside J, 1 <= h_j <= p-1-f, and component depths
    fdeg(b_i) >= |J minus J'|*(p-1).  The solution is the series b + u(1) +
    u(2) + ..., u(k+1) = (id - theta)(u(k)), truncated below W (_window).
    Each increment must gain depth at least max((f+1)(p-1),
    fdeg(previous)+1) and vanish within the step budget; a stall can only
    come from broken precision bookkeeping and raises NonConvergence.  The
    returned components satisfy fdeg(a_i - b_i) >= (f+1)(p-1).
    """
    p, f = prob.p, prob.f
    if not prob.Jp < prob.J:
        raise HypothesisViolation("solver needs J' strictly inside J")
    for j in range(f):
        if not 1 <= prob.h[j] <= p - 1 - f:
            raise HypothesisViolation(f"solver needs h_{j} in [1, p-1-f]")
    m = len(prob.J - prob.Jp)
    for i, x in enumerate(prob.b):
        if fdeg(x) < m * (p - 1):
            raise HypothesisViolation(
                f"fdeg(b_{i})={fdeg(x)} is shallower than {m * (p - 1)}"
            )
    if all(x.cutoff == INF and x.is_zero() for x in prob.b):
        return tuple(_zero(prob.field, f) for _ in range(f))
    W, budget = _window(prob, depth)
    b = tuple(x.copy_truncated(W) for x in prob.b)
    if all(x.is_zero() for x in b):
        return b
    mono = prob.twist_monomials
    gain_floor = (f + 1) * (p - 1)
    acc = inc = b
    for _ in range(budget):
        prev = inc
        inc = tuple(x.copy_truncated(W) for x in _theta_increment(mono, inc, f))
        if all(x.is_zero() for x in inc):
            return acc
        for i in range(f):
            need = max(gain_floor, fdeg(prev[(i + 1) % f]) + 1)
            got = fdeg(inc[i])
            if got < need:
                raise NonConvergence(f"component {i} reached depth {got}, needed {need}")
        acc = tuple(acc[i] + inc[i] for i in range(f))
    raise NonConvergence("iteration budget exhausted before stabilizing")


def _window(prob, depth):
    """The solver's truncation W, solve_cutoff or the shallowest cutoff of
    the right-hand side if that is lower, and its step budget."""
    W = min([solve_cutoff(prob.p, prob.f, depth), *(x.cutoff for x in prob.b)])
    return W, max(int(W - (prob.f + 1) * (prob.p - 1) + 2), 1)


def random_theta_problem(fld, seed):
    """Seeded valid solver instance: nested random pair, random nonzero
    twist scalars, admissible h, sparse torus-fixed right-hand side (four
    monomials per component) whose first term sits exactly at the minimal
    depth."""
    rng = random.Random(seed)
    p, f = fld.p, fld.k
    J = all_subsets(f)[rng.randrange(1, 1 << f)]
    mem = list(J.members())
    drop = rng.sample(mem, rng.randrange(1, len(mem) + 1))
    Jp = J - SubsetJ.of(f, drop)
    m = len(J - Jp)
    lam = tuple(rng.randrange(1, fld.q) for _ in range(f))
    h = tuple(rng.randrange(1, p - f) for _ in range(f))

    def kvec(blocks):
        # nonnegative combination of the depth-(p-1) torus-fixed moves
        c = [0] * f
        for _ in range(blocks):
            c[rng.randrange(f)] += 1
        return tuple(-k for k in _twist(p, c))

    b = []
    for _ in range(f):
        x = _zero(fld, f)
        for n in range(4):
            blocks = m if n == 0 else m + rng.randrange(3)
            x = x + AElement.monomial(fld, f, kvec(blocks), rng.randrange(1, fld.q))
        b.append(x)
    return ThetaProblem(p, J, Jp, lam, h, tuple(b))


# ---------------------------------------------------------------------------
# unit-action matrices


def build_q_a(ctx, mu, u):
    """Normalized unit-action matrix (slot corrections divided out) plus
    the slot correction units themselves: at slot j, the ratio distortion
    of that slot raised to hj(r+1, j), the cyclic base-p weight of r+1
    from slot j, with its own substitution image divided out.

    Teichmuller units give the exact identity.  When every embedding is
    special the matrix stays the identity; the leftover diagonal scalar
    freedom is resolved to 1, which downstream reports record.  Otherwise
    entries fill in by induction on the size of the column-minus-row
    difference; each orbit of row/column pairs under simultaneous shift is
    one twisted fixed-point system whose right-hand side couples the
    shallower entries through the substitution and the slot corrections.
    """
    params = mu.params
    fld = mu.field
    f, p = params.f, params.p
    if ctx.p != p or ctx.f != f:
        raise ConfigInvalid("chart context and parameters disagree on (p, f)")
    qa = PhiGammaMatrix.identity(params, fld)
    if not ctx.unit_data[u][1]:
        return qa, {j: AElement.const(fld, f, 1) for j in range(f)}
    hvec = tuple(x + 1 for x in params.r)
    pj = {j: cocycle_factor(ctx, u, j, hj(params, hvec, j)) for j in range(f)}
    if params.Jrho.is_full():
        return qa, pj
    empty = SubsetJ.of(f)
    done = set()
    for m in range(1, f + 1):
        for J in params.subsets():
            for Jp in _between(empty, J):
                if len(J - Jp) != m or (Jp, J) in done:
                    continue
                lam = tuple(
                    fld.div(mu.gamma(Jp.shift(i + 1), Jp.shift(i)),
                            mu.gamma(J.shift(i + 1), J.shift(i)))
                    for i in range(f)
                )
                b = tuple(
                    _block_rhs(mu, qa, pj, Jp.shift(i), J.shift(i), hvec)
                    for i in range(f)
                )
                prob = ThetaProblem(p, J, Jp, lam, hvec, b)
                keys = [(Jp.shift(i), J.shift(i)) for i in range(f)]
                done.update(keys)
                qa.entries.update(_nonzero(zip(keys, theta_solve(prob, depth=ctx.D))))
    return qa, pj


def _block_rhs(mu, qa, pj, Jp, J, hvec):
    """Right-hand side of the fixed-point equation for the (Jp, J) entry:
    contributions of intermediate columns through the substitution, minus
    contributions of intermediate rows through the slot corrections."""
    params = mu.params
    fld = mu.field
    f, p = params.f, params.p
    Jrho = params.Jrho
    gJ = mu.gamma(J.shift(1), J)
    parts = []
    for K in _between(Jp, J):
        if K == Jp or not (K & Jrho) <= Jp:
            continue
        x = qa.entries.get((K.shift(1), J.shift(1)))
        if x is None:
            continue
        D = J - K
        k = _twist(p, [v if j in D else 0 for j, v in enumerate(hvec)])
        g = fld.div(mu.gamma(K.shift(1), Jp), gJ)
        parts.append(AElement.monomial(fld, f, k, g) * frobenius(x))
    for K in _between(Jp | (J & Jrho), J):
        if K == J:
            continue
        x = qa.entries.get((Jp, K))
        if x is None:
            continue
        term = x.scale(fld.neg(fld.div(mu.gamma_star(K), mu.gamma_star(J))))
        for j in J - K:
            term = term * pj[j]
        parts.append(term)
    return AElement.sum(fld, f, parts)


def assemble_unit_matrix(params, qa, pj):
    """Multiply each normalized entry by the slot corrections of the
    embeddings outside its column index."""
    ent = []
    for (Jp, J), x in qa.entries.items():
        for j in range(params.f):
            if j not in J:
                x = x * pj[j]
        ent.append(((Jp, J), x))
    return PhiGammaMatrix(params, qa.field, _nonzero(ent))


def unit_support(params):
    """Allowed nonzero positions of a unit-action matrix: row inside
    column."""
    empty = SubsetJ.of(params.f)
    return {
        (Jp, J) for J in params.subsets() for Jp in _between(empty, J)
    }


# ---------------------------------------------------------------------------
# eigenline classifier


def classify_phi_q_eigen(q, lam, s):
    """Solutions a of a = lam * Y^s * phi_q(a) in the Laurent chart.

    A nonzero solution exists exactly when every s_j is divisible by q-1
    and lam is 1; the solutions then form the scalar line on the monomial
    with exponent -s/(q-1).  Returns ("line", t) or ("zero", None).
    """
    q1 = q - 1
    if lam == 1 and all(v % q1 == 0 for v in s):
        t = tuple(v // q1 for v in s)
        return ("line", t)
    return ("zero", None)


def _quotient(fld, f, t):
    """phi_q(Y^-t) * Y^t: the quotient phi_q(a) * a^-1 of the unit a = Y^-t,
    by the generic frobenius and product."""
    img = AElement.monomial(fld, f, tuple(-v for v in t))
    for _ in range(f):
        img = frobenius(img)
    return img * AElement.monomial(fld, f, t)


# ---------------------------------------------------------------------------
# checks


def check_phi_matrix_shapes(mu):
    """Support patterns, monomial entries, per-column pole depth of the
    pole-normalized matrix, and the unit slot every column must carry."""
    params = mu.params
    sweep = Sweep("substitution-matrix-shapes")
    expected = phi_support(params)
    raw = mat_phi_untwisted(mu)
    norm = mat_phi_twisted(mu)
    sweep.check(set(raw.entries) == expected, claim="support-raw")
    sweep.check(set(norm.entries) == expected, claim="support-normalized")
    for M, tag in ((raw, "raw"), (norm, "normalized")):
        for (Jp, col), x in M.entries.items():
            sweep.check(
                len(x.terms) == 1 and x.cutoff == INF,
                row=Jp, col=col, claim=f"monomial-{tag}",
            )
    for J in params.subsets():
        col = J.shift(1)
        pole = -(params.p - 1) * sum(
            params.r[j] + 1 for j in range(params.f) if j not in J
        )
        for Jp in _between(J & params.Jrho, J):
            x = norm.entries[(Jp, col)]
            sweep.check(
                fdeg(x) == pole,
                row=Jp, col=col, claim="pole-depth", expected=pole, got=fdeg(x),
            )
        sweep.check((J, col) in norm.entries, col=col, claim="unit-diagonal")
    return sweep.result()


def check_twist_change_of_basis(mu):
    """The pole-normalized matrix equals D @ raw @ phi(D)^-1 exactly."""
    params = mu.params
    sweep = Sweep("twist-change-of-basis")
    raw = mat_phi_untwisted(mu)
    norm = mat_phi_twisted(mu)
    D = basis_change(params, mu.field)
    Dphi_inv = D.map_entries(lambda x: frobenius(x).pow_below(-1, INF))
    prod = (D @ raw) @ Dphi_inv
    for key, a, b in _entry_pairs(prod, norm):
        diff = a - b
        sweep.check(
            diff.is_zero() and diff.cutoff == INF, row=key[0], col=key[1]
        )
    return sweep.result()


def check_right_inverse(mu):
    """Back-substituted right inverses leave an exactly empty residual,
    and removing a unit slot is detected."""
    params = mu.params
    sweep = Sweep("substitution-right-inverse")
    ident = PhiGammaMatrix.identity(params, mu.field)
    for builder, tag in ((mat_phi_twisted, "normalized"), (mat_phi_untwisted, "raw")):
        M = builder(mu)
        X = solve_right_inverse(M)
        for key, a, b in _entry_pairs(M @ X, ident):
            sweep.check((a - b).is_zero(), row=key[0], col=key[1], claim=tag)
    M = mat_phi_twisted(mu)
    probe = SubsetJ.full(params.f)
    del M.entries[(probe, probe.shift(1))]
    try:
        solve_right_inverse(M)
        sweep.check(False, claim="missing-unit-slot-undetected")
    except NotInvertible:
        sweep.check(True, claim="missing-unit-slot")
    return sweep.result()


def check_theta_basics(p, f, seed=0):
    """Kernel on constants for the untwisted square system, exactness on
    zero, and linearity."""
    sweep = Sweep("theta-basics")
    fld = Fq(p, f)
    zeros = tuple(_zero(fld, f) for _ in range(f))
    J = SubsetJ.of(f, (0,))
    ones = (1,) * f
    h = (2,) * f
    prob = ThetaProblem(p, J, J, ones, h, zeros)
    for c in (1, 5 % p):
        const = tuple(AElement.const(fld, f, c) for _ in range(f))
        out = theta_apply(prob, const)
        sweep.check(all(x.is_zero() for x in out), claim="constant-kernel", c=c)
    out = theta_apply(prob, zeros)
    sweep.check(all(x.is_zero() for x in out), claim="zero-to-zero")
    rng = random.Random(seed)
    prob = random_theta_problem(fld, rng.randrange(10**6))
    a1 = random_theta_problem(fld, rng.randrange(10**6)).b
    a2 = random_theta_problem(fld, rng.randrange(10**6)).b
    lhs = theta_apply(prob, tuple(x + y for x, y in zip(a1, a2)))
    rhs1 = theta_apply(prob, a1)
    rhs2 = theta_apply(prob, a2)
    for i in range(f):
        diff = lhs[i] - (rhs1[i] + rhs2[i])
        sweep.check(diff.is_zero(), claim="linearity", i=i)
    return sweep.result()


def check_theta_solver(p, f, count=50, seed=0, depth=None):
    """Random valid systems: residual empty below the working truncation,
    leading-term congruence with the right-hand side, and exact agreement
    with the fixpoint iteration x <- b + (id - theta)(x) from x = 0, which
    the check runs itself, below the solver's W and within its step
    budget."""
    sweep = Sweep("theta-solver")
    fld = Fq(p, f)
    cong = (f + 1) * (p - 1)
    for n in range(count):
        prob = random_theta_problem(fld, seed * 100003 + n)
        a = theta_solve(prob, depth=depth)
        W, budget = _window(prob, depth)
        b = tuple(x.copy_truncated(W) for x in prob.b)
        x = tuple(AElement(fld, f, W, {}) for _ in range(f))
        for _ in range(budget + 1):
            nxt = tuple((bi + d).copy_truncated(W)
                        for bi, d in zip(b, _theta_increment(prob.twist_monomials, x, f)))
            if all((u - v).is_zero() for u, v in zip(nxt, x)):
                break
            x = nxt
        else:
            raise NonConvergence("iteration budget exhausted before stabilizing")
        sweep.check(a == nxt, case=n, claim="schedule-agreement")
        res = theta_apply(prob, a)
        for i in range(f):
            d = res[i] - prob.b[i]
            sweep.check(d.is_zero(), case=n, i=i, claim="residual", floor=d.cutoff)
            ok = eq_below(a[i], prob.b[i], min(cong, a[i].cutoff))
            sweep.check(ok, case=n, i=i, claim="leading-congruence")
    return sweep.result(info={"cutoff": solve_cutoff(p, f, depth)})


def check_eigen_classifier(p, f, samples=20, seed=0):
    """Classifier verdicts against the direct substitution oracle.

    For the unit a = Y^-t the relation a = lam * Y^s * phi_q(a) holds
    exactly when the quotient phi_q(a) * a^-1 (_quotient) equals
    lam^-1 * Y^-s.  A line verdict t is checked by that equality.  A zero
    verdict is certified by a box scan: no quotient depends on (lam, s),
    so the quotient of each point of the largest box any zero verdict
    needs is computed once and indexed by its exact terms and cutoff.  The
    zero verdict for (lam, s) holds when lam^-1 * Y^-s is the quotient of
    no point t inside its own box, |t_j| <= max|s_j| // (q-1) + 2.  The
    quotient of Y^-t is Y^-(q-1)t, so the one point that can solve (lam, s)
    is t = s/(q-1), of radius max|s_j| // (q-1): the margins +1 and +0 give
    the same verdicts as this +2, and are equivalent mutants of it.
    """
    sweep = Sweep("substitution-eigenline-classifier")
    fld = Fq(p, f)
    rng = random.Random(seed)
    q1 = fld.q - 1
    cases = [(1, (0,) * f)]
    for _ in range(samples):
        t = tuple(rng.randrange(-3, 4) for _ in range(f))
        lam = rng.randrange(1, fld.q)
        line = tuple(q1 * v for v in t)
        cases.append((lam, line))
        off = list(line)
        off[rng.randrange(f)] += rng.randrange(1, q1)
        cases.append((lam, tuple(off)))
    verdicts = [(lam, s, *classify_phi_q_eigen(fld.q, lam, s)) for lam, s in cases]
    reach = {
        s: max(map(abs, s)) // q1 + 2 for _, s, kind, _ in verdicts if kind != "line"
    }
    box = max(reach.values(), default=-1)
    # quotient phi_q(Y^-t) * Y^t -> least max|t_j| among the points giving it
    quotients = {}
    for t in itertools.product(range(-box, box + 1), repeat=f):
        quo = _quotient(fld, f, t)
        radius = max(map(abs, t))
        quotients[quo] = min(radius, quotients.get(quo, radius))
    for lam, s, kind, t in verdicts:
        want = AElement.monomial(fld, f, tuple(-v for v in s), fld.inv(lam))
        if kind == "line":
            ok = _quotient(fld, f, t) == want
        else:
            ok = quotients.get(want, INF) > reach[s]
        sweep.check(ok, lam=lam, s=s, kind=kind)
    return sweep.result()


def check_commutation(ctx, Pphi, Pa, u):
    """Both orders of substitution against unit action agree entrywise.

    Left product applies the unit to the substitution matrix; right
    product applies the substitution to the unit matrix.  Each entry
    difference must be empty strictly below its own propagated knowledge
    floor.  The conservative global floor, cutoff minus p times the
    largest entry pole, is reported next to the honest per-entry floors;
    entries whose floor sits below all their content are counted as
    vacuous and visible in the report.
    """
    sweep = Sweep("unit-substitution-commutation")
    lhs = Pa @ Pphi.map_entries(lambda x: unit_action(ctx, u, x))
    rhs = Pphi @ Pa.map_entries(frobenius)
    worst = None
    nonvac = 0
    entries = 0
    for key, a, b in _entry_pairs(lhs, rhs):
        entries += 1
        diff = a - b
        floor = diff.cutoff
        if floor != INF:
            worst = floor if worst is None else min(worst, floor)
        if any(sum(k) < floor for k in a.terms) or any(
            sum(k) < floor for k in b.terms
        ):
            nonvac += 1
        sweep.check(
            diff.is_zero(),
            row=key[0], col=key[1],
            floor=floor, leading=fdeg(diff),
        )
    max_pole = 0
    for M in (Pphi, Pa):
        for x in M.entries.values():
            d = fdeg(x)
            if d != INF:
                max_pole = max(max_pole, abs(d))
    info = {
        "formula_floor": ctx.D - ctx.p * max_pole,
        "lowest_entry_floor": worst,
        "nonvacuous_entries": nonvac,
        "entries": entries,
    }
    return sweep.result(info=info)


def check_unit_action_matrices(ctx, mu, units, pairs, seed, flip=None):
    """Build the unit matrices once per sampled unit and run the structure,
    commutation, and cocycle sweeps on them.  Returns three results.

    flip propagates to the substitution matrix used by the commutation
    sweep (the detectability hook for mutation runs)."""
    params = mu.params
    fld = mu.field
    f, p = params.f, params.p
    s_struct = Sweep("unit-matrix-structure")
    s_comm = Sweep("unit-substitution-commutation")
    s_cocy = Sweep("unit-matrix-cocycle")
    Pphi = mat_phi_twisted(mu, flip=flip)
    allowed = unit_support(params)
    cong = (f + 1) * (p - 1)
    one = AElement.const(fld, f, 1)

    lift = ctx.ring.teichmuller(min(2, ctx.field.q - 1))
    qa, pj = build_q_a(ctx, mu, lift)
    ident = PhiGammaMatrix.identity(params, fld)
    ok = (
        set(qa.entries) == set(ident.entries)
        and all((qa.entries[k] - ident.entries[k]).is_zero() for k in ident.entries)
        and all((pj[j] - one).is_zero() for j in range(f))
    )
    s_struct.check(ok, unit="teichmuller", claim="identity")
    r = check_commutation(ctx, Pphi, assemble_unit_matrix(params, qa, pj), lift)
    s_comm.add(r.checked, None if r.passed
               else witness(unit="teichmuller", inner=r.counterexample))
    comm_info = r.info

    # a wrong chart conversion fails a row here instead of ending the run
    built = []
    for u in principal_units(ctx, units, seed):
        try:
            qa, pj = build_q_a(ctx, mu, u)
        except HypothesisViolation as exc:
            s_struct.check(False, unit=u, claim="buildable", error=str(exc))
            continue
        Pa = assemble_unit_matrix(params, qa, pj)
        if len(built) < 2 * pairs:  # all that the cocycle sweep reads
            built.append((u, Pa))
        for key in Pa.entries:
            s_struct.check(
                key in allowed, unit=u, row=key[0], col=key[1], claim="support"
            )
        for (Jp, J) in allowed:
            m = len(J - Jp)
            x = Pa.entries.get((Jp, J))
            d = INF if x is None else fdeg(x)
            s_struct.check(
                d >= m * (p - 1),
                unit=u, row=Jp, col=J, claim="depth", depth=d,
            )
        for J in params.subsets():
            x = Pa.entry(J, J)
            d = fdeg(x - one)
            s_struct.check(
                d >= p - 1, unit=u, col=J, claim="diagonal-window", depth=d,
            )
        if params.Jrho.is_full():
            s_struct.check(
                all(Jp == J for (Jp, J) in Pa.entries),
                unit=u, claim="diagonal-shape",
            )
        for (Jp, J) in allowed:
            if Jp == J:
                continue
            x = qa.entry(Jp, J)
            if (J & params.Jrho) <= Jp:
                target = AElement.const(fld, f, fld.div(mu.gamma_star(Jp), mu.gamma_star(J)))
                for j in J - Jp:
                    target = target * (one - pj[j])
            else:
                target = _zero(fld, f)
            floor = min(cong, x.cutoff, target.cutoff)
            s_struct.check(
                eq_below(x, target, floor),
                unit=u, row=Jp, col=J, claim="leading-congruence", floor=floor,
            )
        r = check_commutation(ctx, Pphi, Pa, u)
        comm_info = r.info
        s_comm.add(r.checked, None if r.passed else witness(unit=u, inner=r.counterexample))

    for n in range(min(pairs, len(built) // 2)):
        u1, P1 = built[2 * n]
        u2, P2 = built[2 * n + 1]
        u12 = ctx.ring.mul(u1, u2)
        try:
            P12 = assemble_unit_matrix(params, *build_q_a(ctx, mu, u12))
        except HypothesisViolation as exc:
            s_cocy.check(False, pair=n, unit=u12, error=str(exc))
            continue
        rhs = P1 @ P2.map_entries(lambda x: unit_action(ctx, u1, x))
        for key, a, b in _entry_pairs(P12, rhs):
            d = a - b
            s_cocy.check(d.is_zero(), pair=n, row=key[0], col=key[1], floor=d.cutoff)
    struct_info = {"diagonal_normalization": "identity"} if params.Jrho.is_full() else None
    return [
        s_struct.result(info=struct_info),
        s_comm.result(info=comm_info),
        s_cocy.result(),
    ]
