"""Weight parameters, translation in the weight graph, and weight families.

A parameter pack is (p, f, r, Jrho) with r inside the generic window
2f+1 <= r_j <= p-3-2f (plus r_0 >= 4 when f = 1).  Weights sigma_b are
indexed by integer vectors b with -r <= b <= p-2-r componentwise, the zero
vector corresponding to the base point of the graph.
"""

from __future__ import annotations

from itertools import product
from operator import add, le, mul

from .arith import _prime_divisors
from .base_combinatorics import MAX_F, SubsetJ, all_subsets, vmap
from .errors import ConfigInvalid, GenericityViolation, InadmissibleS, RangeViolation
from .reporting import Sweep


def validate_params(p, f, r, Jrho):
    """Raise unless (p, f, r, Jrho) is structurally sound and generic."""
    if not isinstance(f, int) or not 1 <= f <= MAX_F:
        raise ConfigInvalid(f"f={f} outside [1, {MAX_F}]")
    if _prime_divisors(p) != [p]:
        raise ConfigInvalid(f"p={p} is not prime")
    if len(tuple(r)) != f:
        raise ConfigInvalid("r must have f components")
    if Jrho.f != f:
        raise ConfigInvalid("Jrho indexed by a different f")
    if p < 4 * f + 4:
        raise GenericityViolation(None, f"p >= 4f+4 = {4 * f + 4}")
    for j, rj in enumerate(r):
        if not 2 * f + 1 <= rj <= p - 3 - 2 * f:
            raise GenericityViolation(j, f"2f+1 <= r_j <= p-3-2f = [{2 * f + 1}, {p - 3 - 2 * f}]")
    if f == 1 and r[0] < 4:
        raise GenericityViolation(0, "r_0 >= 4 when f = 1")


class RhoParams:
    """A validated parameter pack (p, f, r, Jrho), with two tables built
    once the pack is valid: J^sh for every J (sh), and b_window,
    (-r, p-2-r), the componentwise bounds on the position b of a weight."""

    __slots__ = ("p", "f", "r", "Jrho", "_sh", "b_window")

    def __init__(self, p: int, f: int, r: tuple, Jrho: SubsetJ):
        self.p, self.f, self.r, self.Jrho = p, f, r, Jrho
        validate_params(p, f, r, Jrho)
        self._sh = tuple(J & J.shift(-1) & Jrho for J in all_subsets(f))
        self.b_window = tuple(-rj for rj in r), tuple(p - 2 - rj for rj in r)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.f, self.r, self.Jrho) == (other.p, other.f, other.r, other.Jrho)

    def __hash__(self):
        return hash((self.p, self.f, self.r, self.Jrho))

    def __repr__(self):
        return f"RhoParams(p={self.p!r}, f={self.f!r}, r={self.r!r}, Jrho={self.Jrho!r})"

    @classmethod
    def make(cls, p, f, r, jrho_members=()):
        return cls(p, f, tuple(int(x) for x in r), SubsetJ.of(f, jrho_members))

    @property
    def q(self):
        return self.p**self.f

    def subsets(self):
        return all_subsets(self.f)

    def sh(self, J):
        """J^sh = J & (J-1) & Jrho, the members of J in Jrho whose successor
        also lies in J; built for every J once per params."""
        if J.f != self.f:
            return J & self.Jrho  # raises the f-mismatch ValueError
        return self._sh[J.bits]


def sJ_tJ(params: RhoParams, J: SubsetJ):
    """The (s^J, t^J) case tables.

    Per index j the case is keyed by (j in J, j+1 in J) with the doubly-inside
    case split on j in Jrho.
    """
    p, f, r = params.p, params.f, params.r
    s = []
    t = []
    for j in range(f):
        inj = j in J
        innext = (j + 1) in J
        if not inj and not innext:
            s.append(r[j])
            t.append(0)
        elif inj and not innext:
            s.append(r[j] + 1)
            t.append(-1)
        elif not inj and innext:
            s.append(p - 2 - r[j])
            t.append(r[j] + 1)
        elif j in params.Jrho:
            s.append(p - 3 - r[j])
            t.append(r[j] + 1)
        else:
            s.append(p - 1 - r[j])
            t.append(r[j])
    return tuple(s), tuple(t)


def aJ(params: RhoParams, J: SubsetJ) -> tuple:
    """Graph position of the weight generated by J: +-1 on J (sign from the
    successor), shifted by 2 on the doubled part J^sh."""
    f = params.f
    Jsh = params.sh(J)
    out = []
    for j in range(f):
        v = 0
        if j in J:
            v = -1 if (j + 1) in J else 1
        if j in Jsh:
            v += 2
        out.append(v)
    return tuple(out)


def _window_fault(ent, lo, hi, bounds="[{}, {}]"):
    """Raise RangeViolation for the first slot of ent outside [lo, hi]."""
    for j, (bj, lo_j, hi_j) in enumerate(zip(ent, lo, hi)):
        if not lo_j <= bj <= hi_j:
            raise RangeViolation(f"b_{j}={bj} outside " + bounds.format(lo_j, hi_j))


class WeightB:
    """Serre weight sigma_b; b must sit in the window -r <= b <= p-2-r."""

    __slots__ = ("params", "b")

    def __init__(self, params: RhoParams, b: tuple):
        if len(b) != params.f:
            raise RangeViolation(f"b indexed by f={len(b)}, weight by f={params.f}")
        lo, hi = params.b_window
        if not (all(map(le, lo, b)) and all(map(le, b, hi))):
            _window_fault(b, lo, hi, "[-r_j, p-2-r_j]")
        self.params = params
        self.b = b

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.params, self.b) == (other.params, other.b)

    def __hash__(self):
        return hash((self.params, self.b))

    def __repr__(self):
        return f"WeightB(params={self.params!r}, b={self.b!r})"


class Translation:
    """The J-translation in the weight graph, its per-J data computed once.

    Maps a position b to the weight sigma_{b'} with
    b'_j = sign_j (b_j + e^J_j) + 2 e^{J^sh}_j, sign_j = -1 iff j+1 in J,
    that is b' = signs * b + offsets.  Hypothesis window:
    lo = -(2(f - e^{J^sh}) + 1) <= b <= 2(f + e^{J^sh}) = hi componentwise.
    The one mapping is images(), which maps a whole box through per-slot
    tables built once; image() is its one-point case.  A Translation never
    changes, and those with the same windows, signs and offsets are equal.
    """

    __slots__ = ("params", "f", "lo", "hi", "signs", "_offsets", "_lookup")

    def __init__(self, params: RhoParams, J: SubsetJ):
        f = params.f
        Jsh = params.sh(J)
        sh = [1 if j in Jsh else 0 for j in range(f)]
        self.params, self.f = params, f
        self.lo = tuple(-(2 * (f - d) + 1) for d in sh)
        self.hi = tuple(2 * (f + d) for d in sh)
        self.signs = tuple(-1 if (j + 1) in J else 1 for j in range(f))
        self._tabulate(tuple(
            sign * (1 if j in J else 0) + 2 * d
            for j, (sign, d) in enumerate(zip(self.signs, sh))
        ))

    def _tabulate(self, offsets):
        # the lookups of the per-slot image tables that images() reads: slot
        # j maps each b_j of the hypothesis window whose image lies in the
        # weight window to that image
        self._offsets = offsets
        self._lookup = tuple(
            {b: v for b in range(lo_j, hi_j + 1) if wlo_j <= (v := s * b + o) <= whi_j}
            .__getitem__
            for lo_j, hi_j, s, o, wlo_j, whi_j
            in zip(self.lo, self.hi, self.signs, offsets, *self.params.b_window)
        )

    def _state(self):
        return self.lo, self.hi, self.signs, self._offsets, self.params.b_window

    def __eq__(self, other):
        return isinstance(other, Translation) and self._state() == other._state()

    def __hash__(self):
        return hash(self._state())

    def images(self, ranges):
        """Entries of b' for each b of the box product(*ranges), in product
        order: one table lookup per slot value, then their product.  ranges
        must have f entries and every b of the box must lie in the hypothesis
        window and map into the weight window, else RangeViolation names the
        length or the first bad slot of the first bad b, hypothesis window
        first."""
        if len(ranges) != self.f:
            raise RangeViolation(f"b indexed by f={len(ranges)}, translation by f={self.f}")
        try:
            # product() reads each slot's images up front, so a miss raises here
            return product(*map(map, self._lookup, ranges))
        except KeyError:
            pass
        for ent in product(*ranges):
            _window_fault(ent, self.lo, self.hi)
            out = tuple(map(add, map(mul, self.signs, ent), self._offsets))
            _window_fault(out, *self.params.b_window, "[-r_j, p-2-r_j]")
        return iter(())  # a box with an empty slot holds no b

    def image(self, ent: tuple) -> tuple:
        """Entries of b' for the entries of b: the box of the one point b."""
        return next(self.images(tuple(zip(ent))))


def serre_weights_of_rhobar(params: RhoParams) -> frozenset:
    """W(rhobar): b supported on Jrho with entries in {0, 1}."""
    f = params.f
    ranges = [(0, 1) if j in params.Jrho else (0,) for j in range(f)]
    return frozenset(WeightB(params, bs) for bs in product(*ranges))


def jh_D0(params: RhoParams) -> frozenset:
    """Constituents of the full block: {-1,0,1} off Jrho, {-1,0,1,2} on it."""
    f = params.f
    ranges = [(-1, 0, 1, 2) if j in params.Jrho else (-1, 0, 1) for j in range(f)]
    return frozenset(WeightB(params, bs) for bs in product(*ranges))


def jh_D0_component(params: RhoParams, J: SubsetJ) -> frozenset:
    """Component indexed by J, a subset of Jrho.

    On Jrho the entry range splits: {1, 2} on J, {-1, 0} on Jrho \\ J; off
    Jrho it stays {-1, 0, 1}.  Components partition jh_D0.
    """
    if not J <= params.Jrho:
        raise RangeViolation("component index must lie inside Jrho")
    f = params.f
    ranges = []
    for j in range(f):
        if j not in params.Jrho:
            ranges.append((-1, 0, 1))
        elif j in J:
            ranges.append((1, 2))
        else:
            ranges.append((-1, 0))
    return frozenset(WeightB(params, bs) for bs in product(*ranges))


def _shift_orbits(f):
    seen = set()
    orbits = []
    for bits in range(1 << f):
        if bits in seen:
            continue
        J = all_subsets(f)[bits]
        orb = set()
        cur = J
        while cur.bits not in orb:
            orb.add(cur.bits)
            cur = cur.shift(-1)
        seen |= orb
        orbits.append(frozenset(orb))
    return orbits


def is_admissible_S(params: RhoParams, S) -> bool:
    """Shift-stable family of subsets; downward closed too unless Jrho is full."""
    masks = {J.bits for J in S}
    f = params.f
    for J in S:
        if J.shift(-1).bits not in masks:
            return False
    if not params.Jrho.is_full():
        for J in S:
            for sub in all_subsets(f):
                if sub <= J and sub.bits not in masks:
                    return False
    return True


def enumerate_admissible_S(params: RhoParams) -> frozenset:
    """All admissible families, each a frozenset of SubsetJ."""
    f = params.f
    subs = all_subsets(f)
    orbits = _shift_orbits(f)
    out = set()
    for pick in product((0, 1), repeat=len(orbits)):
        masks = set()
        for chosen, orb in zip(pick, orbits):
            if chosen:
                masks |= orb
        S = frozenset(subs[m] for m in masks)
        if is_admissible_S(params, S):
            out.add(S)
    return frozenset(out)


def rank_for_S(params: RhoParams, S) -> int:
    if not is_admissible_S(params, S):
        raise InadmissibleS("family is not admissible")
    return len(S)


def _by_positive_support(block):
    # the weights of block grouped by the mask of {j : b_j >= 1}
    groups = {}
    for w in block:
        groups.setdefault(sum(1 << j for j, v in enumerate(w.b) if v >= 1), []).append(w)
    return groups


def _supported_in(groups, S):
    # the weights of the groups whose positive support is a member of S
    return frozenset(w for J in S for w in groups.get(J.bits, ()))


def run_weights(params):
    """Weight counts, block partition, admissible families, rank formula."""
    f, k = params.f, len(params.Jrho)

    size = Sweep("weight-set-size")
    W = serre_weights_of_rhobar(params)
    size.check(len(W) == 2**k, got=len(W), expected=2**k)
    for w in W:
        ok = all(w.b[j] in ((0, 1) if j in params.Jrho else (0,)) for j in range(f))
        size.check(ok, weight=w.b)

    blocks = Sweep("socle-block-partition")
    block = jh_D0(params)
    blocks.check(len(block) == 3 ** (f - k) * 4**k, got=len(block))
    seen = set()
    for J in params.subsets():
        if not J <= params.Jrho:
            continue
        comp = jh_D0_component(params, J)
        blocks.check(len(comp) == 3 ** (f - k) * 2**k, J=J, got=len(comp))
        blocks.check(not (seen & comp), J=J)
        seen |= comp
    blocks.check(seen == block)

    fams_sw = Sweep("admissible-families")
    fams = enumerate_admissible_S(params)
    full = frozenset(all_subsets(f))
    fams_sw.check(full in fams)
    order = sorted(fams, key=lambda S: (len(S), sorted(J.bits for J in S)))
    for S in order:
        masks = sorted(J.bits for J in S)
        fams_sw.check(is_admissible_S(params, S), family=masks)
        for J in S:
            fams_sw.check(J.shift(-1) in S, family=masks, J=J)
            if not params.Jrho.is_full():
                for sub in params.subsets():
                    if sub <= J:
                        fams_sw.check(sub in S, family=masks, J=J, Jp=sub)

    rank = Sweep("rank-formula")
    full_rank = rank_for_S(params, full)
    rank.check(full_rank == 2**f, got=full_rank)
    ranks = {}
    groups = _by_positive_support(block)
    for S in order:
        masks = sorted(J.bits for J in S)
        ranks[S] = rank_for_S(params, S)
        rank.check(ranks[S] == len(S), family=masks)
        pi1 = _supported_in(groups, S)
        ss_like = {w for w in pi1 if all(v in (0, 1) for v in w.b)}
        rank.check(len(ss_like) == len(S), family=masks, got=len(ss_like))
    for S1 in order:
        for S2 in order:
            if S1 <= S2:
                rank.check(
                    ranks[S1] <= ranks[S2],
                    small=sorted(J.bits for J in S1),
                    large=sorted(J.bits for J in S2),
                )

    return [size.result(), blocks.result(), fams_sw.result(), rank.result()]


class HCharacter:
    """Diagonal-torus character, two exponents mod q-1."""

    __slots__ = ("qm1", "exp1", "exp2")

    def __init__(self, qm1: int, exp1: int, exp2: int):
        self.qm1 = qm1
        self.exp1 = exp1 % qm1
        self.exp2 = exp2 % qm1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.qm1, self.exp1, self.exp2) == (other.qm1, other.exp1, other.exp2)

    def __mul__(self, other):
        return HCharacter(self.qm1, self.exp1 + other.exp1, self.exp2 + other.exp2)


def char_of_lambda(params: RhoParams, lam1: tuple, lam2: tuple) -> HCharacter:
    p, qm1 = params.p, params.q - 1
    e1 = sum(lam1[j] * p**j for j in range(params.f))
    e2 = sum(lam2[j] * p**j for j in range(params.f))
    return HCharacter(qm1, e1, e2)


def char_of_weight(params: RhoParams, J: SubsetJ) -> HCharacter:
    """chi_J, the character of the J-indexed weight: lambda = (s^J+t^J, t^J)."""
    s, t = sJ_tJ(params, J)
    return char_of_lambda(params, vmap(add, s, t), t)


def alpha_char(params: RhoParams, i: tuple) -> HCharacter:
    """alpha^i; alpha_j has exponent pair (p^j, -p^j)."""
    e = sum(i[j] * params.p**j for j in range(params.f))
    return HCharacter(params.q - 1, e, -e)
