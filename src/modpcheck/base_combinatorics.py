"""Cyclic-index subset and integer-vector calculus.

Everything downstream indexes data by j in Z/fZ.  Subsets of the index set
are bitmasks (bit j = membership of j); integer vectors are IntVec values
over a tuple of entries, indexed cyclically (v[j] reads j mod f).  Both are
plain __slots__ value classes, compared and hashed by their fields; their
fields are never reassigned.  Operands of a binary operation must share f.
All shifts are cyclic; the f=1 degeneracies (J-1 = J, boundary of the full
singleton is empty) fall out of the mod-f arithmetic with no special-casing.
"""

from __future__ import annotations

from operator import add, neg, sub

MAX_F = 16


def _f_mismatch(a, b):
    return ValueError(f"operands indexed by different f: {a.f} and {b.f}")


class SubsetJ:
    """Subset of Z/fZ as a bitmask."""

    __slots__ = ("f", "bits")

    def __init__(self, f, bits):
        if not 1 <= f <= MAX_F:
            raise ValueError(f"f={f} outside [1, {MAX_F}]")
        if not 0 <= bits < (1 << f):
            raise ValueError("bits out of range for f")
        self.f = f
        self.bits = bits

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.f == other.f and self.bits == other.bits

    def __hash__(self):
        return hash((self.f, self.bits))

    @classmethod
    def of(cls, f, members=()):
        bits = 0
        for j in members:
            bits |= 1 << (j % f)
        return cls(f, bits)

    @classmethod
    def full(cls, f):
        return cls(f, (1 << f) - 1)

    def members(self):
        return tuple(j for j in range(self.f) if self.bits >> j & 1)

    def __contains__(self, j):
        return bool(self.bits >> (j % self.f) & 1)

    def __len__(self):
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.members())

    def __bool__(self):
        return self.bits != 0

    # set algebra; operands must share f
    def __and__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return SubsetJ(self.f, self.bits & other.bits)

    def __or__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return SubsetJ(self.f, self.bits | other.bits)

    def __sub__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return SubsetJ(self.f, self.bits & ~other.bits)

    def __xor__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return SubsetJ(self.f, self.bits ^ other.bits)

    def __le__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other):
        return self <= other and self.bits != other.bits

    def complement(self):
        return SubsetJ(self.f, ~self.bits & ((1 << self.f) - 1))

    def shift(self, k):
        """J + k = {j + k mod f : j in J}."""
        f = self.f
        k %= f
        if k == 0:
            return self
        m = (1 << f) - 1
        return SubsetJ(f, ((self.bits << k) | (self.bits >> (f - k))) & m)

    def is_full(self):
        return self.bits == (1 << self.f) - 1

    def __repr__(self):
        return "{" + ",".join(str(j) for j in self.members()) + "}"


def all_subsets(f):
    """All 2^f subsets, in mask order."""
    for bits in range(1 << f):
        yield SubsetJ(f, bits)


def decompose_parts(J: SubsetJ, Jrho: SubsetJ):
    """Split J relative to Jrho into (J^ss, J^nss, J^sh).

    J^ss = J & Jrho, J^nss = J \\ Jrho, and J^sh = J & (J-1) & Jrho, the
    members of J^ss whose successor also lies in J.  J^sh is a subset of
    J^ss by construction.
    """
    Jss = J & Jrho
    Jnss = J - Jrho
    Jsh = J & J.shift(-1) & Jrho
    return Jss, Jnss, Jsh


def right_boundary(J: SubsetJ) -> SubsetJ:
    """dJ = {j in J : j+1 not in J}; empty for the full set and empty set."""
    return J - J.shift(-1)


class IntVec:
    """Integer vector indexed by Z/fZ."""

    __slots__ = ("f", "entries")

    def __init__(self, f, entries):
        if len(entries) != f:
            raise ValueError("entry count != f")
        self.f = f
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.f == other.f and self.entries == other.entries

    def __hash__(self):
        return hash((self.f, self.entries))

    @classmethod
    def of(cls, entries):
        t = tuple(int(x) for x in entries)
        return cls(len(t), t)

    @classmethod
    def zero(cls, f):
        return cls(f, (0,) * f)

    @classmethod
    def const(cls, f, c):
        return cls(f, (int(c),) * f)

    @classmethod
    def unit(cls, f, j):
        return cls(f, tuple(1 if i == j % f else 0 for i in range(f)))

    def __getitem__(self, j):
        return self.entries[j % self.f]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return IntVec(self.f, tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return IntVec(self.f, tuple(map(sub, self.entries, other.entries)))

    def __neg__(self):
        return IntVec(self.f, tuple(map(neg, self.entries)))

    def __rmul__(self, c):
        return IntVec(self.f, tuple(c * a for a in self.entries))

    def __repr__(self):
        return "(" + ",".join(str(a) for a in self.entries) + ")"


def indicator(J: SubsetJ) -> IntVec:
    """e^J: 1 on J, 0 elsewhere."""
    return IntVec(J.f, tuple(1 if j in J else 0 for j in range(J.f)))

