"""Cyclic-index subset calculus and the elementwise vector helper.

Everything downstream indexes data by j in Z/fZ.  Subsets of the index set
are SubsetJ bitmasks (bit j = membership of j), a plain __slots__ value
class compared and hashed by its fields, which are never reassigned;
operands of a binary set operation must share f.  SubsetJ.of, full and the
set algebra return the values of all_subsets(f), built once per f, so they
allocate nothing.  Integer vectors are plain int tuples of length f, read
at an explicit j % f where an index can pass f-1.  All shifts are cyclic;
the f=1 degeneracies (J-1 = J, boundary of the full singleton is empty)
fall out of the mod-f arithmetic with no special-casing.
"""

from __future__ import annotations

from .arith import Memo

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
        return _SUBSETS[f,][bits]

    @classmethod
    def full(cls, f):
        return _SUBSETS[f,][-1]

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
        return _SUBSETS[self.f,][self.bits & other.bits]

    def __or__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return _SUBSETS[self.f,][self.bits | other.bits]

    def __sub__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return _SUBSETS[self.f,][self.bits & ~other.bits]

    def __xor__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return _SUBSETS[self.f,][self.bits ^ other.bits]

    def __le__(self, other):
        if other.f != self.f:
            raise _f_mismatch(self, other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other):
        return self <= other and self.bits != other.bits

    def complement(self):
        return _SUBSETS[self.f,][~self.bits & ((1 << self.f) - 1)]

    def shift(self, k):
        """J + k = {j + k mod f : j in J}."""
        f = self.f
        k %= f
        if k == 0:
            return self
        m = (1 << f) - 1
        return _SUBSETS[f,][((self.bits << k) | (self.bits >> (f - k))) & m]

    def is_full(self):
        return self.bits == (1 << self.f) - 1

    def __repr__(self):
        return "{" + ",".join(str(j) for j in self.members()) + "}"


_SUBSETS = Memo(lambda f: tuple(SubsetJ(f, bits) for bits in range(1 << f)))


def all_subsets(f):
    """All 2^f subsets, in mask order: one tuple per f, built once."""
    return _SUBSETS[f,]


def right_boundary(J: SubsetJ) -> SubsetJ:
    """dJ = {j in J : j+1 not in J}; empty for the full set and empty set."""
    return J - J.shift(-1)


def vmap(op, *vecs):
    """op entrywise over int tuples of one length, as a tuple: vmap(add, u, v)
    is the vector sum.  Tuples of different lengths raise ValueError."""
    return tuple(op(*xs) for xs in zip(*vecs, strict=True))
