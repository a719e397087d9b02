"""IntVec, the reference integer-vector type of the tests.

``modpcheck`` stores integer vectors as plain int tuples of length f.  The
tests that restate a formula as vector algebra (translation, aJn and
overlap references, the value-type comparisons) write it with IntVec, whose
operators are the entrywise ones, and hand ``.entries`` to the code under
test.  Reads are cyclic: v[j] reads j mod f.
"""

from operator import add, neg, sub


def _f_mismatch(a, b):
    return ValueError(f"operands indexed by different f: {a.f} and {b.f}")


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


def indicator(J):
    """e^J: 1 on J, 0 elsewhere."""
    return IntVec(J.f, tuple(1 if j in J else 0 for j in range(J.f)))
