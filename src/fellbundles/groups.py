"""Finite groups as Cayley tables, homomorphisms and kernels.

Elements are dense indices 0..n-1.  The identity is detected from the
table, so user tables need not place it at index 0.  All groups here are
finite, hence amenable: every amenability hypothesis appearing downstream
is automatically satisfied, and reports state this once instead of
re-deriving it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .numerics import CHUNK_BYTES


class ZeroOrderError(ValueError):
    pass


class NotLatinSquareError(ValueError):
    pass


class NotAssociativeError(ValueError):
    pass


class NoIdentityError(ValueError):
    pass


class SizeMismatchError(ValueError):
    pass


class NotSubgroupError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """Cayley-table group; construct through make_cyclic / make_from_table."""

    table: np.ndarray  # table[g, h] = g*h
    identity: int
    inverse: np.ndarray

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverse[g])

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.table.tobytes())


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n (n=1 gives the trivial group)."""
    if n < 1:
        raise ZeroOrderError(f"group order must be >= 1, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(_freeze(table), 0, _freeze((-idx) % n))


def make_from_table(table) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a group.

    Checks, in order: squareness and entry range, the Latin-square
    property, existence of a two-sided identity, associativity over all
    triples, and existence of inverses (implied but verified anyway).
    """
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise NotLatinSquareError("table must be a nonempty square matrix")
    n = t.shape[0]
    if t.min(initial=0) < 0 or t.max(initial=0) >= n:
        raise NotLatinSquareError("table entries must lie in 0..n-1")
    full = set(range(n))
    for i in range(n):
        if set(t[i].tolist()) != full or set(t[:, i].tolist()) != full:
            raise NotLatinSquareError(f"row/column {i} is not a permutation")
    identity = None
    for e in range(n):
        if np.array_equal(t[e], np.arange(n)) and np.array_equal(t[:, e], np.arange(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentityError("no two-sided identity element")
    # t[t[g,h], k] == t[g, t[h,k]] for all triples, over chunks of rows g
    step = max(1, CHUNK_BYTES // (t.itemsize * n * n))
    for rows in (t[i:i + step] for i in range(0, n, step)):
        if not np.array_equal(t[rows], rows[:, t]):
            raise NotAssociativeError("multiplication table is not associative")
    inverse = np.empty(n, dtype=np.int64)
    for g in range(n):
        hits = np.where(t[g] == identity)[0]
        if hits.size != 1 or t[hits[0], g] != identity:
            raise NotLatinSquareError(f"element {g} has no two-sided inverse")
        inverse[g] = hits[0]
    return FiniteGroup(_freeze(t), identity, _freeze(inverse))


def symmetric_group(n: int) -> FiniteGroup:
    """S_n via composition of permutations of 0..n-1 in lexicographic order."""
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.empty((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return make_from_table(table)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with indices packed as a*|G2| + b."""
    n2 = g2.order
    pairs = [(a, b) for a in g1.elements() for b in g2.elements()]
    table = np.empty((len(pairs), len(pairs)), dtype=np.int64)
    for i, (a1, b1) in enumerate(pairs):
        for j, (a2, b2) in enumerate(pairs):
            table[i, j] = g1.mul(a1, a2) * n2 + g2.mul(b1, b2)
    return make_from_table(table)


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    map: np.ndarray = field(default=None)

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        if m.shape != (self.source.order,):
            raise SizeMismatchError(
                f"map has length {m.shape}, source order is {self.source.order}"
            )
        if m.min(initial=0) < 0 or m.max(initial=0) >= self.target.order:
            raise SizeMismatchError("map values must index the target group")
        object.__setattr__(self, "map", _freeze(m))

    def __call__(self, g: int) -> int:
        return int(self.map[g])


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order))


def trivial_hom(g: FiniteGroup, h: FiniteGroup) -> GroupHom:
    return GroupHom(g, h, np.full(g.order, h.identity))


def check_hom(phi: GroupHom) -> bool:
    """Exhaustive multiplicativity check (plus identity preservation)."""
    g, h, m = phi.source, phi.target, phi.map
    if m[g.identity] != h.identity:
        return False
    return bool(np.array_equal(m[g.table], h.table[m[:, None], m[None, :]]))


def kernel(phi: GroupHom) -> list[int]:
    """Kernel of a homomorphism, returned as a validated subgroup."""
    if not check_hom(phi):
        raise SizeMismatchError("map is not a homomorphism")
    g = phi.source
    members = [x for x in g.elements() if phi(x) == phi.target.identity]
    validate_subgroup(g, members)
    return members


def validate_subgroup(g: FiniteGroup, members: list[int]) -> None:
    """Raise unless members are closed under product and inverse."""
    s = set(members)
    if g.identity not in s:
        raise NotSubgroupError("identity missing")
    for a in members:
        if g.inv(a) not in s:
            raise NotSubgroupError(f"inverse of {a} missing")
        for b in members:
            if g.mul(a, b) not in s:
                raise NotSubgroupError(f"product {a}*{b} escapes the subset")
