"""Concrete groups with unique normal forms.

Every group kind represents its elements by a canonical immutable Python
value (int or tuple of ints), so that equality and hashing are structural.
Byte encodings are length-prefixed little-endian and injective per kind;
tuple keys elsewhere rely on each element encoding being self-delimiting.
Encodings are written and compared, never parsed back.

Supported kinds and element normal forms:

* ``Integers``            -- a plain ``int``
* ``FiniteCayley``        -- element index into a validated multiplication
                             table (Latin square, associative, with identity
                             and inverses)
* ``FreeGroup(d)``        -- freely reduced word as a tuple of nonzero
                             signed letters in ``+-1..+-d``

and five ``IntVectorGroup`` kinds, whose elements are int tuples of one
length with each coordinate in Z or in Z/m. The base class owns their
checks, encoding, JSON form, measure, sampling and enumeration:

* ``FreeAbelian(d)``      -- tuple of ``d`` ints
* ``FiniteAbelianExp(m,d)`` -- tuple of ``d`` residues mod ``m``
* ``Heisenberg``          -- integer triple with product
                             ``(x1,y1,z1)(x2,y2,z2) =
                             (x1+x2, y1+y2, z1+z2+x1*y2)``
* ``BurnsideB23``         -- the Heisenberg product mod 3 on residue
                             triples; the unique 2-generated exponent-3
                             group, of order 27, checked at construction
* ``InfiniteDihedral``    -- pair ``(t, eps)`` of translation part and
                             reflection bit, product
                             ``(t1,e1)(t2,e2) = (t1 + (-1)**e1 * t2, e1^e2)``

Generation tests: gcd over Z; for the nilpotent integer-vector kinds, a
unit-lattice test on the image in the abelianization (exact for nilpotent
groups; for the 3-group B(2,3) it is Burnside's basis theorem); reflection
plus gcd for the infinite dihedral group; closure on the index form for
``FiniteCayley``; Stallings folding and a loop per basis letter for free
groups.

A finite group has one index form, ``FiniteTable.of(group)``: intp arrays
of its multiplication table and inverses, built once per instance from the
kind's own law (``FiniteCayley`` wraps its validated table). The rank search
of ``FiniteCayley`` tests one least tuple per B_k-orbit for k = 1, 2, ...
and stops with ResourceCapError once |G|^k exceeds the vertex cap.

The group laws are pure functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, count, product as iproduct
from typing import Any, Iterator

import numpy as np

from .errors import ResourceCapError, UsageError

Element = Any
State = tuple  # ordered tuple of elements; the vertex type of a Nielsen graph
DEFAULT_VERTEX_CAP = 5_000_000


# ---------------------------------------------------------------------------
# integer byte encoding: u32 little-endian length prefix + minimal-length
# signed little-endian two's complement payload


def encode_int(v: int) -> bytes:
    if v >= 0:
        size = v.bit_length() // 8 + 1
    else:
        size = (-v - 1).bit_length() // 8 + 1
    return size.to_bytes(4, "little") + v.to_bytes(size, "little", signed=True)


def _is_int(x) -> bool:
    """An int that is not a bool (JSON ``true`` must not pass as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _fold(ufunc: np.ufunc, a: np.ndarray, dtype=None) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` of a 2-D array, folded one column at a
    time into one (N,) array of ``dtype`` (default ``a``'s): numpy reduces
    along a short last axis many times slower."""
    if not a.shape[1]:
        return ufunc.reduce(a, axis=1, dtype=dtype)  # the ufunc's identity, if it has one
    out = a[:, 0].astype(a.dtype if dtype is None else dtype)
    for c in range(1, a.shape[1]):
        ufunc(out, a[:, c], out=out)
    return out


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal keys, or rows, in a sorted
    array (a sort and this mask deduplicate: np.unique would import numpy.ma)."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    differ = keys[1:] != keys[:-1]
    first[1:] = differ if differ.ndim == 1 else _fold(np.logical_or, differ)
    return first


def lattice_is_full(rows: list[tuple[int, ...]], dim: int) -> bool:
    """True iff the integer row vectors span all of Z^dim as a lattice.

    Row-style Hermite reduction; the lattice is full iff there are ``dim``
    pivots whose product is +-1 (the product of pivot entries is the index
    of the lattice in Z^dim).
    """
    basis: list[list[int]] = []  # echelon rows, pivot column strictly increasing
    pivots: dict[int, int] = {}  # column -> basis position
    for row in rows:
        vec = list(row)
        for col in range(dim):
            if vec[col] == 0:
                continue
            p = pivots.get(col)
            if p is None:
                pivots[col] = len(basis)
                basis.append(vec)
                break
            piv = basis[p]
            a, b = piv[col], vec[col]
            if b % a == 0:
                q = b // a
                for k in range(col, dim):
                    vec[k] -= q * piv[k]
            else:
                g, x, y = _xgcd(a, b)
                aa, bb = a // g, b // g
                for k in range(col, dim):
                    piv[k], vec[k] = x * piv[k] + y * vec[k], -bb * piv[k] + aa * vec[k]
        # fully reduced rows are dropped
    if len(pivots) != dim:
        return False
    det = 1
    for col, p in pivots.items():
        det *= basis[p][col]
    return abs(det) == 1


class Group:
    """Base interface: a group with decidable equality and normal forms."""

    kind: str = ""
    is_finite: bool = False
    _finite_table: FiniteTable | None = None  # the index form, see FiniteTable.of
    # The array form of a fixed-width kind: an element is ``width`` int
    # coordinates (a table index is one), and the law also runs on stacks of
    # them (axis 0 the coordinate); ``unbounded`` lists those that range over
    # Z. Kinds without it (width None) grow their balls on interned ids.
    width: int | None = None
    unbounded: tuple[int, ...] = ()

    # -- group law -----------------------------------------------------
    def identity(self) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    # -- element plumbing ----------------------------------------------
    def check_element(self, a: Element) -> Element:
        """Validate and return the normal form; raise UsageError otherwise."""
        raise NotImplementedError

    def encode_element(self, a: Element) -> bytes:
        raise NotImplementedError

    def element_to_json(self, a: Element):
        return a if isinstance(a, int) else list(a)

    def element_from_json(self, obj) -> Element:
        raise NotImplementedError

    def measure(self, a: Element) -> int:
        """Size of an element for windowed exploration (0 for finite kinds)."""
        return 0

    def draws(self, size: int) -> list[tuple[int, int]] | None:
        """The draw rule of ``random_element(rng, size)``: one (start, width)
        per coordinate, each drawn in turn as ``start + rng.randrange(width)``;
        None for a kind that draws otherwise."""
        return None

    def random_element(self, rng, size: int = 10) -> Element:
        (start, width), = self.draws(size)
        return start + rng.randrange(width)

    # -- generation ------------------------------------------------------
    def is_generating(self, entries: State) -> bool:
        if len(entries) == 0:
            raise UsageError("is_generating requires a tuple of length >= 1")
        return self._is_generating(entries)

    def _is_generating(self, entries: State) -> bool:
        return bool(self.is_generating_each(np.array([entries]))[0])

    def is_generating_each(self, block: np.ndarray) -> np.ndarray | None:
        """The verdict of ``is_generating`` on every row of an int64 array of
        candidate n-tuples, shaped (candidates, n, width) for kinds whose
        elements are int tuples and (candidates, n) otherwise; None when this
        kind has no array form of its test for those entries."""
        return None

    def standard_generators(self) -> State:
        """A designated generating tuple of minimal length."""
        raise NotImplementedError

    # -- finite-kind extras ----------------------------------------------
    @property
    def order(self) -> int:
        raise UsageError(f"{self.kind} is infinite")

    def elements(self) -> Iterator[Element]:
        raise UsageError(f"{self.kind} is infinite")

    def rank(self) -> int:
        """Minimal number of generators."""
        return len(self.standard_generators())

    # -- group-spec JSON plumbing -----------------------------------------------------
    def spec_json(self) -> dict:
        """The kind JSON; kinds with parameters add them."""
        return {"kind": self.kind}

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.spec_json() == other.spec_json()

    def __hash__(self) -> int:
        return hash(repr(sorted(self.spec_json().items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_json()})"


# mask cells (rows x |G|) that one batched ``closure`` of the subgroup lattice grows
_CLOSURE_CELLS = 1 << 20


@dataclass
class FiniteTable:
    """Index form of a finite group: elements in the order of ``elements()``,
    with the multiplication table and the inverses as intp arrays of indices.

    It is also the group law on index arrays: ``mul`` and ``inv`` broadcast,
    so ``moves.apply_move`` runs on index tuples and on whole index columns.
    Index n-tuples are numbered as ``itertools.product(range(order),
    repeat=n)`` enumerates them, first entry most significant.
    """

    elements: list
    index: dict
    table: np.ndarray     # (|G|, |G|): table[a, b] is the index of a*b
    inverses: np.ndarray  # (|G|,)
    id_idx: int

    @classmethod
    def of(cls, group: Group) -> "FiniteTable":
        """The group's own index form, built from its law once per instance."""
        if not group.is_finite:
            raise UsageError(f"{group.kind} is not a finite group")
        if group._finite_table is None:
            group._finite_table = group._build_table()
        return group._finite_table

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return self.table[a, b]

    def inv(self, a):
        return self.inverses[a]

    def closure(self, gens) -> np.ndarray:
        """Row r: the mask of the subgroup generated by the index tuple
        gens[r]. All rows grow at once, breadth first from the identity by
        right multiplication by their entries; the frontier holds each new
        (row, element) pair once, so every element is expanded once."""
        gens = np.asarray(gens, dtype=np.intp)
        rows = np.zeros((len(gens), self.order), dtype=bool)
        rows[:, self.id_idx] = True
        fr, fx = np.arange(len(gens)), np.full(len(gens), self.id_idx)
        while fr.size:
            nr, nx = np.repeat(fr, gens.shape[-1]), self.table[fx[:, None], gens[fr]].ravel()
            pos = np.sort((nr * self.order + nx)[~rows[nr, nx]])
            fr, fx = np.divmod(pos[_firsts(pos)], self.order)
            rows[fr, fx] = True
        return rows

    @cached_property
    def pairs(self) -> np.ndarray:
        """The inverse pairs {x, x^-1}, (K, 2) indices, least member first, in the order of least members."""
        lo = np.flatnonzero(np.arange(self.order) <= self.inverses)
        return np.column_stack([lo, self.inverses[lo]])

    def orbit_rows(self, n: int) -> np.ndarray:
        """The B_n-orbits of index n-tuples, each a multiset of n inverse pairs as a sorted row of
        pair ids, in lex order: the order of their least tuples ``pairs[rows, 0]``."""
        k = len(self.pairs)
        cells = chain.from_iterable(combinations_with_replacement(range(k), n))  # in lex order
        return np.fromiter(cells, dtype=np.min_scalar_type(k), count=math.comb(k + n - 1, n) * n).reshape(-1, n)

    def generating(self, cols) -> np.ndarray:
        """Does each row of the index columns ``cols`` (one per entry) generate?

        Walks the lattice of subgroups one entry at a time: the subgroup
        generated by a prefix joined with the next entry is looked up in the
        memoized table ``join[subgroup][element]``. The rows of the
        subgroups first met at one entry are grown by batched ``closure``
        calls, one for every element outside each of them, at most
        ``_CLOSURE_CELLS`` mask cells a call.
        """
        subgroups, gens = list(self.closure([()])), [()]
        ids = {subgroups[0].tobytes(): 0}
        join = np.zeros((0, self.order), dtype=np.intp)
        sub = np.zeros(1, dtype=np.intp)
        step = max(1, _CLOSURE_CELLS // self.order)
        for col in cols:
            base = len(join)
            if base < len(subgroups):
                s_of, g_of = np.nonzero(~np.array(subgroups[base:]))
                prefix = np.array(gens[base:], dtype=np.intp).reshape(len(subgroups) - base, len(gens[-1]))
                grow = np.column_stack([prefix[s_of], g_of])
                rows = np.repeat(np.arange(base, len(subgroups))[:, None], self.order, axis=1)
                for i in range(0, len(grow), step):
                    for s, g, members in zip(s_of[i : i + step].tolist(), g_of[i : i + step].tolist(),
                                             self.closure(grow[i : i + step])):
                        rows[s, g] = ids.setdefault(members.tobytes(), len(subgroups))
                        if rows[s, g] == len(subgroups):
                            subgroups.append(members)
                            gens.append(gens[base + s] + (g,))
                join = np.vstack([join, rows])
            sub = join[sub, col]
        return sub == ids.get(np.ones(self.order, dtype=bool).tobytes(), -1)


class Integers(Group):
    kind = "Integers"
    width = 1
    unbounded = (0,)

    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def check_element(self, a):
        if not _is_int(a):
            raise UsageError(f"Integers element must be an int, got {a!r}")
        return a

    def encode_element(self, a):
        return encode_int(a)

    def element_from_json(self, obj):
        return self.check_element(obj)

    def measure(self, a):
        return abs(a)

    def draws(self, size):
        return [(-size, 2 * size + 1)]

    def _is_generating(self, entries):
        return math.gcd(*entries) == 1 if len(entries) > 1 else abs(entries[0]) == 1

    def standard_generators(self):
        return (1,)


def _check_rank(kind: str, d: int) -> None:
    """A rank above the vertex cap can root no ball and fit no tuple space:
    refused before its d coordinates are laid out."""
    if d > DEFAULT_VERTEX_CAP:
        raise UsageError(f"{kind} rank d must be at most the vertex cap {DEFAULT_VERTEX_CAP}")


def _unit_vector(dim: int, k: int, scale: int = 1) -> tuple[int, ...]:
    return tuple(scale if c == k else 0 for c in range(dim))


class IntVectorGroup(Group):
    """A group whose elements are int tuples of one fixed length.

    Coordinate k ranges over Z when ``moduli[k]`` is None and over the
    residues ``0 .. moduli[k] - 1`` otherwise, so the group is finite exactly
    when every coordinate is bounded. A subclass supplies the law and its
    spec. The generation test and generators here are those of a nilpotent
    kind whose abelianization keeps the leading ``abelian_coords``
    coordinates (None: all of them), each reduced mod its modulus; a tuple
    generates a nilpotent group iff its image generates the abelianization.
    A kind that is not nilpotent overrides both.
    """

    abelian_coords: int | None = None

    def __init__(self, moduli: tuple[int | None, ...]):
        self.moduli = moduli
        self.width = len(moduli)
        self.unbounded = tuple(k for k, m in enumerate(moduli) if m is None)
        self._abelian = moduli[: self.abelian_coords]

    @cached_property
    def _modulus_rows(self) -> list[tuple[int, ...]]:
        """The rows m * e_k of the bounded abelian coordinates, d rows of
        length d: built on the first generation test, not with the group."""
        dim = len(self._abelian)
        return [_unit_vector(dim, k, m) for k, m in enumerate(self._abelian) if m is not None]

    @property
    def is_finite(self):
        return not self.unbounded

    def identity(self):
        return (0,) * len(self.moduli)

    def check_element(self, a):
        if not (
            isinstance(a, tuple)
            and len(a) == len(self.moduli)
            and all(_is_int(x) and (m is None or 0 <= x < m) for x, m in zip(a, self.moduli))
        ):
            form = ", ".join("int" if m is None else f"0..{m - 1}" for m in self.moduli)
            raise UsageError(f"{self.kind} element must be a list [{form}]")
        return a

    def encode_element(self, a):
        return b"".join(map(encode_int, a))

    def element_from_json(self, obj):
        return self.check_element(tuple(obj) if isinstance(obj, list) else obj)

    def measure(self, a):
        return max((abs(a[k]) for k in self.unbounded), default=0)

    def draws(self, size):
        return [(-size, 2 * size + 1) if m is None else (0, m) for m in self.moduli]

    def random_element(self, rng, size=10):
        randrange = rng.randrange
        return tuple([start + randrange(width) for start, width in self.draws(size)])

    @property
    def order(self):
        return super().order if self.unbounded else math.prod(self.moduli)

    def elements(self):
        return super().elements() if self.unbounded else iproduct(*map(range, self.moduli))

    def _build_table(self) -> FiniteTable:
        """The law evaluated once on the coordinate arrays of all pairs."""
        coords = np.unravel_index(np.arange(self.order), self.moduli)
        table = np.ravel_multi_index(self.mul(tuple(c[:, None] for c in coords), coords), self.moduli)
        inverses = np.ravel_multi_index(self.inv(coords), self.moduli)
        index = {e: k for k, e in enumerate(self.elements())}
        return FiniteTable(list(index), index, table, inverses, index[self.identity()])

    def _is_generating(self, entries):
        # the images generate the abelianization iff they span Z^k together
        # with the rows m * e_i of its bounded coordinates
        dim = len(self._abelian)
        return lattice_is_full([a[:dim] for a in entries] + self._modulus_rows, dim)

    def is_generating_each(self, block):
        """``_is_generating`` at rank 2 on columns, in int64, by Smith normal
        form: the rows span Z^2 iff the gcd of their 2x2 minors is 1. None
        for other ranks, and when a minor could leave int64."""
        if len(self._abelian) != 2:
            return None
        # every minor is at most 2 * bound^2 in absolute value
        bound = max([int(np.abs(block[:, :, :2]).max(initial=0)), *(m for m in self._abelian if m is not None)])
        if bound >= 1 << 31:
            return None
        rows = [(block[:, i, 0], block[:, i, 1]) for i in range(block.shape[1])] + self._modulus_rows
        g = np.zeros(len(block), dtype=np.int64)
        for (a, b), (c, d) in combinations(rows, 2):
            g = np.gcd(g, a * d - b * c)
        return g == 1

    def standard_generators(self):
        """The unit vectors of the abelian coordinates."""
        return tuple(_unit_vector(len(self.moduli), k) for k in range(len(self._abelian)))


class FreeAbelian(IntVectorGroup):
    kind = "FreeAbelian"

    def __init__(self, d: int):
        if not _is_int(d) or d < 1:
            raise UsageError("FreeAbelian rank d must be a positive int")
        _check_rank(self.kind, d)
        self.d = d
        super().__init__((None,) * d)

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def spec_json(self):
        return {"kind": "FreeAbelian", "d": self.d}


class InfiniteDihedral(IntVectorGroup):
    """Z semidirect Z/2: (t, eps) with the reflection acting by negation."""

    kind = "InfiniteDihedral"

    def __init__(self):
        super().__init__((None, 2))

    # arithmetic in the bit, so the law also runs on coordinate arrays
    def mul(self, a, b):
        return (a[0] + (1 - 2 * a[1]) * b[0], a[1] ^ b[1])

    def inv(self, a):
        return ((2 * a[1] - 1) * a[0], a[1])

    def _is_generating(self, entries):
        # The subgroup meets the translation part in g*Z where g is the gcd of
        # translation entries and of pairwise differences of reflection
        # translation parts; it is everything iff g = 1 and a reflection occurs.
        refl = [t for t, e in entries if e == 1]
        if not refl:
            return False
        vals = [t for t, e in entries if e == 0]
        vals.extend(t - refl[0] for t in refl[1:])
        return math.gcd(*vals) == 1 if vals else False

    is_generating_each = Group.is_generating_each  # not nilpotent: no rule on the abelian image

    def standard_generators(self):
        return ((1, 0), (0, 1))


class FiniteCayley(Group):
    kind = "FiniteCayley"
    is_finite = True
    width = 1

    def __init__(self, table: list[list[int]], identity: int):
        if not (isinstance(table, list) and all(isinstance(row, list) and all(map(_is_int, row)) for row in table)):
            raise UsageError("FiniteCayley table must be a list of rows of int element indices")
        k = len(table)
        if not k or any(len(row) != k for row in table):
            raise UsageError("FiniteCayley table must be square")
        if not all(0 <= x < k for row in table for x in row):
            raise UsageError("FiniteCayley table entries must be element indices")
        if not _is_int(identity) or not 0 <= identity < k:
            raise UsageError("FiniteCayley identity index out of range")
        tab = np.asarray(table, dtype=np.intp)
        ar = np.arange(k)
        if not ((np.sort(tab, axis=1) == ar).all() and (np.sort(tab, axis=0) == ar[:, None]).all()):
            raise UsageError("FiniteCayley table is not a Latin square")
        if not ((tab[identity] == ar).all() and (tab[:, identity] == ar).all()):
            raise UsageError("FiniteCayley identity index does not act as identity")
        inv = np.argmax(tab == identity, axis=1)  # each row holds the identity once
        # elements are indices already, so the table is its own index form
        form = FiniteTable(list(range(k)), {a: a for a in range(k)}, tab, inv, identity)
        # Light's test: the c with (xy)c = x(yc) for all x, y are closed under products, so
        # generators suffice; each is the least element outside the closure (a subgroup) of the rest.
        gens, reached = [], ar == identity
        while not reached.all():
            c = int(np.argmin(reached))
            if not (tab[:, c][tab] == tab[:, tab[:, c]]).all():
                raise UsageError("FiniteCayley table is not associative")
            gens.append(c)
            reached = form.closure([gens])[0]
        if not (tab[inv, ar] == identity).all():
            raise UsageError("FiniteCayley table lacks two-sided inverses")
        self.table = tab
        self.id_index = identity
        self._finite_table = form

    def identity(self):
        return self.id_index

    # the table's gather, on index arrays and on indices (as Python ints)
    def mul(self, a, b):
        return self.table[a, b] if isinstance(a, np.ndarray) else self.table.item(a, b)

    def inv(self, a):
        inverses = self._finite_table.inverses
        return inverses[a] if isinstance(a, np.ndarray) else inverses.item(a)

    def check_element(self, a):
        if not _is_int(a) or not 0 <= a < self.order:
            raise UsageError(f"FiniteCayley element must be an index in [0, {self.order})")
        return a

    def encode_element(self, a):
        return encode_int(a)

    def element_from_json(self, obj):
        return self.check_element(obj)

    def draws(self, size):
        return [(0, self.order)]

    def is_generating_each(self, block):
        step = max(1, (1 << 16) // self.order)  # rows per closure: bounds its masks and frontier
        verdicts = [self._finite_table.closure(block[i : i + step]).all(axis=1) for i in range(0, len(block), step)]
        return np.concatenate([np.zeros(0, dtype=bool), *verdicts])

    def standard_generators(self):
        """The lexicographically first generating tuple of least length.

        Searches k = 1, 2, ... and raises ResourceCapError once |G|^k exceeds the default vertex cap.
        If t generates, so does the sorted tuple of min(x, x^-1) over its entries x, which is no
        later than t: the first generating k-tuple is the least tuple of a B_k-orbit.
        """
        tab = self._finite_table
        for k in count(1):
            if self.order**k > DEFAULT_VERTEX_CAP:
                raise ResourceCapError(f"rank search over {self.order}^{k} tuples exceeds cap {DEFAULT_VERTEX_CAP}")
            least = tab.pairs[tab.orbit_rows(k), 0]
            hits = np.flatnonzero(tab.generating(least.T))
            if hits.size:
                return tuple(least[hits[0]].tolist())

    @property
    def order(self):
        return int(self.table.shape[0])

    def elements(self):
        return iter(range(self.order))

    def spec_json(self):
        return {"kind": "FiniteCayley", "table": self.table.tolist(), "identity": self.id_index}


class Heisenberg(IntVectorGroup):
    """Free nilpotent group of rank 2 and class 2, in Mal'cev coordinates."""

    kind = "Heisenberg"
    abelian_coords = 2

    def __init__(self):
        super().__init__((None,) * 3)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inv(self, a):
        x, y, z = a
        return (-x, -y, x * y - z)


class FiniteAbelianExp(IntVectorGroup):
    """(Z/m)^d: the free object of rank d among abelian groups of exponent m."""

    kind = "FiniteAbelianExp"

    def __init__(self, m: int, d: int):
        if not _is_int(m) or m < 2:
            raise UsageError("FiniteAbelianExp modulus m must be an int >= 2")
        if not _is_int(d) or d < 1:
            raise UsageError("FiniteAbelianExp rank d must be a positive int")
        _check_rank(self.kind, d)
        self.m = m
        self.d = d
        super().__init__((m,) * d)

    def mul(self, a, b):
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def inv(self, a):
        return tuple((-x) % self.m for x in a)

    def spec_json(self):
        return {"kind": "FiniteAbelianExp", "m": self.m, "d": self.d}


class BurnsideB23(Heisenberg):
    """The free 2-generated exponent-3 group: the Heisenberg law mod 3.

    It has 27 elements, the order of B(2,3). Construction self-checks, on
    its index form, that g*g*g = identity for every g and that the two
    designated generators generate.
    """

    kind = "BurnsideB23"

    def __init__(self):
        IntVectorGroup.__init__(self, (3, 3, 3))
        tab = FiniteTable.of(self)
        bad = np.flatnonzero(tab.table[tab.table.diagonal(), np.arange(tab.order)] != tab.id_idx)
        if bad.size:
            raise AssertionError(f"exponent-3 law fails at {tab.elements[bad[0]]}")
        if not tab.closure([[tab.index[g] for g in self.standard_generators()]]).all():
            raise AssertionError("designated generators do not generate")

    def mul(self, a, b):
        return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3, (a[2] + b[2] + a[0] * b[1]) % 3)

    def inv(self, a):
        x, y, z = a
        return ((-x) % 3, (-y) % 3, (x * y - z) % 3)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FreeGroup(Group):
    """Free group of rank d; words are tuples of signed letters, freely reduced."""

    kind = "FreeGroup"

    def __init__(self, d: int):
        if not _is_int(d) or not 1 <= d <= 26:
            raise UsageError("FreeGroup rank d must be an int in [1, 26]")
        self.d = d

    def identity(self):
        return ()

    def mul(self, a, b):
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def check_element(self, a):
        if not isinstance(a, tuple):
            raise UsageError("FreeGroup element must be a tuple of signed letters")
        for x in a:
            if not _is_int(x) or x == 0 or abs(x) > self.d:
                raise UsageError(f"FreeGroup letter {x!r} out of range for rank {self.d}")
        for u, v in zip(a, a[1:]):
            if u == -v:
                raise UsageError(f"FreeGroup word {a!r} is not freely reduced")
        return a

    def encode_element(self, a):
        return encode_int(len(a)) + b"".join(encode_int(x) for x in a)

    def element_to_json(self, a):
        return self.word_to_str(a)

    def element_from_json(self, obj):
        if not isinstance(obj, str):
            raise UsageError("FreeGroup element JSON form is a word string like 'abA'")
        return self.word_from_str(obj)

    def word_from_str(self, s: str):
        """Parse 'a'..'z' as letters and 'A'..'Z' as their inverses; '' or '1' is the identity."""
        if s in ("", "1"):
            return ()
        word = []
        for ch in s:
            low = ch.lower()
            if low not in _LETTERS[: self.d]:
                raise UsageError(f"letter {ch!r} not valid for FreeGroup({self.d})")
            k = _LETTERS.index(low) + 1
            word.append(k if ch.islower() else -k)
        out = self.identity()
        for x in word:
            out = self.mul(out, (x,))
        return out

    def word_to_str(self, a) -> str:
        if not a:
            return "1"
        return "".join(_LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper() for x in a)

    def measure(self, a):
        return len(a)

    def random_element(self, rng, size=10):
        out = ()
        for _ in range(rng.randint(0, size)):
            x = rng.choice([k for k in range(-self.d, self.d + 1) if k != 0])
            out = self.mul(out, (x,))
        return out

    def _is_generating(self, words):
        """Stallings folding: fold the rose of word loops. In a folded graph a
        reduced word lies in the subgroup iff it reads a closed path at the
        basepoint (Kapovich-Myasnikov 2002), so the tuple generates iff every
        basis letter is a loop there."""
        parent = [0]
        adj: list[dict[int, int]] = [{}]

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        pending: list[tuple[int, int]] = []

        def add_edge(u, letter, v):
            u, v = find(u), find(v)
            for a, l, b in ((u, letter, v), (v, -letter, u)):
                cur = adj[a].get(l)
                if cur is None:
                    adj[a][l] = b
                elif find(cur) != find(b):
                    pending.append((cur, b))

        for word in words:
            prev = 0
            for idx, letter in enumerate(word):
                if idx == len(word) - 1:
                    target = 0
                else:
                    parent.append(len(parent))
                    adj.append({})
                    target = len(parent) - 1
                add_edge(prev, letter, target)
                prev = target

        while pending:
            a, b = pending.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if len(adj[ra]) < len(adj[rb]):
                ra, rb = rb, ra
            parent[rb] = ra  # adj[rb] is read no more: only roots' edges count
            for letter, tgt in adj[rb].items():
                cur = adj[ra].get(letter)
                if cur is None:
                    adj[ra][letter] = tgt
                elif find(cur) != find(tgt):
                    pending.append((cur, tgt))

        base = find(0)
        return all(k in adj[base] and find(adj[base][k]) == base for k in range(1, self.d + 1))

    def standard_generators(self):
        return tuple((k,) for k in range(1, self.d + 1))

    def spec_json(self):
        return {"kind": "FreeGroup", "d": self.d}


_KINDS = {
    "Integers": (Integers, ()),
    "FreeAbelian": (FreeAbelian, ("d",)),
    "InfiniteDihedral": (InfiniteDihedral, ()),
    "FiniteCayley": (FiniteCayley, ("table", "identity")),
    "Heisenberg": (Heisenberg, ()),
    "FiniteAbelianExp": (FiniteAbelianExp, ("m", "d")),
    "BurnsideB23": (BurnsideB23, ()),
    "FreeGroup": (FreeGroup, ("d",)),
}


def group_from_json(obj: dict) -> Group:
    """Construct a group from a JSON object like {"kind": "FreeAbelian", "d": 2}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("group JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise UsageError(f"unknown group kind {kind!r}; known: {sorted(_KINDS)}")
    cls, params = _KINDS[kind]
    extra = set(obj) - {"kind", *params}
    if extra:
        raise UsageError(f"unknown fields for {kind}: {sorted(extra)}")
    missing = [p for p in params if p not in obj]
    if missing:
        raise UsageError(f"missing fields for {kind}: {missing}")
    return cls(**{p: obj[p] for p in params})
