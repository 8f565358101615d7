"""Finite p-groups as explicit multiplication tables.

Groups are built from power-commutator presentations (or raw tables), hold
dense n x n multiplication tables with the identity at index 0, and expose
the subgroup-series toolbox: center, commutator subgroup, Frattini
subgroup, omega/agemo series and their relative forms, the Jennings series
by Lazard's recursion, Burnside bases, abelian types of sections,
quotients, and direct products.

Commutators enter in one step, ``_commutators(H, S)`` = [H, S], one gather
of the commutator table: G' is [S, S], and the Jennings term
D_n = [D_{n-1}, S] Mho_1(D_{ceil(n/p)}) by Lazard's recursion.

Everything is exact and verified at construction: every table, a
quotient's and a direct product's included, must have a two-sided identity
and inverses, and it is proved associative by Light's test over a
generating set taken greedily by one walk of the table.  Caps keep orders
small enough for dense tables to stay cheap.

A presentation's table is built level by level up its pc series
(``_pc_table``), with no word rewritten, and validation is its only
consistency check (see ``from_pc_presentation``).  The group keeps the
``PcPresentation`` object as ``G.presentation``, and then element k is the
normal form whose mixed-radix digits are k; a direct product of two such
groups keeps the two joined.  A raw table, a subgroup's table and a
quotient have none.

Every subgroup of a validated table is closed one way: Dimino's walk over
right cosets (``_grow``).  A subgroup is its element set: the registry
``G._subgroups``, seeded with G, keeps one ``Subgroup`` per set, and its one
door, ``subgroup_from_elements``, walks a new set once over its sorted
elements, which proves it closed and gives its greedy witness.
``_generated`` (behind ``FiniteGroup.subgroup``, ``join`` and the series)
and ``trivial_subgroup`` go through it.  The witness is empty exactly for
the trivial subgroup.  The walk relies on associativity, so Light's test
takes its generators by a walk of its own, ``_light_generators``; on a
valid table it picks G's witness.

The abelian type of a section S/N is counted in the parent's table, with no
quotient or subgroup table built: in an abelian group the elements of order
dividing p^i form Omega_i, so |Omega_i(S/N)| = #{x in S : x^{p^i} in N}/|N|,
one mask lookup through the power map x -> x^{p^i}.

A subgroup's right cosets are labelled once, each by its least element
(``Subgroup._coset_labels``), and four users read the labels: ``quotient``
numbers G/N by them, ``normal_subgroups`` reads each product KB off them,
the algebra's ``ElementaryQuotient`` reads M/K coordinates off them, and
its ``relative_augmentation_ideal`` I(N)kG is their partition space.

A group is the subgroup of all its elements: ``FiniteGroup`` subclasses
``Subgroup`` and is its own parent, so every function of a subgroup takes
the group as it is.

Values computed once per group, subgroup or algebra go through ``_memo``: it
keeps ``fn(owner, *args)`` in ``owner._cache`` under ``(fn.__qualname__,
*args)``, so arguments are part of the key.  A subgroup is one object per
element set of its parent, so a Subgroup argument matches exactly the
subgroups with its elements, and every memoized value depends only on the
element set.  A cached list is handed out as a fresh copy.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

ORDER_CAPS = {2: 128, 3: 243, 5: 125, 7: 49}


class PresentationError(ValueError):
    """Malformed or inconsistent power-commutator presentation."""


class CapExceededError(ValueError):
    """A size cap (group order, search dimension) was exceeded."""


class NotNormalError(ValueError):
    """The subgroup is not normal where normality is required."""


class InternalCheckError(AssertionError):
    """A verified identity failed: signals a bug, never user error."""


def log_p(n: int, p: int) -> int:
    """The exact k with p**k == n; ValueError when n is no power of p."""
    if p < 2 or n < 1:
        raise ValueError(f"log_p needs n >= 1 and p >= 2, got n={n}, p={p}")
    k, rest = 0, n
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"{n} is not a power of {p}")
    return k


_MISSING = object()


def _memo(fn):
    """Cache ``fn(owner, *args)`` per owner; see the module docstring."""
    name = fn.__qualname__

    @functools.wraps(fn)
    def cached(owner, *args):
        key = (name, *args)
        value = owner._cache.get(key, _MISSING)
        if value is _MISSING:
            value = owner._cache[key] = fn(owner, *args)
        return list(value) if type(value) is list else value

    return cached


def _distinct(values: np.ndarray, n: int) -> list[int]:
    """Sorted distinct entries of an index array over range(n): ``np.unique`` without ``numpy.ma``."""
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen).tolist()


def _is_p_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# power-commutator presentations


_WORD_FACTOR_RE = re.compile(r"^g(\d+)(?:\^(-?\d+))?$")


def _number(digits: str) -> int:
    """A number in a presentation.  ``int`` rejects a decimal string longer
    than Python's conversion limit (4300 digits by default) with a plain
    ValueError; here that is a malformed presentation."""
    try:
        return int(digits)
    except ValueError as exc:
        raise PresentationError(f"a number of {len(digits)} digits is too long") from exc


@dataclass(frozen=True)
class PcPresentation:
    """A power-commutator presentation.

    Generators g_1..g_d have relative orders p^{e_i}; ``powers[i]`` is the
    word equal to g_i^{p^{e_i}} and ``commutators[(j, i)]`` (j > i) the word
    equal to [g_j, g_i] = g_j^-1 g_i^-1 g_j g_i.  All relation words must be
    supported on generators of index > i, so each lies in G_{i+1} =
    <g_{i+1}, ..., g_d>, whose table is built before G_i's.  Omitted
    relations default to the trivial word.
    """

    p: int
    rel_orders: tuple[int, ...]
    powers: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    commutators: dict[tuple[int, int], tuple[tuple[int, int], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        if self.p not in ORDER_CAPS:
            raise PresentationError(
                f"p = {self.p} is not a supported prime {tuple(ORDER_CAPS)}"
            )
        d = len(self.rel_orders)
        for m in self.rel_orders:
            if m < 2 or not _is_p_power(m, self.p):
                raise PresentationError(f"relative order {m} is not a power of {self.p}")
        for i, word in self.powers.items():
            if not 0 <= i < d:
                raise PresentationError(f"power relation for unknown generator {i + 1}")
            self._check_word(word, low=i)
        for (j, i), word in self.commutators.items():
            if not (0 <= i < j < d):
                raise PresentationError(f"commutator relation for invalid pair ({j + 1},{i + 1})")
            self._check_word(word, low=i)

    def _check_word(self, word, low: int) -> None:
        for g, e in word:
            if not low < g < len(self.rel_orders):
                raise PresentationError(
                    f"relation word uses g{g + 1}, outside the allowed range g{low + 2}..g{len(self.rel_orders)}"
                )
            if e < 1:
                raise PresentationError("word exponents must be positive")

    def power_word(self, i: int) -> tuple[tuple[int, int], ...]:
        return self.powers.get(i, ())

    def comm_word(self, j: int, i: int) -> tuple[tuple[int, int], ...]:
        return self.commutators.get((j, i), ())

    @property
    def order(self) -> int:
        n = 1
        for m in self.rel_orders:
            n *= m
        return n

    @classmethod
    def parse(cls, text: str) -> "PcPresentation":
        """Parse the .pcp text format.

        Line 1 ``p <prime>``, line 2 ``gens <d>``, then ``order <i> <p^e>``
        lines, then optional ``pow <i> = <word>`` and ``comm <j> <i> = <word>``
        lines, where a word is ``g<i>^<k>`` factors joined by ``*`` or ``1``.
        """
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if len(lines) < 2:
            raise PresentationError("presentation too short")
        m = re.fullmatch(r"p\s+(\d+)", lines[0])
        if not m:
            raise PresentationError(f"expected 'p <prime>' on line 1, got {lines[0]!r}")
        p = _number(m.group(1))
        m = re.fullmatch(r"gens\s+(\d+)", lines[1])
        if not m:
            raise PresentationError(f"expected 'gens <d>' on line 2, got {lines[1]!r}")
        d = _number(m.group(1))
        if d < 1:
            raise PresentationError("need at least one generator")
        orders: dict[int, int] = {}
        powers: dict[int, tuple] = {}
        commutators: dict[tuple[int, int], tuple] = {}

        def parse_word(s: str) -> tuple[tuple[int, int], ...]:
            s = s.strip()
            if s == "1":
                return ()
            factors = []
            for part in s.split("*"):
                fm = _WORD_FACTOR_RE.fullmatch(part.strip())
                if not fm:
                    raise PresentationError(f"bad word factor {part.strip()!r}")
                g = _number(fm.group(1))
                e = _number(fm.group(2)) if fm.group(2) else 1
                factors.append((g - 1, e))
            return tuple(factors)

        for ln in lines[2:]:
            if ln.startswith("order"):
                m = re.fullmatch(r"order\s+(\d+)\s+(\d+)", ln)
                if not m:
                    raise PresentationError(f"bad order line {ln!r}")
                i = _number(m.group(1))
                if not 1 <= i <= d:
                    raise PresentationError(f"order line for unknown generator {i}")
                if i - 1 in orders:
                    raise PresentationError(f"duplicate order line for generator {i}")
                orders[i - 1] = _number(m.group(2))
            elif ln.startswith("pow"):
                m = re.fullmatch(r"pow\s+(\d+)\s*=\s*(.+)", ln)
                if not m:
                    raise PresentationError(f"bad pow line {ln!r}")
                i = _number(m.group(1)) - 1
                if i in powers:
                    raise PresentationError(f"duplicate pow line for generator {i + 1}")
                powers[i] = parse_word(m.group(2))
            elif ln.startswith("comm"):
                m = re.fullmatch(r"comm\s+(\d+)\s+(\d+)\s*=\s*(.+)", ln)
                if not m:
                    raise PresentationError(f"bad comm line {ln!r}")
                j, i = _number(m.group(1)) - 1, _number(m.group(2)) - 1
                if not i < j:
                    raise PresentationError("comm lines need j > i")
                if (j, i) in commutators:
                    raise PresentationError(f"duplicate comm line for ({j + 1},{i + 1})")
                commutators[(j, i)] = parse_word(m.group(3))
            else:
                raise PresentationError(f"unrecognized line {ln!r}")
        # the keys are distinct and in range(d): a count, not a set of d
        if len(orders) != d:
            raise PresentationError("every generator needs an order line")
        return cls(
            p=p,
            rel_orders=tuple(orders[i] for i in range(d)),
            powers=powers,
            commutators=commutators,
        )

    def text(self) -> str:
        """The .pcp text that ``parse`` reads back as this presentation:
        every stored relation, the powers by generator and then the
        commutators by (j, i), each factor written ``g<i>^<k>``."""

        def word(w: tuple[tuple[int, int], ...]) -> str:
            return "*".join(f"g{g + 1}^{e}" for g, e in w) or "1"

        lines = [f"p {self.p}", f"gens {len(self.rel_orders)}"]
        lines += [f"order {i + 1} {m}" for i, m in enumerate(self.rel_orders)]
        lines += [f"pow {i + 1} = {word(w)}" for i, w in sorted(self.powers.items())]
        lines += [f"comm {j + 1} {i + 1} = {word(w)}" for (j, i), w in sorted(self.commutators.items())]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# groups


def _light_generators(mul: np.ndarray) -> list[int]:
    """Generators of a table with identity 0, taken greedily in index order.

    The least index not yet reached becomes a generator; the reached set,
    the identity's at first, is then closed under right multiplication by
    every generator so far.  The walk ends when every index is reached,
    which proves that they generate.

    Not ``_grow``: this runs before the table is known to be associative,
    and the walk reaches every element as a left-nested product
    (..(g_1 g_2)..) g_k, which is what Light's test needs.  Each closure is
    one plain walk over the generators' columns, read once as lists.
    """
    n = mul.shape[0]
    reached = [True] + [False] * (n - 1)
    order = [0]
    gens: list[int] = []
    columns: list[list[int]] = []
    while len(order) < n:
        gens.append(reached.index(False))
        columns.append(mul[:, gens[-1]].tolist())
        for x in order:  # grows as the walk reaches new elements
            for column in columns:
                y = column[x]
                if not reached[y]:
                    reached[y] = True
                    order.append(y)
    return gens


class Subgroup:
    """A subgroup of a fixed parent group: a closed, sorted index set with
    a generating witness, the greedy walk over its sorted elements.  Built
    only by ``subgroup_from_elements``, one object per element set of a
    parent, so equality is identity.  A group is the subgroup of all its
    elements, its own parent (``FiniteGroup``)."""

    __slots__ = ("parent", "elements", "generators", "_set", "_cache")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...], generators: tuple[int, ...]):
        self.parent = parent
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self._set = frozenset(elements)
        self._cache = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self._set

    def __hash__(self) -> int:
        # the element set alone: an id() would make the iteration order of
        # a set of subgroups vary by process
        return hash(self._set)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"

    def is_trivial(self) -> bool:
        return self.order == 1

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other._set <= self._set

    @_memo
    def is_normal(self) -> bool:
        return _normalizes(self.parent, self.parent, self)

    @property
    @_memo
    def is_abelian(self) -> bool:
        idx = np.array(self.elements)
        sub = self.parent.mul[np.ix_(idx, idx)]
        return bool(np.array_equal(sub, sub.T))

    @_memo
    def exponent(self) -> int:
        G, idx = self.parent, np.array(self.elements)
        t = 0
        while G.power_p_map(t)[idx].any():
            t += 1
        return G.p**t

    @_memo
    def _mask(self) -> np.ndarray:
        """Membership as a boolean array over the parent's elements."""
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[list(self.elements)] = True
        mask.setflags(write=False)
        return mask

    @_memo
    def _coset_labels(self) -> np.ndarray:
        """The least element of each right coset, by element: label[g] is
        min(Kg), one min over the subgroup's rows of the parent's table."""
        label = self.parent.mul[np.array(self.elements)].min(axis=0)
        label.setflags(write=False)
        return label


class FiniteGroup(Subgroup):
    """A finite p-group as an explicit multiplication table, and the
    subgroup of all its elements: ``G.parent is G``.

    Elements are the indices 0..order-1 with the identity at 0.  Every
    table is validated at construction, with no way to skip it: entries in
    range, a two-sided identity, consistent inverses, and associativity by
    Light's test over a generating set taken greedily by one walk of the
    table (``_light_generators``).  That set is ``generators``: once the
    table is associative, it is ``_grow``'s greedy witness over all the
    elements, as for any subgroup, since both walks take the least element
    outside the subgroup reached so far.  ``_subgroups`` holds the group's
    subgroups, one per element set, the group itself included.

    ``presentation`` is the pc presentation the table was built from, or
    None for a table with no presentation (a raw table, a subgroup or a
    quotient).  When it is set, element k is the normal form
    g_1^{a_1}...g_d^{a_d} whose mixed-radix digits (a_1, ..., a_d), radices
    the relative orders, are k.  The iso search reads only its generators'
    indices off this numbering, through ``_pcp_generator_indices``.
    """

    def __init__(
        self,
        p: int,
        mul: np.ndarray,
        name: str = "G",
        presentation: Optional[PcPresentation] = None,
    ):
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        if n > ORDER_CAPS.get(p, 0):
            raise CapExceededError(
                f"order {n} exceeds the cap {ORDER_CAPS.get(p)} for p={p}"
            )
        if not _is_p_power(n, p):
            raise ValueError(f"order {n} is not a power of p={p}")
        if mul.dtype.kind not in "biu":
            raise ValueError(f"multiplication table entries must be integers, not {mul.dtype}")
        self.p = p
        self.mul = mul.astype(np.int64)
        self.mul.setflags(write=False)
        self.name = name
        self.presentation = presentation
        self.inv = np.argmax(self.mul == 0, axis=1)
        self.inv.setflags(write=False)
        Subgroup.__init__(self, self, tuple(range(n)), self._validate())
        self._subgroups = {self._set: self}

    # -- validation --------------------------------------------------------

    def _validate(self) -> list[int]:
        """Raises on an invalid table; returns the generators Light's test took."""
        mul = self.mul
        n = mul.shape[0]
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("table entries out of range")
        if not np.array_equal(mul[0], np.arange(n)) or not np.array_equal(
            mul[:, 0], np.arange(n)
        ):
            raise ValueError("index 0 is not an identity")
        if (mul[np.arange(n), self.inv] != 0).any() or (
            mul[self.inv, np.arange(n)] != 0
        ).any():
            raise ValueError("inverse table inconsistent")
        # Light's test: the elements a with (x a) y = x (a y) for all x, y
        # are closed under products and hold the identity, so checking a
        # set that reaches every element by right multiplication suffices
        generators = _light_generators(mul)
        for a in generators:
            if not np.array_equal(mul[mul[:, a]], mul[:, mul[a]]):
                raise PresentationError("multiplication table is not associative")
        # now a group of order p^k: by Lagrange every element order is a p-power
        return generators

    # -- elementary operations ----------------------------------------------

    def mul_elems(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inv_elem(self, a: int) -> int:
        return int(self.inv[a])

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return int(self.mul[self.mul[self.mul[self.inv[a], self.inv[b]], a], b])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv_elem(a), -k
        return int(_table_power(self.mul, a, k))

    def element_order(self, a: int) -> int:
        return self.subgroup((a,)).order

    @_memo
    def power_p_map(self, t: int) -> np.ndarray:
        """The map g -> g^{p^t} as an index table: the p-th power table,
        composed t times in one loop that stops at the map onto the
        identity, so any t takes at most log_p(exponent) steps."""
        if t < 0:
            raise ValueError("t must be >= 0")
        tab = np.arange(self.order)
        if t:
            step = self.power_p_map(1) if t > 1 else _table_power(self.mul, tab, self.p)
            while t and tab.any():
                tab, t = step[tab], t - 1
        tab.setflags(write=False)
        return tab

    @_memo
    def _columns(self) -> tuple[bytes, ...]:
        """The table's columns, one byte per entry: ``_columns()[x][h]`` is
        h x.  Every order cap is below 256; ``bytes`` rejects a larger entry.
        A tuple, so that ``_memo`` hands it out without a copy."""
        return tuple(bytes(col) for col in self.mul.T.tolist())

    @_memo
    def commutator_table(self) -> np.ndarray:
        n = self.order
        ia = self.inv[:, None]
        ib = self.inv[None, :]
        tab = self.mul[self.mul[self.mul[ia, ib], np.arange(n)[:, None]], np.arange(n)[None, :]]
        tab.setflags(write=False)
        return tab

    @_memo
    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        g = np.arange(self.order)
        # conj[a, g] = g^-1 a g, one gather for the whole table
        conj = self.mul[self.mul[self.inv, g[:, None]], g]
        seen = [False] * self.order
        classes = []
        for a in self.elements:
            if seen[a]:
                continue
            orbit = _distinct(conj[a], self.order)
            for x in orbit:
                seen[x] = True
            classes.append(tuple(orbit))
        return classes

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order}, p={self.p})"

    # -- subgroups -----------------------------------------------------------

    def trivial_subgroup(self) -> Subgroup:
        return subgroup_from_elements(self, (0,))

    def subgroup(self, generators: Iterable[int]) -> Subgroup:
        return _generated(self, [int(g) for g in generators])


def _grow(G: FiniteGroup, elements: Iterable[int]) -> tuple[set[int], list[int]]:
    """The subgroup generated by ``elements``, as a set, and the greedy
    witness: each element not yet in the subgroup H found so far, in order.

    H grows to <H, g> by Dimino's walk over right cosets (G. Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991, ch. 3):
    add H g, then a new coset H (r s) for each representative r and
    generator s whose product lies outside the cosets found so far.  The
    first generator's subgroup is its powers.  A coset stands in for its
    elements because (h r) s = h (r s), so the table must be associative.
    """
    cols = G._columns()
    seen = {0}
    gens: list[int] = []
    for g in elements:
        if g in seen:
            continue
        gens.append(g)
        if len(seen) == 1:
            col, x = cols[g], g
            while x:
                seen.add(x)
                x = col[x]
            continue
        coset = operator.itemgetter(*seen)  # H x as a tuple, |H| >= 2
        seen.update(coset(cols[g]))
        reps = [g]
        for r in reps:  # grows as new cosets are found
            for s in gens:
                x = cols[s][r]
                if x not in seen:
                    reps.append(x)
                    seen.update(coset(cols[x]))
    return seen, gens


def _generated(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """The subgroup generated by ``elements``: closed by ``_grow``, then
    the one subgroup with that set."""
    return subgroup_from_elements(G, _grow(G, elements)[0])


def subgroup_from_elements(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """The one subgroup of G with these elements, from G's registry.  A set
    met for the first time is walked once in increasing order from the
    identity: the walk's greedy generators are its witness, and it must
    reach no more than the set itself, or the set is not a subgroup."""
    key = frozenset(elements)
    s = G._subgroups.get(key)
    if s is None:
        ordered = tuple(sorted(key))
        seen, gens = _grow(G, ordered)
        if len(seen) != len(ordered):
            raise InternalCheckError(
                f"{len(ordered)} elements of {G.name} are not a subgroup: they generate order {len(seen)}"
            )
        s = G._subgroups[key] = Subgroup(G, ordered, tuple(gens))
    return s


def _normalizes(G: FiniteGroup, by: Subgroup, n: Subgroup) -> bool:
    """Whether ``by`` normalizes ``n``: the conjugates of n's generators by
    by's generators stay in n, so each generator of ``by`` fixes N."""
    a = np.array(n.generators, dtype=np.int64)
    g = np.array(by.generators, dtype=np.int64)
    conj = G.mul[G.mul[G.inv[g][:, None], a[None, :]], g[:, None]]
    return bool(n._mask()[conj].all())


# ---------------------------------------------------------------------------
# subgroup-series toolbox (all operate inside the parent's table)


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise ValueError("subgroups of different parents")
    if a.contains_subgroup(b):
        return a
    if b.contains_subgroup(a):
        return b
    return _generated(a.parent, a.generators + b.generators)


def intersect_subgroups(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise ValueError("subgroups of different parents")
    return subgroup_from_elements(a.parent, a._set & b._set)


@_memo
def center(s: Subgroup) -> Subgroup:
    return centralizer(s, s)


def centralizer(s: Subgroup, of: Subgroup) -> Subgroup:
    """The elements of s commuting with every generator of ``of``: one
    gather of the commutator table, [x, t] = 1 exactly when xt = tx."""
    G = s.parent
    idx = np.array(s.elements, dtype=np.int64)
    comms = G.commutator_table()[np.ix_(idx, np.array(of.generators, dtype=np.int64))]
    return subgroup_from_elements(G, idx[(comms == 0).all(axis=1)].tolist())


def _commutators(h: Subgroup, s: Subgroup) -> Subgroup:
    """[H, S], generated by every [x, y] with x in H and y in S: one gather
    of the commutator table."""
    G = s.parent
    tab = G.commutator_table()[np.ix_(np.array(h.elements), np.array(s.elements))]
    return _generated(G, _distinct(tab, G.order))


@_memo
def commutator_subgroup(s: Subgroup) -> Subgroup:
    return _commutators(s, s)


@_memo
def omega(s: Subgroup, t: int) -> Subgroup:
    """Subgroup generated by the elements of order dividing p^t."""
    return omega_relative(s, s.parent.trivial_subgroup(), t)


@_memo
def agemo(s: Subgroup, t: int) -> Subgroup:
    """Subgroup generated by the p^t-th powers."""
    G = s.parent
    return _generated(G, _distinct(G.power_p_map(t)[np.array(s.elements)], G.order))


def omega_relative(s: Subgroup, n: Subgroup, t: int) -> Subgroup:
    """The subgroup generated by { x : x^{p^t} in N }; contains N."""
    G = s.parent
    if n.parent is not G:
        raise ValueError("subgroups of different parents")
    if not n.is_normal():
        raise NotNormalError("relative omega needs a normal subgroup")
    powmap = G.power_p_map(t)
    gens = [x for x in s.elements if int(powmap[x]) in n]
    return _generated(G, sorted(set(gens) | n._set))


@_memo
def power_commutator(s: Subgroup, t: int) -> Subgroup:
    """Mho_t(S)S': the p^t-th powers and the commutators together."""
    return join(agemo(s, t), commutator_subgroup(s))


def frattini(s: Subgroup) -> Subgroup:
    return power_commutator(s, 1)


@_memo
def jennings_series_product_formula(s: Subgroup) -> list[Subgroup]:
    """Jennings series D_1 = S, D_n = [D_{n-1}, S] Mho_1(D_{ceil(n/p)}).

    This is Lazard's recursion (M. Lazard, Ann. Sci. ENS 71, 1954) for
    Jennings' product formula D_n = prod over i p^j >= n of
    Mho_j(gamma_i(S)) (S. A. Jennings, Trans. AMS 50, 1941).  Returns D_1
    down to the first trivial term inclusive.
    """
    p = s.parent.p
    series = [s]
    while not series[-1].is_trivial():
        n = len(series) + 1
        series.append(join(_commutators(series[-1], s), agemo(series[-(-n // p) - 1], 1)))
    return series


@_memo
def burnside_basis(s: Subgroup) -> list[int]:
    """Deterministic minimal generating set: repeatedly take the smallest
    element outside the subgroup generated so far together with Frattini."""
    return burnside_basis_extend(s, ())


def burnside_basis_extend(s: Subgroup, seed: Sequence[int]) -> list[int]:
    """Extend independent-mod-Frattini seed elements to a full Burnside basis.

    The greedy takes each element of the subgroup S, in order, that lies
    outside Phi(S) and the basis so far, which is the greedy witness of one
    ``_grow`` over Phi's generators, the seed, then S's elements.  With the
    seed inside S each pick multiplies the order by exactly p, so the
    log_p|S : Phi(S)| - len(seed) picks allowed are all there are; a seed
    outside S fails the final check either way.
    """
    G = s.parent
    phi = frattini(s)
    head = list(phi.generators) + list(seed)
    seen, head_gens = _grow(G, head)
    if len(seen) != phi.order * G.p ** len(seed):
        raise ValueError("seed elements are not independent modulo Frattini")
    picks = _grow(G, head + list(s.elements))[1][len(head_gens) :]
    room = max(log_p(s.order // phi.order, G.p) - len(seed), 0)
    basis = list(seed) + picks[:room]
    generated = _grow(G, basis)[0]
    if generated != s._set:
        raise InternalCheckError(
            f"extended basis generates a subgroup of order {len(generated)} of {G.name},"
            f" not the given subgroup of order {s.order}"
        )
    return basis


def min_generators(s: Subgroup) -> int:
    return len(burnside_basis(s))


@dataclass(frozen=True)
class AbelianType:
    """Isomorphism type of an abelian p-group: nonincreasing cyclic orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if list(self.orders) != sorted(self.orders, reverse=True):
            raise ValueError("orders must be nonincreasing")

    @classmethod
    def from_ranks(cls, p: int, ranks: dict[int, int]) -> AbelianType:
        """The type with ``ranks[t]`` cyclic factors of order p^t."""
        return cls(tuple(p**t for t in sorted(ranks, reverse=True) for _ in range(ranks[t])))

    def rank_of_exponent(self, q: int) -> int:
        return sum(1 for m in self.orders if m == q)

    def to_list(self) -> list[int]:
        return list(self.orders)

    def __str__(self) -> str:
        return "[" + ",".join(str(m) for m in self.orders) + "]"


@_memo
def abelian_type(s: Subgroup, modulo: Optional[Subgroup] = None) -> AbelianType:
    """Type of the abelian section S/N, N = ``modulo`` (trivial if None), from
    the counted ranks |Omega_i| / |Omega_{i-1}| (see the module docstring).
    Pass ``modulo`` by position: ``_memo`` takes no keyword arguments."""
    G = s.parent
    n = G.trivial_subgroup() if modulo is None else modulo
    if n.parent is not G or not s.contains_subgroup(n):
        raise ValueError("abelian_type needs N <= S in one group")
    if not _normalizes(G, s, n):
        raise NotNormalError("abelian_type needs N normal in S")
    gens = np.array(s.generators, dtype=np.int64)
    in_n = n._mask()
    if not in_n[G.commutator_table()[np.ix_(gens, gens)]].all():
        raise ValueError("abelian_type needs an abelian section: S/N is not abelian")
    p = G.p
    idx = np.array(s.elements)
    log_n = log_p(n.order, p)
    log_index = log_p(s.order, p) - log_n
    t_top = log_p(s.exponent(), p)
    log_sizes = [0]
    while log_sizes[-1] < log_index:
        if len(log_sizes) > t_top:
            raise InternalCheckError(
                f"Omega_{t_top}(S/N) has order p^{log_sizes[-1]}, not |S:N| = p^{log_index}"
            )
        count = int(in_n[G.power_p_map(len(log_sizes))[idx]].sum())
        log_sizes.append(log_p(count, p) - log_n)
    # s_i = number of cyclic factors of order >= p^i
    counts = [log_sizes[i] - log_sizes[i - 1] for i in range(1, len(log_sizes))]
    counts.append(0)
    return AbelianType.from_ranks(p, {i: counts[i - 1] - counts[i] for i in range(1, len(counts))})


# ---------------------------------------------------------------------------
# homomorphisms, quotients, products


class GroupHom:
    """A homomorphism given by its full image table; checked exhaustively."""

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, images: Sequence[int]):
        self.domain = domain
        self.codomain = codomain
        self.images = np.array(images, dtype=np.int64)
        self.images.setflags(write=False)
        if self.images.shape != (domain.order,):
            raise ValueError("image table has the wrong length")
        if self.images[0] != 0:
            raise ValueError("homomorphism must fix the identity")
        img = self.images
        lhs = img[domain.mul]
        rhs = codomain.mul[img[:, None], img[None, :]]
        if not np.array_equal(lhs, rhs):
            raise ValueError("images do not define a homomorphism")

    def __call__(self, g: int) -> int:
        return int(self.images[g])


def quotient(G: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Coset table group G/N plus the projection; cosets are labeled by
    their minimal representative, identity coset first."""
    if n.parent is not G:
        raise ValueError("subgroup of a different group")
    if not n.is_normal():
        raise NotNormalError("can only quotient by a normal subgroup")
    label = n._coset_labels()
    reps = np.array(_distinct(label, G.order))
    coset_of = np.searchsorted(reps, label)
    table = coset_of[G.mul[np.ix_(reps, reps)]]
    Q = FiniteGroup(G.p, table, name=f"{G.name}/N{n.order}")
    proj = GroupHom(G, Q, coset_of)
    return Q, proj


def direct_product(a: FiniteGroup, b: FiniteGroup, name: Optional[str] = None) -> FiniteGroup:
    """Componentwise product on pairs (x, y) flattened as x*|B| + y.

    When both factors have a presentation, the product's is the two joined
    (``merge_presentations``): the digits of (x, y) are x's then y's, so
    x*|B| + y is again the normal form's mixed-radix index.  The two
    canonical embeddings are attached as ``.embeddings``.
    """
    if a.p != b.p:
        raise ValueError("direct product needs a common prime")
    n, m = a.order, b.order
    if n * m > ORDER_CAPS.get(a.p, 0):
        raise CapExceededError(f"product order {n * m} exceeds the cap for p={a.p}")
    table = (a.mul[:, None, :, None] * m + b.mul[None, :, None, :]).reshape(n * m, n * m)
    G = FiniteGroup(
        a.p,
        table,
        name=name or f"{a.name}x{b.name}",
        presentation=merge_presentations(a.presentation, b.presentation),
    )
    emb_a = GroupHom(a, G, [x * m for x in range(n)])
    emb_b = GroupHom(b, G, list(range(m)))
    G.embeddings = (emb_a, emb_b)
    return G


def merge_presentations(
    a: Optional[PcPresentation], b: Optional[PcPresentation]
) -> Optional[PcPresentation]:
    """a's generators followed by b's, shifted past them; the two sets
    commute.  None unless both are given."""
    if a is None or b is None:
        return None
    da = len(a.rel_orders)
    powers = dict(a.powers)
    comms = dict(a.commutators)
    for i, w in b.powers.items():
        powers[da + i] = tuple((da + g, e) for g, e in w)
    for (j, i), w in b.commutators.items():
        comms[(da + j, da + i)] = tuple((da + g, e) for g, e in w)
    return PcPresentation(
        p=a.p, rel_orders=a.rel_orders + b.rel_orders, powers=powers, commutators=comms
    )


def _pcp_generator_indices(pres: PcPresentation) -> list[int]:
    """Element index of each presentation generator in the built table: the
    mixed-radix place value of its digit."""
    radices = pres.rel_orders
    return [math.prod(radices[i + 1 :]) for i in range(len(radices))]


def _table_power(mul: np.ndarray, a, k: int):
    """a^k (k >= 0) in a table, by squaring: k costs its bit length.  ``a``
    is one index or an index array, raised entrywise."""
    result = a * 0
    while k:
        if k & 1:
            result = mul[result, a]
        a = mul[a, a]
        k >>= 1
    return result


def _pc_table(pres: PcPresentation) -> np.ndarray:
    """The table of G = G_1 > G_2 > ... > G_d > G_{d+1} = 1, one level at a time.

    G_i = <g_i> G_{i+1} holds g_i^a h (h in G_{i+1}) at index a |G_{i+1}| + h,
    so G_{i+1} is the top-left corner of G_i's table.  With phi(h) =
    g_i^-1 h g_i and w = g_i^{m_i}, (g_i^a h)(g_i^b k) = g_i^{a+b} phi^b(h) k,
    with w multiplied in on the left of phi^b(h) when a + b >= m_i.  phi is set
    on generators by g_j -> g_j [g_j, g_i] and extended digit by digit; each
    relation word is evaluated in G_{i+1}'s table with powers by squaring.
    """
    radices = pres.rel_orders
    place = _pcp_generator_indices(pres)

    def value(mul: np.ndarray, word) -> int:
        x = 0
        for g, e in word:
            x = int(mul[x, _table_power(mul, place[g], e)])
        return x

    mul = np.zeros((1, 1), dtype=np.int64)
    for i in reversed(range(len(radices))):
        m, n = radices[i], mul.shape[0]
        phi = np.zeros(1, dtype=np.int64)
        for j in reversed(range(i + 1, len(radices))):
            # phi(g_j^c h') = phi(g_j)^c phi(h') for h' in G_{j+1}
            x = int(mul[place[j], value(mul, pres.comm_word(j, i))])
            powers = [_table_power(mul, x, c) for c in range(radices[j])]
            phi = mul[np.array(powers)[:, None], phi].reshape(-1)
        phi_b = [np.arange(n)]  # phi^b for b < m
        for _ in range(m - 1):
            phi_b.append(phi[phi_b[-1]])
        phi_b = np.array(phi_b)
        a, b = np.arange(m)[:, None], np.arange(m)[None, :]
        left = np.where((a + b >= m)[:, :, None], mul[value(mul, pres.power_word(i)), phi_b], phi_b)
        # [a, b, h, k] -> row a n + h, column b n + k
        prod = mul[left] + ((a + b) % m * n)[:, :, None, None]
        mul = prod.transpose(0, 2, 1, 3).reshape(m * n, m * n)
    return mul


def from_pc_presentation(
    spec: Union[str, PcPresentation], name: str = "G"
) -> FiniteGroup:
    """Build the multiplication table of a power-commutator presentation.

    ``_pc_table`` builds it level by level up the pc series; no word is
    rewritten, so the cost does not depend on the size of an exponent.  The
    table satisfies every relation, so it passes validation (identity,
    inverses, Light's test) exactly when the presentation is consistent,
    and then it is the table of the normal forms g_1^{a_1}...g_d^{a_d}.
    """
    pres = spec if isinstance(spec, PcPresentation) else PcPresentation.parse(spec)
    n = pres.order
    if n > ORDER_CAPS.get(pres.p, 0):
        raise CapExceededError(
            f"presentation order {n} exceeds the cap {ORDER_CAPS.get(pres.p)} for p={pres.p}"
        )
    try:
        return FiniteGroup(pres.p, _pc_table(pres), name=name, presentation=pres)
    except (ValueError, PresentationError) as exc:
        raise PresentationError(f"inconsistent presentation: {exc}") from exc


def from_mul_table(mul: np.ndarray, name: str = "G") -> FiniteGroup:
    """Build a group from a raw multiplication table (identity must be 0)."""
    n = mul.shape[0]
    p = next((q for q in ORDER_CAPS if _is_p_power(n, q)), None)
    if p is None:
        raise ValueError(f"order {n} is not a power of a supported prime")
    return FiniteGroup(p, mul, name=name)


# ---------------------------------------------------------------------------
# normal subgroup enumeration (for property tests and identity sweeps)


@_memo
def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, closed breadth-first from a small base.

    The base is the distinct closures of the conjugacy classes other than
    {1}: the normal closure of g is the subgroup its class generates.  Each
    subgroup K found is joined with the base members B not inside K.  As K
    is normal, K v B = KB, read off K's right-coset labels (the least
    element of each coset Kg, one min over K's rows of the table): g lies in
    KB exactly when Kg meets B, that is when label[g] is a label of B.  So a
    join needs no walk; only a product set not seen before is built, by
    ``subgroup_from_elements``, whose one walk over the set checks that it is
    closed.  A closed set holding K and B is K v B.

    Complete, by induction on k: the join of k base members is found.  For
    k = 1 it is a base member.  For k > 1 it is J v B with J a join of k - 1
    members, found by induction; every found subgroup is joined with every
    base member once, so J v B is found (it is J when B lies in J).  Every
    normal subgroup N is the join of the closures of its elements, finitely
    many base members, so N is found."""
    trivial = G.trivial_subgroup()
    found = {trivial._mask().tobytes(): trivial}
    base = []
    for cls in G.conjugacy_classes()[1:]:
        B = _generated(G, cls)
        key = B._mask().tobytes()
        if key not in found:
            found[key] = B
            base.append(B)
    rows = np.repeat(np.arange(len(base)), [B.order for B in base])
    cols = np.array([x for B in base for x in B.elements], dtype=np.int64)
    frontier = base
    while frontier:
        new = []
        for K in frontier:
            label = K._coset_labels()
            # hit[i, c]: base member i meets the coset labelled c
            hit = np.zeros((len(base), G.order), dtype=bool)
            hit[rows, label[cols]] = True
            products = hit[:, label]
            for B, mask in zip(base, products):
                key = mask.tobytes()
                if key in found:  # B inside K, or a product met before
                    continue
                found[key] = J = subgroup_from_elements(G, np.flatnonzero(mask).tolist())
                new.append(J)
        frontier = new
    return sorted(found.values(), key=lambda s: (s.order, s.elements))
