"""Finite p-groups as explicit multiplication tables.

Groups are built from power-commutator presentations (or raw tables), hold
dense n x n multiplication tables with the identity at index 0, and expose
the subgroup-series toolbox: center, lower central series, Frattini
subgroup, omega/agemo series and their relative forms, the Jennings series
via its product formula, Burnside bases, quotients, and direct products.

Everything is exact and exhaustively verified at construction; caps keep
orders small enough for that to stay cheap.

Values computed once per group, subgroup or algebra go through ``_memo``: it
keeps ``fn(owner, *args)`` in ``owner._cache`` under ``(fn.__qualname__,
*args)``, so arguments are part of the key and a Subgroup argument matches
only a subgroup of the same parent.  The whole-group subgroup shares its
parent's dict, so ``center(G)`` and ``center(G.full_subgroup())`` are one
entry.  A cached list is handed out as a fresh copy.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

ORDER_CAPS = {2: 128, 3: 243, 5: 125, 7: 49}

_COLLECT_STEP_CAP = 1_000_000


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


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# power-commutator presentations


_WORD_FACTOR_RE = re.compile(r"^g(\d+)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class PcPresentation:
    """A power-commutator presentation.

    Generators g_1..g_d have relative orders p^{e_i}; ``powers[i]`` is the
    word equal to g_i^{p^{e_i}} and ``commutators[(j, i)]`` (j > i) the word
    equal to [g_j, g_i] = g_j^-1 g_i^-1 g_j g_i.  All relation words must be
    supported on generators of index > i, which makes collection terminate.
    Omitted relations default to the trivial word.
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
                raise PresentationError("relation word exponents must be positive")

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
        p = int(m.group(1))
        m = re.fullmatch(r"gens\s+(\d+)", lines[1])
        if not m:
            raise PresentationError(f"expected 'gens <d>' on line 2, got {lines[1]!r}")
        d = int(m.group(1))
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
                g = int(fm.group(1))
                e = int(fm.group(2)) if fm.group(2) else 1
                if not 1 <= g <= d:
                    raise PresentationError(f"word uses unknown generator g{g}")
                if e < 1:
                    raise PresentationError("word exponents must be positive")
                factors.append((g - 1, e))
            return tuple(factors)

        for ln in lines[2:]:
            if ln.startswith("order"):
                m = re.fullmatch(r"order\s+(\d+)\s+(\d+)", ln)
                if not m:
                    raise PresentationError(f"bad order line {ln!r}")
                i = int(m.group(1))
                if not 1 <= i <= d:
                    raise PresentationError(f"order line for unknown generator {i}")
                if i - 1 in orders:
                    raise PresentationError(f"duplicate order line for generator {i}")
                orders[i - 1] = int(m.group(2))
            elif ln.startswith("pow"):
                m = re.fullmatch(r"pow\s+(\d+)\s*=\s*(.+)", ln)
                if not m:
                    raise PresentationError(f"bad pow line {ln!r}")
                i = int(m.group(1)) - 1
                if i in powers:
                    raise PresentationError(f"duplicate pow line for generator {i + 1}")
                powers[i] = parse_word(m.group(2))
            elif ln.startswith("comm"):
                m = re.fullmatch(r"comm\s+(\d+)\s+(\d+)\s*=\s*(.+)", ln)
                if not m:
                    raise PresentationError(f"bad comm line {ln!r}")
                j, i = int(m.group(1)) - 1, int(m.group(2)) - 1
                if not i < j:
                    raise PresentationError("comm lines need j > i")
                if (j, i) in commutators:
                    raise PresentationError(f"duplicate comm line for ({j + 1},{i + 1})")
                commutators[(j, i)] = parse_word(m.group(3))
            else:
                raise PresentationError(f"unrecognized line {ln!r}")
        if set(orders) != set(range(d)):
            raise PresentationError("every generator needs an order line")
        return cls(
            p=p,
            rel_orders=tuple(orders[i] for i in range(d)),
            powers=powers,
            commutators=commutators,
        )

    def to_text(self) -> str:
        """Canonical .pcp text; parse(to_text()) round-trips."""

        def word_str(word) -> str:
            if not word:
                return "1"
            return "*".join(f"g{g + 1}^{e}" for g, e in word)

        lines = [f"p {self.p}", f"gens {len(self.rel_orders)}"]
        for i, m in enumerate(self.rel_orders):
            lines.append(f"order {i + 1} {m}")
        for i in sorted(self.powers):
            if self.powers[i]:
                lines.append(f"pow {i + 1} = {word_str(self.powers[i])}")
        for j, i in sorted(self.commutators):
            if self.commutators[(j, i)]:
                lines.append(f"comm {j + 1} {i + 1} = {word_str(self.commutators[(j, i)])}")
        return "\n".join(lines) + "\n"


def _collect(word: Sequence[tuple[int, int]], pres: PcPresentation) -> tuple[int, ...]:
    """Collect a word into the normal form g_1^{a_1} ... g_d^{a_d}."""
    d = len(pres.rel_orders)
    out: list[list[int]] = []  # [gen, exp], gens strictly increasing
    stack: list[tuple[int, int]] = [(g, e) for g, e in reversed(word) if e]
    steps = 0
    while stack:
        steps += 1
        if steps > _COLLECT_STEP_CAP:
            raise PresentationError("collection did not terminate; presentation inconsistent")
        g, e = stack.pop()
        if out and out[-1][0] == g:
            e += out[-1][1]
            out.pop()
        if out and out[-1][0] > g:
            k, a = out.pop()
            # move g past g_k one swap at a time: g_k g = g g_k [g_k, g]
            push: list[tuple[int, int]] = []
            if e > 1:
                push.append((g, e - 1))
            push.extend(reversed(pres.comm_word(k, g)))
            push.append((k, 1))
            push.append((g, 1))
            if a > 1:
                push.append((k, a - 1))
            stack.extend(push)
            continue
        m = pres.rel_orders[g]
        if e >= m:
            q, r = divmod(e, m)
            push = []
            w = pres.power_word(g)
            for _ in range(q):
                push.extend(reversed(w))
            if r:
                push.append((g, r))
            stack.extend(push)
            continue
        if e:
            out.append([g, e])
    full = [0] * d
    for g, e in out:
        full[g] = e
    return tuple(full)


# ---------------------------------------------------------------------------
# groups


class FiniteGroup:
    """A finite p-group as an explicit multiplication table.

    Elements are the indices 0..order-1 with the identity at 0.  The table
    is validated exhaustively at construction (associativity over all
    triples, inverse consistency, p-power element orders).
    """

    def __init__(
        self,
        p: int,
        mul: np.ndarray,
        name: str = "G",
        provenance: Optional[dict] = None,
        _validated: bool = False,
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
        self.p = p
        self.order = n
        self.mul = mul.astype(np.int64)
        self.mul.setflags(write=False)
        self.name = name
        self.provenance = provenance or {"kind": "table"}
        self.inv = np.argmax(self.mul == 0, axis=1)
        self.inv.setflags(write=False)
        self._cache: dict = {}
        if not _validated:
            self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        n = self.order
        mul = self.mul
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
        # exhaustive associativity, chunked to bound memory
        chunk = max(1, (1 << 22) // (n * n))
        for start in range(0, n, chunk):
            block = np.arange(start, min(start + chunk, n))
            left = mul[mul[block], :]
            right = mul[block][:, mul]
            if not np.array_equal(left, right):
                raise PresentationError("multiplication table is not associative")
        for g in range(n):
            if not _is_p_power(self.element_order(g), self.p):
                raise ValueError(f"element {g} has order not a power of {self.p}")

    # -- elementary operations ----------------------------------------------

    def mul_elems(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inv_elem(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, a: int, g: int) -> int:
        """g^-1 a g."""
        return int(self.mul[self.mul[self.inv[g], a], g])

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return int(self.mul[self.mul[self.mul[self.inv[a], self.inv[b]], a], b])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv_elem(a), -k
        result, base = 0, a
        while k:
            if k & 1:
                result = int(self.mul[result, base])
            base = int(self.mul[base, base])
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = int(self.mul[x, a])
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    @property
    @_memo
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @_memo
    def exponent(self) -> int:
        return max(self.element_order(g) for g in self.elements())

    @_memo
    def power_p_map(self, t: int) -> np.ndarray:
        """The map g -> g^{p^t} as an index table."""
        if t == 0:
            tab = np.arange(self.order)
        else:
            prev = self.power_p_map(t - 1)
            step = np.array(
                [self.power(g, self.p) for g in self.elements()], dtype=np.int64
            )
            tab = step[prev]
        tab.setflags(write=False)
        return tab

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
        seen = [False] * self.order
        classes = []
        for a in self.elements():
            if seen[a]:
                continue
            orbit = sorted({self.conjugate(a, g) for g in self.elements()})
            for x in orbit:
                seen[x] = True
            classes.append(tuple(orbit))
        return classes

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order}, p={self.p})"

    # -- whole-group views ---------------------------------------------------

    @_memo
    def full_subgroup(self) -> "Subgroup":
        elems = tuple(range(self.order))
        whole = Subgroup(self, elems, _reduce_generators(self, elems))
        whole._cache = self._cache
        return whole

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), ())

    def subgroup(self, generators: Iterable[int]) -> "Subgroup":
        gens = tuple(sorted(set(int(g) for g in generators) - {0}))
        elems = _closure(self, gens)
        return Subgroup(self, elems, gens)


class Subgroup:
    """A subgroup of a fixed parent group: a closed, sorted index set."""

    __slots__ = ("parent", "elements", "generators", "_set", "_cache")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...], generators: tuple[int, ...]):
        self.parent = parent
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self._set = frozenset(elements)
        self._cache: dict = {}
        if 0 not in self._set:
            raise ValueError("subgroup must contain the identity")
        if parent.order % len(self.elements) != 0:
            raise ValueError("subgroup order does not divide the group order")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self._set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self._set == other._set

    def __hash__(self) -> int:
        # the element set alone: an id() would make set iteration order,
        # and with it normal_subgroups' generator tuples, vary by process
        return hash(self._set)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other._set <= self._set

    @_memo
    def is_normal(self) -> bool:
        G = self.parent
        return all(
            G.conjugate(s, g) in self._set
            for s in self.generators or self.elements
            for g in range(G.order)
        )

    @_memo
    def is_abelian(self) -> bool:
        idx = np.array(self.elements)
        sub = self.parent.mul[np.ix_(idx, idx)]
        return bool(np.array_equal(sub, sub.T))

    @_memo
    def exponent(self) -> int:
        return max(self.parent.element_order(g) for g in self.elements)

    def is_elementary_abelian(self) -> bool:
        return self.is_abelian() and self.exponent() in (1, self.parent.p)

    @_memo
    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Standalone table for this subgroup plus the index map back.

        Entry i of the returned map is the parent index of the new element i;
        the identity stays at 0 because elements are sorted.
        """
        idx = {g: i for i, g in enumerate(self.elements)}
        arr = np.array(self.elements)
        table = self.parent.mul[np.ix_(arr, arr)]
        remap = np.vectorize(idx.__getitem__, otypes=[np.int64])(table)
        grp = FiniteGroup(
            self.parent.p,
            remap,
            name=f"{self.parent.name}_sub{self.order}",
            provenance={"kind": "subgroup", "parent": self.parent.name},
            _validated=True,
        )
        return grp, tuple(self.elements)


def _closure(G: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    seen = {0}
    frontier = [0]
    gens = [g for g in gens if g != 0]
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(G.mul[x, g])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def _reduce_generators(G: FiniteGroup, elements: Sequence[int]) -> tuple[int, ...]:
    """Small generating witness: greedy over the elements in given order."""
    target = len(_closure(G, elements))
    gens: list[int] = []
    current = {0}
    for g in elements:
        if g not in current:
            gens.append(g)
            current = set(_closure(G, gens))
            if len(current) == target:
                break
    return tuple(gens)


def subgroup_from_elements(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    elems = tuple(sorted(set(elements)))
    return Subgroup(G, elems, _reduce_generators(G, elems))


def _as_subgroup(g: Union[FiniteGroup, Subgroup]) -> Subgroup:
    if isinstance(g, FiniteGroup):
        return g.full_subgroup()
    return g


# ---------------------------------------------------------------------------
# subgroup-series toolbox (all operate inside the parent's table)


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise ValueError("subgroups of different parents")
    if a.contains_subgroup(b):
        return a
    if b.contains_subgroup(a):
        return b
    gens = tuple(sorted(set(a.generators or a.elements) | set(b.generators or b.elements)))
    return a.parent.subgroup(gens)


def intersect_subgroups(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise ValueError("subgroups of different parents")
    return subgroup_from_elements(a.parent, a._set & b._set)


@_memo
def center(g: Union[FiniteGroup, Subgroup]) -> Subgroup:
    s = _as_subgroup(g)
    G = s.parent
    idx = np.array(s.elements)
    sub = G.mul[np.ix_(idx, idx)]
    central_mask = (sub == sub.T).all(axis=1)
    elems = tuple(int(idx[i]) for i in np.nonzero(central_mask)[0])
    return subgroup_from_elements(G, elems)


def centralizer(g: Union[FiniteGroup, Subgroup], of: Subgroup) -> Subgroup:
    s = _as_subgroup(g)
    G = s.parent
    targets = of.generators or of.elements
    elems = [
        x
        for x in s.elements
        if all(G.mul[x, t] == G.mul[t, x] for t in targets)
    ]
    return subgroup_from_elements(G, elems)


@_memo
def commutator_subgroup(g: Union[FiniteGroup, Subgroup]) -> Subgroup:
    s = _as_subgroup(g)
    G = s.parent
    idx = np.array(s.elements)
    comms = set(G.commutator_table()[np.ix_(idx, idx)].ravel().tolist())
    return G.subgroup(_reduce_generators(G, sorted(comms)))


@_memo
def lower_central_series(g: Union[FiniteGroup, Subgroup]) -> list[Subgroup]:
    s = _as_subgroup(g)
    G = s.parent
    ctab = G.commutator_table()
    s_idx = np.array(s.elements)
    series = [s]
    while True:
        prev = series[-1]
        comms = np.unique(ctab[np.ix_(np.array(prev.elements), s_idx)])
        nxt = G.subgroup(_reduce_generators(G, [int(c) for c in comms]))
        if nxt == prev:
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


@_memo
def omega(g: Union[FiniteGroup, Subgroup], t: int) -> Subgroup:
    """Subgroup generated by the elements of order dividing p^t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    s = _as_subgroup(g)
    G = s.parent
    powmap = G.power_p_map(t)
    gens = [x for x in s.elements if powmap[x] == 0]
    return G.subgroup(_reduce_generators(G, gens))


@_memo
def agemo(g: Union[FiniteGroup, Subgroup], t: int) -> Subgroup:
    """Subgroup generated by the p^t-th powers."""
    if t < 0:
        raise ValueError("t must be >= 0")
    s = _as_subgroup(g)
    G = s.parent
    powmap = G.power_p_map(t)
    gens = sorted({int(powmap[x]) for x in s.elements})
    return G.subgroup(_reduce_generators(G, gens))


def omega_relative(g: Union[FiniteGroup, Subgroup], n: Subgroup, t: int) -> Subgroup:
    """The subgroup generated by { x : x^{p^t} in N }; contains N."""
    s = _as_subgroup(g)
    G = s.parent
    if n.parent is not G:
        raise ValueError("subgroups of different parents")
    if not n.is_normal():
        raise NotNormalError("relative omega needs a normal subgroup")
    powmap = G.power_p_map(t)
    gens = [x for x in s.elements if int(powmap[x]) in n]
    result = G.subgroup(_reduce_generators(G, sorted(set(gens) | n._set)))
    return result


@_memo
def frattini(g: Union[FiniteGroup, Subgroup]) -> Subgroup:
    s = _as_subgroup(g)
    return join(agemo(s, 1), commutator_subgroup(s))


def frattini_by_maximals(G: FiniteGroup) -> Subgroup:
    """Oracle: intersection of all index-p subgroups (enumerated as normal
    subgroups, which all maximal subgroups of a p-group are)."""
    target = G.order // G.p
    maximals = [n for n in normal_subgroups(G) if n.order == target]
    if not maximals:
        return G.full_subgroup()
    elems = frozenset(maximals[0]._set)
    for m in maximals[1:]:
        elems &= m._set
    return subgroup_from_elements(G, elems)


@_memo
def jennings_series_product_formula(g: Union[FiniteGroup, Subgroup]) -> list[Subgroup]:
    """Jennings series D_n = prod over i*p^j >= n of agemo_j(gamma_i).

    Returns D_1 (the whole group) down to the first trivial term inclusive.
    """
    s = _as_subgroup(g)
    G = s.parent
    p = G.p
    lcs = lower_central_series(s)
    tmax = log_p(s.exponent(), p)
    # agemo_j applied to each lower-central term
    terms: dict[tuple[int, int], Subgroup] = {}
    for i, gamma in enumerate(lcs, start=1):
        for j in range(tmax + 1):
            terms[(i, j)] = agemo(gamma, j)
    series = []
    n = 1
    while True:
        d_n = G.trivial_subgroup()
        for (i, j), term in terms.items():
            if i * p**j >= n and not term.is_trivial():
                d_n = join(d_n, term)
        series.append(d_n)
        if d_n.is_trivial():
            break
        n += 1
    return series


@_memo
def burnside_basis(g: Union[FiniteGroup, Subgroup]) -> list[int]:
    """Deterministic minimal generating set: repeatedly take the smallest
    element outside the subgroup generated so far together with Frattini."""
    return burnside_basis_extend(g, ())


def burnside_basis_extend(g: Union[FiniteGroup, Subgroup], seed: Sequence[int]) -> list[int]:
    """Extend independent-mod-Frattini seed elements to a full Burnside basis."""
    s = _as_subgroup(g)
    G = s.parent
    phi = frattini(s)
    basis = list(seed)
    current = join(phi, G.subgroup(tuple(basis)))
    expected = phi.order * G.p ** len(basis)
    if current.order != expected:
        raise ValueError("seed elements are not independent modulo Frattini")
    for x in s.elements:
        if current.order == s.order:
            break
        if x not in current:
            basis.append(x)
            current = join(current, G.subgroup((x,)))
    if set(_closure(G, basis)) != s._set:
        raise InternalCheckError("extended basis does not generate")
    return basis


def min_generators(g: Union[FiniteGroup, Subgroup]) -> int:
    return len(burnside_basis(g))


@dataclass(frozen=True)
class AbelianType:
    """Isomorphism type of an abelian p-group: nonincreasing cyclic orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if list(self.orders) != sorted(self.orders, reverse=True):
            raise ValueError("orders must be nonincreasing")

    def rank_of_exponent(self, q: int) -> int:
        return sum(1 for m in self.orders if m == q)

    def merge(self, other: "AbelianType") -> "AbelianType":
        return AbelianType(tuple(sorted(self.orders + other.orders, reverse=True)))

    def to_list(self) -> list[int]:
        return list(self.orders)

    def __str__(self) -> str:
        return "[" + ",".join(str(m) for m in self.orders) + "]"


@_memo
def abelian_type(g: Union[FiniteGroup, Subgroup]) -> AbelianType:
    """Invariant factors from the ranks |omega_i| / |omega_{i-1}|."""
    s = _as_subgroup(g)
    if not s.is_abelian():
        raise ValueError("abelian_type needs an abelian group")
    p = s.parent.p
    log_sizes = [0]
    t = 1
    while True:
        om = omega(s, t)
        log_sizes.append(log_p(om.order, p))
        if om.order == s.order:
            break
        t += 1
    # s_i = number of cyclic factors of order >= p^i
    counts = [log_sizes[i] - log_sizes[i - 1] for i in range(1, len(log_sizes))]
    counts.append(0)
    orders = []
    for i in range(1, len(counts)):
        orders.extend([p**i] * (counts[i - 1] - counts[i]))
    return AbelianType(tuple(sorted(orders, reverse=True)))


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

    def kernel(self) -> Subgroup:
        elems = tuple(int(x) for x in np.nonzero(self.images == 0)[0])
        return subgroup_from_elements(self.domain, elems)

    def image_subgroup(self) -> Subgroup:
        elems = sorted(set(int(x) for x in self.images))
        return subgroup_from_elements(self.codomain, elems)

    def is_injective(self) -> bool:
        return len(set(self.images.tolist())) == self.domain.order


def quotient(G: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Coset table group G/N plus the projection; cosets are labeled by
    their minimal representative, identity coset first."""
    if n.parent is not G:
        raise ValueError("subgroup of a different group")
    if not n.is_normal():
        raise NotNormalError("can only quotient by a normal subgroup")
    n_arr = np.array(n.elements)
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps = []
    for g in G.elements():
        if coset_of[g] >= 0:
            continue
        members = G.mul[g, n_arr]
        coset_of[members] = len(reps)
        reps.append(g)
    m = len(reps)
    reps_arr = np.array(reps)
    table = coset_of[G.mul[np.ix_(reps_arr, reps_arr)]]
    Q = FiniteGroup(
        G.p,
        table,
        name=f"{G.name}/N{n.order}",
        provenance={"kind": "quotient", "parent": G.name, "normal_order": n.order},
        _validated=True,
    )
    proj = GroupHom(G, Q, coset_of)
    return Q, proj


def quotient_of_subgroups(m: Subgroup, n: Subgroup) -> FiniteGroup:
    """The quotient M/N for N normal in M, as a standalone group."""
    if not m.contains_subgroup(n):
        raise ValueError("denominator not contained in numerator")
    m_grp, m_map = m.as_group()
    back = {g: i for i, g in enumerate(m_map)}
    n_inside = subgroup_from_elements(m_grp, [back[g] for g in n.elements])
    q, _ = quotient(m_grp, n_inside)
    return q


def direct_product(a: FiniteGroup, b: FiniteGroup, name: Optional[str] = None) -> FiniteGroup:
    """Componentwise product on pairs (x, y) flattened as x*|B| + y.

    The two canonical embeddings are attached as ``.embeddings``.
    """
    if a.p != b.p:
        raise ValueError("direct product needs a common prime")
    n, m = a.order, b.order
    if n * m > ORDER_CAPS.get(a.p, 0):
        raise CapExceededError(f"product order {n * m} exceeds the cap for p={a.p}")
    table = (a.mul[:, None, :, None] * m + b.mul[None, :, None, :]).reshape(n * m, n * m)
    prov: dict = {"kind": "product", "parts": [a.name, b.name]}
    pres = _merge_presentations(a, b)
    if pres is not None:
        prov["pcp"] = pres.to_text()
        prov["gen_indices"] = _pcp_generator_indices(pres)
    G = FiniteGroup(
        a.p,
        table,
        name=name or f"{a.name}x{b.name}",
        provenance=prov,
        _validated=True,
    )
    emb_a = GroupHom(a, G, [x * m for x in range(n)])
    emb_b = GroupHom(b, G, list(range(m)))
    G.embeddings = (emb_a, emb_b)
    return G


def _merge_presentations(a: FiniteGroup, b: FiniteGroup) -> Optional[PcPresentation]:
    pa, pb = a.provenance.get("pcp"), b.provenance.get("pcp")
    if pa is None or pb is None:
        return None
    pres_a, pres_b = PcPresentation.parse(pa), PcPresentation.parse(pb)
    da = len(pres_a.rel_orders)
    powers = dict(pres_a.powers)
    comms = dict(pres_a.commutators)
    for i, w in pres_b.powers.items():
        powers[da + i] = tuple((da + g, e) for g, e in w)
    for (j, i), w in pres_b.commutators.items():
        comms[(da + j, da + i)] = tuple((da + g, e) for g, e in w)
    return PcPresentation(
        p=pres_a.p,
        rel_orders=pres_a.rel_orders + pres_b.rel_orders,
        powers=powers,
        commutators=comms,
    )


def _pcp_generator_indices(pres: PcPresentation) -> list[int]:
    """Element index of each presentation generator in the built table."""
    radices = pres.rel_orders
    idxs = []
    for i in range(len(radices)):
        tup = [0] * len(radices)
        tup[i] = 1
        idx = 0
        for a, m in zip(tup, radices):
            idx = idx * m + a
        idxs.append(idx)
    return idxs


def from_pc_presentation(
    spec: Union[str, PcPresentation], name: str = "G"
) -> FiniteGroup:
    """Build the multiplication table of a power-commutator presentation.

    Collection rewrites words to the normal form g_1^{a_1}...g_d^{a_d} with
    memoized generator moves; the resulting table is rejected if it fails
    the exhaustive associativity check.
    """
    pres = spec if isinstance(spec, PcPresentation) else PcPresentation.parse(spec)
    n = pres.order
    if n > ORDER_CAPS.get(pres.p, 0):
        raise CapExceededError(
            f"presentation order {n} exceeds the cap {ORDER_CAPS.get(pres.p)} for p={pres.p}"
        )
    radices = pres.rel_orders
    d = len(radices)
    tuples = list(itertools.product(*[range(m) for m in radices]))
    index_of = {t: i for i, t in enumerate(tuples)}

    # one translation table per generator, built by collection
    translations = []
    for i in range(d):
        tab = np.empty(n, dtype=np.int64)
        for t, idx in index_of.items():
            word = [(g, e) for g, e in enumerate(t) if e] + [(i, 1)]
            tab[idx] = index_of[_collect(word, pres)]
        translations.append(tab)

    mul = np.empty((n, n), dtype=np.int64)
    col = np.arange(n)
    for y, t in enumerate(tuples):
        cur = col
        for i, e in enumerate(t):
            for _ in range(e):
                cur = translations[i][cur]
        mul[:, y] = cur

    try:
        G = FiniteGroup(
            pres.p,
            mul,
            name=name,
            provenance={
                "kind": "pcp",
                "pcp": pres.to_text(),
                "gen_indices": _pcp_generator_indices(pres),
            },
        )
    except (ValueError, PresentationError) as exc:
        raise PresentationError(f"inconsistent presentation: {exc}") from exc
    return G


def from_mul_table(mul: np.ndarray, name: str = "G") -> FiniteGroup:
    """Build a group from a raw multiplication table (identity must be 0)."""
    n = mul.shape[0]
    p = None
    for q in (2, 3, 5, 7):
        if _is_p_power(n, q):
            p = q
            break
    if p is None:
        raise ValueError(f"order {n} is not a power of a supported prime")
    return FiniteGroup(p, mul, name=name, provenance={"kind": "table"})


# ---------------------------------------------------------------------------
# normal subgroup enumeration (for property tests and identity sweeps)


def normal_closure(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    gens = set(elements) - {0}
    closure_gens = {G.conjugate(x, g) for x in gens for g in G.elements()}
    return G.subgroup(_reduce_generators(G, sorted(closure_gens))) if closure_gens else G.trivial_subgroup()


@_memo
def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups: normal closures of cyclic subgroups, closed
    under pairwise join.  Complete because every normal subgroup is the
    join of the closures of its elements."""
    base = {G.trivial_subgroup()}
    for g in G.elements():
        if g:
            base.add(normal_closure(G, [g]))
    found = {s._set: s for s in base}
    frontier = list(base)
    while frontier:
        new = []
        for a in frontier:
            for key in list(found):
                b = found[key]
                j = join(a, b)
                if j._set not in found:
                    found[j._set] = j
                    new.append(j)
        frontier = new
    return sorted(found.values(), key=lambda s: (s.order, s.elements))
