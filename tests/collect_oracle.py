"""The library's table build by symbolic collection, as it stood before the
table was built level by level up the pc series, kept verbatim (as
functions) as the oracle for the differential tests.

``_collect`` rewrites a word one generator swap at a time and gives up after
``_COLLECT_STEP_CAP`` steps, so the oracle is only trusted on presentations
with small exponents.
"""

import itertools
from typing import Sequence, Union

import numpy as np

from mipkit import group_core as gc
from mipkit.group_core import PcPresentation, PresentationError

_COLLECT_STEP_CAP = 1_000_000


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
            w = pres.power_word(g)
            # each pushed factor costs a step, so a huge q fails here, not
            # after a push loop as long as q
            if q * len(w) > _COLLECT_STEP_CAP:
                raise PresentationError("collection did not terminate; presentation inconsistent")
            push = list(reversed(w)) * q
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


def oracle_from_pc_presentation(
    spec: Union[str, PcPresentation], name: str = "G"
) -> gc.FiniteGroup:
    """Build the multiplication table of a power-commutator presentation.

    Collection rewrites each (element, generator) word to the normal form
    g_1^{a_1}...g_d^{a_d}, one generator swap at a time and with no memo;
    the resulting table is rejected if it fails validation, whose
    associativity check is Light's test over a generating set found by BFS.
    """
    pres = spec if isinstance(spec, PcPresentation) else PcPresentation.parse(spec)
    n = pres.order
    if n > gc.ORDER_CAPS.get(pres.p, 0):
        raise gc.CapExceededError(
            f"presentation order {n} exceeds the cap {gc.ORDER_CAPS.get(pres.p)} for p={pres.p}"
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
        G = gc.FiniteGroup(pres.p, mul, name=name, presentation=pres)
    except (ValueError, PresentationError) as exc:
        raise PresentationError(f"inconsistent presentation: {exc}") from exc
    return G
