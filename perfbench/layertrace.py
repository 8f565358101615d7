"""Spans around the public entry points of each mipkit layer.

The tracer patches module attributes and class methods at run time, from
outside the package, and restores them on ``uninstall``.  A patched module
attribute also catches calls made inside that module, and the same wrapper
replaces every other module attribute bound to the same function object, so
names taken in by ``from ... import`` are caught as well.  Not caught:
private names (``_rref``, ``_closure``, ``_ideal_chain``), dunder methods
other than ``AlgebraIso.__post_init__``, properties, generator functions
(``iso_search_iter`` runs inside the ``iso_search`` span), references
captured before ``install`` (``argparse`` defaults) and the names in SKIP.

Each span is kept in memory as (name, start, end, parent) and written out
by ``dump``.  Self time of a span is its duration minus the durations of
its child spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "fp_linalg",
    "group_core",
    "modular_algebra",
    "canonical_invariants",
    "decomposition",
    "cli",
)

# Elementary table lookups and accessors: called millions of times, each a
# few microseconds, so a wrapper would cost more than the call.  Their time
# counts toward whichever span calls them.
SKIP = {
    "fp_linalg.as_vector",
    "fp_linalg.zero_subspace",
    "fp_linalg.full_subspace",
    "fp_linalg.lex_vectors",
    "fp_linalg.FpVector.array",
    "group_core.FiniteGroup.mul_elems",
    "group_core.FiniteGroup.inv_elem",
    "group_core.FiniteGroup.conjugate",
    "group_core.FiniteGroup.commutator",
    "group_core.FiniteGroup.power",
    "group_core.FiniteGroup.element_order",
    "group_core.FiniteGroup.elements",
    "group_core.FiniteGroup.full_subgroup",
    "group_core.FiniteGroup.trivial_subgroup",
    "group_core.Subgroup.is_trivial",
    "group_core.Subgroup.is_whole_group",
    "group_core.Subgroup.contains_subgroup",
    "group_core.GroupHom.__call__",
    "group_core.PcPresentation.power_word",
    "group_core.PcPresentation.comm_word",
    "modular_algebra.GroupAlgebra.augmentation_vec",
    "modular_algebra.GroupAlgebra.translate_left",
    "modular_algebra.GroupAlgebra.translate_right",
    "modular_algebra.ElementaryQuotient.coords",
    "modular_algebra.ElementaryQuotient.rep",
    "canonical_invariants.expr_key",
    "canonical_invariants.depth",
    "canonical_invariants.contains_derived",
    "canonical_invariants.normalize",
}

# Algebra element products: counted, not timed (hundreds of thousands per
# iso search).  Every caller is itself a modular_algebra span.
COUNT_ONLY = {
    "modular_algebra.GroupAlgebra.multiply_vec": "modular_algebra.multiply_vec_calls",
    "modular_algebra.GroupAlgebra.power_vec": "modular_algebra.multiply_vec_calls",
}

# The one dunder wrapped: it counts AlgebraIso constructions and accepts.
WRAPPED_DUNDERS = {"modular_algebra.AlgebraIso.__post_init__"}

SUBGROUP_OPS = {
    "group_core.join",
    "group_core.intersect_subgroups",
    "group_core.subgroup_from_elements",
    "group_core.normal_closure",
}

# Inclusive timers: the outermost span of any name in a group counts once.
INCLUSIVE = {
    "group_core.from_pc_presentation": "group_core.build_s",
    "group_core.from_mul_table": "group_core.build_s",
    "group_core.normal_subgroups": "group_core.normal_subgroups_s",
    "modular_algebra.relative_augmentation_ideal": "modular_algebra.rel_aug_s",
    "modular_algebra.natural_projection": "modular_algebra.rel_aug_s",
    "cli.resolve_group": "cli.resolve_s",
}


def _cells(m) -> int:
    shape = getattr(m, "shape", None)
    if shape is None:
        return len(m) * (len(m[0]) if len(m) else 0)
    return int(shape[0]) * (int(shape[1]) if len(shape) > 1 else 1)


def _pair_cells(args) -> int:
    a, b = args[0], args[1]
    return (a.dim + b.dim) * a.ambient_dim


# Rows x cols entering each echelon entry point of fp_linalg.
ECHELON_CELLS = {
    "fp_linalg.rref": lambda args: _cells(args[0]),
    "fp_linalg.kernel": lambda args: _cells(args[0]),
    "fp_linalg.image": lambda args: _cells(args[0]),
    "fp_linalg.preimage": lambda args: _cells(args[0]),
    "fp_linalg.solve_row": lambda args: _cells(args[0]),
    "fp_linalg.Subspace.sum": _pair_cells,
    "fp_linalg.Subspace.intersect": _pair_cells,
    "fp_linalg.SubspaceBuilder.absorb": lambda args: _cells(args[1]),
}


def _public_callables(module):
    """(qualified name, owner, attribute, function, wrap-as) for every
    public function and method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not inspect.isgeneratorfunction(obj):
                yield f"{layer}.{name}", module, name, obj, None
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                qualname = f"{layer}.{name}.{attr}"
                if attr.startswith("_") and qualname not in WRAPPED_DUNDERS:
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield qualname, obj, attr, member.__func__, type(member)
                elif inspect.isfunction(member):
                    yield qualname, obj, attr, member, None


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.top_level_s = 0.0
        self.wrapped: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list = []
        self._inclusive_depth: Counter = Counter()
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public entry point of the layers of ``package``."""
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        replacements = {}
        for qualname, owner, attr, fn, kind in (
            item for module in modules for item in _public_callables(module)
        ):
            if qualname in SKIP:
                continue
            wrapper = self._wrapper(qualname, fn)
            replacements[id(fn)] = wrapper
            self._patch(owner, attr, kind(wrapper) if kind else wrapper)
            self.wrapped.append(qualname)
        # rebind names other modules imported with ``from ... import``
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replacements:
                    if value is not replacements[id(value)]:
                        self._patch(module, attr, replacements[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers -------------------------------------------------------------

    def _wrapper(self, qualname: str, fn):
        counter = COUNT_ONLY.get(qualname)
        if counter is not None:
            counts = self.counts

            def count_only(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return count_only

        layer = qualname.split(".", 1)[0]
        name_id = self._name_id(qualname)
        cells = ECHELON_CELLS.get(qualname)
        inclusive = INCLUSIVE.get(qualname)
        is_subgroup_op = qualname in SUBGROUP_OPS
        is_absorb = qualname == "fp_linalg.SubspaceBuilder.absorb"
        is_iso_check = qualname == "modular_algebra.AlgebraIso.__post_init__"
        is_evaluate = qualname == "canonical_invariants.evaluate"
        is_split = qualname == "decomposition.ab_nab_split"
        tracer = self
        counts = self.counts
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if layer == "fp_linalg" and (parent is None or parent[0] != "fp_linalg"):
                counts["fp_linalg.calls"] += 1
                if cells is not None:
                    counts["fp_linalg.echelon_cells"] += cells(args)
            if is_subgroup_op:
                counts["group_core.subgroup_ops"] += 1
            if inclusive is not None:
                tracer._inclusive_depth[inclusive] += 1
            index = len(tracer.spans)
            tracer.spans.append(None)
            # frame: layer, child seconds, touched group_core, span index
            frame = [layer, 0.0, False, index]
            stack.append(frame)
            ok = False
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.times[layer + ".self_s"] += duration - frame[1]
                tracer.spans[index] = (name_id, start, end, parent[3] if parent else -1)
                if parent is None:
                    tracer.top_level_s += duration
                else:
                    parent[1] += duration
                    if frame[2] or layer == "group_core":
                        parent[2] = True
                if inclusive is not None:
                    tracer._inclusive_depth[inclusive] -= 1
                    if not tracer._inclusive_depth[inclusive]:
                        tracer.times[inclusive] += duration
                if is_absorb and ok:
                    counts["fp_linalg.absorb_rows"] += _cells(args[1]) // args[0].ambient_dim
                    counts["fp_linalg.absorb_pivots"] += result
                elif is_iso_check:
                    counts["modular_algebra.iso_attempts"] += 1
                    counts["modular_algebra.iso_accepted"] += ok
                elif is_evaluate:
                    counts["canonical_invariants.evaluate_calls"] += 1
                    counts["canonical_invariants.evaluate_hits"] += not frame[2]
                elif is_split:
                    counts["decomposition.ab_nab_split_calls"] += 1

        return wrapper

    def _name_id(self, qualname: str) -> int:
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_ids[qualname]

    # -- output ---------------------------------------------------------------

    def dump(self, fh) -> None:
        """Write the spans as JSON: names, then [name, start, end, parent]."""
        json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
