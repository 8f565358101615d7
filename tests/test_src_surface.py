"""A static census of the package surface: every function and method
defined in ``src/mipkit``, dunders aside, is named (as a name or an
attribute) in the package itself, in the acceptance tests or in the
benchmark, or it is on the allowlist below with its reason.

The check is by bare name, so a method counts as used when any attribute
of that name is read.  It asserts equality with the allowlist: new dead
code fails it, and so does a listed name that gains a caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mipkit"
READERS = sorted(SRC.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").rglob("*.py"))

ALLOWED = {
    "solve_row": "planned caller: the affine lifts of the layer-by-layer iso search",
    "FiniteGroup.commutator": "an accessor the test oracles read, computed apart from the commutator table they check",
    "FiniteGroup.element_order": "an accessor the test oracles read, computed apart from the power tables they check",
    "loewy_layer_dims": "planned caller: the Jennings-basis weight counts of a presentation read off a table",
    "jennings_poincare_layer_dims": "a paper identity (Jennings' Poincare series) for the identity module",
    "ideal_power_quotient_map": "a paper identity (the q-th power map on I/I^2) for the identity module",
    "check_ideal_complement": "a paper identity (the direct-sum complement criterion) for the identity module",
    "iso_search_iter": "the iso walk's test surface: the oracle comparisons and the pinned digests read every witness",
}


def _defined(tree: ast.AST, owner: str = ""):
    """(qualified name, bare name) of every function below ``tree``: a method
    as ``Class.name``, any other function by its bare name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defined(node, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (f"{owner}.{node.name}" if owner else node.name), node.name
            yield from _defined(node)
        else:
            yield from _defined(node, owner)


def _named(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _unreferenced() -> set[str]:
    named = _named(READERS)
    return {
        qual
        for path in SRC.glob("*.py")
        for qual, bare in _defined(ast.parse(path.read_text()))
        if not (bare.startswith("__") and bare.endswith("__")) and bare not in named
    }


def test_every_function_is_named_where_it_runs_or_allowlisted():
    assert _unreferenced() == set(ALLOWED)


def test_the_census_finds_methods_nested_functions_and_no_dunders():
    tree = ast.parse(
        "class K:\n"
        "    def __eq__(self, o): ...\n"
        "    def m(self):\n"
        "        def inner(): ...\n"
        "def f(): ...\n"
    )
    assert sorted(_defined(tree)) == [("K.__eq__", "__eq__"), ("K.m", "m"), ("f", "f"), ("inner", "inner")]


# -- one group type: a FiniteGroup is the subgroup of all its elements -------

COERCIONS = ("_as_subgroup", "full_subgroup")


def _alternatives(node: ast.AST) -> set[str]:
    """The type names an annotation offers as alternatives: the members of
    an ``X | Y``, ``Union[...]`` or ``Optional[...]``, a quoted annotation
    read as code, any other type by its last name."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _alternatives(node.left) | _alternatives(node.right)
    if isinstance(node, ast.Subscript) and ast.unparse(node.value).rsplit(".", 1)[-1] in ("Union", "Optional"):
        members = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return set().union(*(_alternatives(m) for m in members))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _alternatives(ast.parse(node.value, mode="eval").body)
    return {ast.unparse(node).rsplit(".", 1)[-1]}


def _coercion_sites(tree: ast.AST) -> list[str]:
    """Every parameter annotated with FiniteGroup and Subgroup as
    alternatives, and every function named like a coercion between them."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in COERCIONS:
            found.append(node.name)
        a = node.args
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
            if arg is not None and arg.annotation is not None:
                if {"FiniteGroup", "Subgroup"} <= _alternatives(arg.annotation):
                    found.append(f"{node.name}({arg.arg})")
    return found


def test_no_coercion_between_a_group_and_its_subgroups():
    """A FiniteGroup is a Subgroup, so a parameter that takes either is a
    ``Subgroup`` and nothing turns a group into a subgroup."""
    found = [
        f"{path.name}: {site}" for path in sorted(SRC.glob("*.py")) for site in _coercion_sites(ast.parse(path.read_text()))
    ]
    assert not found, found


def test_the_coercion_check_finds_each_spelling():
    tree = ast.parse(
        "def _as_subgroup(g): ...\n"
        "class G:\n"
        "    def full_subgroup(self): ...\n"
        "def f(a: FiniteGroup | Subgroup, b: 'Union[gc.FiniteGroup, gc.Subgroup]',\n"
        "      c: Optional[Union[Subgroup, FiniteGroup]], d: Subgroup, *, e: Subgroup | int,\n"
        "      **k: gc.Subgroup | gc.FiniteGroup): ...\n"
    )
    assert sorted(_coercion_sites(tree)) == ["_as_subgroup", "f(a)", "f(b)", "f(c)", "f(k)", "full_subgroup"]


def test_only_group_core_names_the_subgroup_registry():
    """The registry ``G._subgroups`` has one door, ``subgroup_from_elements``,
    and ``_generated`` is its closing walk: every other module reaches a
    subgroup through the public functions, so no module of the package but
    ``group_core`` names either."""
    private = {"_generated", "_subgroups"}
    named = {path.stem: _named([path]) & private for path in SRC.glob("*.py") if path.stem != "group_core"}
    assert not any(named.values()), named


# -- the mutant list names checks that exist ---------------------------------


def test_every_mutant_old_text_occurs_once_in_src():
    """``tests/mutants.py`` applies each mutant by an exact text replacement:
    its old text occurs exactly once in ``src/``, in the file it names, so a
    refactor that moves a check has to move its mutant."""
    import mutants

    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    found = {m.name: {name: text.count(m.old) for name, text in texts.items() if m.old in text} for m in mutants.MUTANTS}
    assert found == {m.name: {m.file: 1} for m in mutants.MUTANTS}
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
