"""Every public name and class member has a reader outside the tests.

A name a module exports in ``__all__`` counts as called when some module of
the package refers to it, as a bare name, an attribute or an import, or when
the benchmark traces it by name (``perfbench/child.py`` ``TARGETS``).

A dataclass field or public method of an exported class counts as read when
some module of the package or some ``perfbench/*.py`` script reads it as an
attribute (``obj.member``), matched by name.  Constructor keywords do not
count, and neither do reads inside the class itself, except from a method
that is read in turn (as ``to_dict`` reads ``checks`` for its caller).

A module-level private function, class or constant (one leading underscore)
counts as read when some module of the package refers to it outside its own
definition; the tests and the benchmark do not count.

The few names that only the tests use today are listed below with the
reason each one stays; a listed name that gains a reader must leave the
list.  ``module.Class.*`` stands for every member of the class.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g1helicoid"

#: ``module.name`` or ``module.Class.member`` -> why it stays without a reader
#: in ``src/``.
WAITING = {
    "weierstrass.alpha_cycle": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.vertical_period_gap": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.period_residual_I": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.period_residual_II": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.x_point": "ROADMAP item 2: verify's symmetry_pullbacks check",
    "weierstrass.gauss_map": "ROADMAP item 4: normals of the discrete_minimality check",
    "weierstrass.conformality_residual": "ROADMAP item 4: sampled beside gauss_map",
    "torus.SymmetryAction.z_map": "ROADMAP item 2: verify's symmetry_pullbacks check",
    "torus.SymmetryAction.w_map": "ROADMAP item 2: verify's symmetry_pullbacks check",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _references(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _traced():
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS":
            return {key.value for key in node.value.keys}
    raise AssertionError("perfbench/child.py has no TARGETS table")


def _uncalled():
    trees = _trees()
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    traced = _traced()
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exports(tree)
        if name not in referenced and f"{module}.{name}" not in traced
    }


def _attribute_reads(node, skip=None):
    """Names read as ``obj.name`` under ``node``, not looking inside ``skip``."""
    out, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _is_dataclass(cls):
    return any(
        getattr(decorator.func if isinstance(decorator, ast.Call) else decorator, "id", None)
        == "dataclass"
        for decorator in cls.decorator_list
    )


def _unread_members(cls, outside):
    """Public fields and methods of ``cls`` that no reader reaches."""
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    fields = [
        node.target.id
        for node in cls.body
        if _is_dataclass(cls) and isinstance(node, ast.AnnAssign)
    ]
    read = {name for name in methods if name.startswith("__")} | (outside & {*methods, *fields})
    pending = list(read & set(methods))
    while pending:
        new = _attribute_reads(methods[pending.pop()]) - read
        read |= new
        pending.extend(new & set(methods))
    return {name for name in [*fields, *methods] if not name.startswith("_") and name not in read}


def _unread():
    trees = _trees()
    scripts = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    everything = [*trees.values(), *scripts]
    return {
        f"{module}.{node.name}.{member}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in _exports(tree)
        for member in _unread_members(
            node, set().union(*(_attribute_reads(t, skip=node) for t in everything))
        )
    }


def _members_of(key):
    module, cls, _ = key.split(".")
    (node,) = [
        node
        for node in _trees()[module].body
        if isinstance(node, ast.ClassDef) and node.name == cls
    ]
    return {f"{module}.{cls}.{member}" for member in _unread_members(node, set())}


def _waiting():
    out = set()
    for key in WAITING:
        out |= _members_of(key) if key.endswith(".*") else {key}
    return out


def _private_names(node):
    """The private names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        found = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        names = [n.id for n in found if isinstance(n.ctx, ast.Store)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _unread_private():
    statements = [(module, node) for module, tree in _trees().items() for node in tree.body]
    references = [_references(node) for _, node in statements]
    return {
        f"{module}.{name}"
        for k, (module, node) in enumerate(statements)
        for name in _private_names(node)
        if not any(name in refs for j, refs in enumerate(references) if j != k)
    }


def test_every_private_name_has_a_reader_in_the_package():
    assert sorted(_unread_private()) == []


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(_uncalled() - _waiting()) == []


def test_every_public_member_has_a_reader_outside_the_tests():
    assert sorted(_unread() - _waiting()) == []


def test_the_waiting_list_holds_only_names_without_a_caller():
    assert sorted(_waiting() - _uncalled() - _unread()) == []
