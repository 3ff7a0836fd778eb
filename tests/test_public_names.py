"""Every name a module exports in ``__all__`` has a caller outside the tests.

A name counts as called when some module of the package refers to it, as a
bare name, an attribute or an import, or when the benchmark traces it by name
(``perfbench/child.py`` ``TARGETS``).  The few names that only the tests call
today are listed below with the reason each one stays; a listed name that
gains a caller must leave the list.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g1helicoid"

#: ``module.name`` -> why the name stays public without a caller in ``src/``.
WAITING = {
    "weierstrass.alpha_cycle": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.vertical_period_gap": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.period_residual_I": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.period_residual_II": "ROADMAP item 2: verify's period_closure check",
    "weierstrass.x_point": "ROADMAP item 2: verify's symmetry_pullbacks check",
    "weierstrass.gauss_map": "ROADMAP item 4: normals of the discrete_minimality check",
    "weierstrass.conformality_residual": "ROADMAP item 4: sampled beside gauss_map",
    "period_solver.Lambda_window_certificate": "acceptance criterion 3",
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


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(_uncalled() - set(WAITING)) == []


def test_the_waiting_list_holds_only_names_without_a_caller():
    assert sorted(set(WAITING) - _uncalled()) == []
