import ast
from pathlib import Path

import mfgtorus

# Public functions only callers outside the package use: the uniqueness pairing
# (acceptance criteria 10 and 11) and the vanishing-perturbation path (criterion 12).
CALLED_FROM_OUTSIDE_ONLY = {"monotonicity_gap", "perturbation_solve"}


def test_every_public_function_has_a_caller_in_the_package():
    """No public module-level function exists that only tests call, the allowlist aside."""
    modules = [p for p in Path(mfgtorus.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text()) for p in modules]
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert public - referenced == CALLED_FROM_OUTSIDE_ONLY
