import ast
from pathlib import Path

import mfgtorus

# Public functions only callers outside the package use: the uniqueness pairing
# (acceptance criteria 10 and 11) and the vanishing-perturbation path (criterion 12).
CALLED_FROM_OUTSIDE_ONLY = {"monotonicity_gap", "perturbation_solve"}

TREES = [ast.parse(p.read_text()) for p in Path(mfgtorus.__file__).parent.glob("*.py") if p.name != "__init__.py"]


def test_every_public_function_has_a_caller_in_the_package():
    """No public module-level function exists that only tests call, the allowlist aside."""
    public = {node.name for tree in TREES for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    referenced = set()
    for tree in TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert public - referenced == CALLED_FROM_OUTSIDE_ONLY


def _named_class(annotation) -> str | None:
    """The name an annotation gives its value's type (`State`, `State | None`), or None."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.right, ast.Constant):
        annotation = annotation.left
    return annotation.id if isinstance(annotation, ast.Name) else None


def _attribute_uses(fields: dict) -> set:
    """(class of the receiver, attribute) of every `receiver.attribute` in the package.  The class is
    found where the package's annotations give it: `self` in a method, an annotated parameter, a class
    name, and an annotated dataclass field of any of these (`spec.potential`); elsewhere it is None."""
    uses = set()

    def receiver(node, scope):
        if isinstance(node, ast.Name):
            return scope.get(node.id)
        if isinstance(node, ast.Attribute):
            return fields.get(receiver(node.value, scope), {}).get(node.attr)
        return None

    def visit(node, scope, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            scope = {**scope, **{a.arg: _named_class(a.annotation) for a in args}}
            if cls is not None and args and args[0].arg == "self":
                scope["self"] = cls
        elif isinstance(node, ast.Attribute):
            uses.add((receiver(node.value, scope), node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, cls)

    for tree in TREES:
        visit(tree, {name: name for name in fields}, None)
    return uses


def test_every_public_method_and_property_has_a_caller_in_the_package():
    """No public method, property or static method of a public class exists that only tests call: the
    package reads each as an attribute of that class, or of a receiver whose class it does not annotate."""
    classes = [node for tree in TREES for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    fields = {cls.name: {node.target.id: _named_class(node.annotation) for node in cls.body
                         if isinstance(node, ast.AnnAssign)} for cls in classes}
    members = {(cls.name, node.name) for cls in classes for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    uses = _attribute_uses(fields)
    assert len(members) > 20  # the walk sees the classes' bodies
    assert {f"{cls}.{name}" for cls, name in members if not uses & {(cls, name), (None, name)}} == set()
