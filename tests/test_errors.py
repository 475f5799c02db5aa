"""Every refusal the library raises is a typed ``WagnerSisError``, except the
few listed here with their reasons."""

import ast
from pathlib import Path

from wagnersis import errors

SRC = Path(errors.__file__).parent
TYPED = {name for name, obj in vars(errors).items()
         if isinstance(obj, type) and issubclass(obj, errors.WagnerSisError)}

# (file, enclosing function, raised name): why that raise is not a WagnerSisError
ALLOWED = {
    ("cli.py", "_read_stdin_docs", "ValueError"):
        "CLI usage error (exit code 2): stdin holds too few JSON documents",
    ("cli.py", "_cmd_estimate", "ValueError"):
        "CLI usage error (exit code 2): --preset given with the dimensions, or neither",
    ("cli.py", "_solution_x", "ValueError"):
        "CLI usage error (exit code 2): a solution document without a list x",
    ("cli.py", "_in_given_coordinates", "error"):
        "a variable naming NotInLattice or WagnerSisError itself",
    ("zqlin.py", "from_json", "ValueError"):
        "a document that is not a JSON object, as json.loads reports bad JSON",
    ("wagner.py", "_as_seed", "TypeError"):
        "a caller's programming error: rng must be an int seed",
}


def _raises():
    """(file, enclosing function, raised name, line) for every raise of an
    exception under the package (bare re-raises excluded)."""
    found = []

    def visit(node, file, func):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((file, func, exc.id if isinstance(exc, ast.Name) else exc.attr,
                          node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, file, func)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def test_every_raise_is_typed_or_allowed():
    raises = _raises()
    untyped = [r for r in raises if r[2] not in TYPED and r[:3] not in ALLOWED]
    assert not untyped, f"raise a WagnerSisError subclass, or allow it with a reason: {untyped}"
    assert set(ALLOWED) <= {r[:3] for r in raises}, "an allowed raise is gone: drop its entry"
