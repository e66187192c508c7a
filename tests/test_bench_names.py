import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _traced() -> dict:
    """``TRACED`` of ``perfbench/child.py``, read without importing it."""
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED assignment in perfbench/child.py")


def test_every_traced_name_resolves():
    """The traced bench run wraps these functions by name: a rename or a
    deletion would break it."""
    traced = _traced()
    assert traced
    for mod, names in traced.items():
        module = importlib.import_module(f"hopflab.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hopflab.{mod}.{name}"
