"""Problem output enters the library through one module.

``oracle.py`` owns ``Problem.exact_f``/``exact_deriv`` and the subsampled
path of ``InexactOracle``, which check every value and derivative they
return.  A call to a problem callable anywhere else would skip that check.
"""

import ast
from pathlib import Path

import dyntrust

PROBLEM_CALLABLES = {"fun", "deriv", "estimate_f", "estimate_deriv"}


def test_only_the_oracle_module_calls_problem_callables():
    src = Path(dyntrust.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    calls = []
    for path in modules:
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in PROBLEM_CALLABLES):
                calls.append(f"{path.name}:{node.lineno} .{node.func.attr}(")
    assert calls == []
