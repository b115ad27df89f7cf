"""The public keyword options of the package, listed in the open.

A new option on a public function has to be added to KNOBS below, so
every knob the package grows is added in plain sight.
"""

import ast
import pathlib

import friabilis

KNOBS = {
    ("psi_exact", "psi_enumerate", "x_exact"),
    ("psi_exact", "psi_enumerate", "max_count"),
    ("theorem", "regime_record", "x_exact"),
    ("theorem", "regime_record", "max_count"),
    ("theorem", "oscillation_record", "alpha"),
    ("theorem", "largest_feasible_log_x", "max_count"),
}


def test_public_keyword_options_are_listed():
    found = set()
    for path in pathlib.Path(friabilis.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found |= {(path.stem, node.name, a.arg) for a in node.args.kwonlyargs}
    assert found == KNOBS
