"""The public keyword options of the package and the options of its CLI,
listed in the open.

A new option on a public function has to be added to KNOBS below, and a
new option of a subcommand to CLI_OPTIONS, so every knob the package
grows is added in plain sight.
"""

import argparse
import ast
import pathlib

import friabilis
from friabilis import cli

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


CLI_OPTIONS = {
    "primes": {"--limit", "--format", "--output"},
    "rho": {"--u", "--log", "--export-grid", "--format", "--output"},
    "xi": {"--u", "--format", "--output"},
    "alpha": {"--x", "--log-x", "--y", "--format", "--output"},
    "psi": {"--x", "--log-x", "--y", "--method", "--max-count", "--format", "--output"},
    "compare": {"--c", "--x", "--log-x", "--max-count", "--format", "--output"},
    "oscillate": {"--c", "--y-min", "--y-max", "--y-steps", "--format", "--output"},
}


def test_cli_options_are_listed():
    [sub] = [a for a in cli._build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    found = {name: {opt for a in sp._actions for opt in a.option_strings
                    if opt.startswith("--") and opt != "--help"}
             for name, sp in sub.choices.items()}
    assert found == CLI_OPTIONS
