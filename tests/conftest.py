"""CLI tests run `python -m friabilis` in subprocesses; point those at the
same package the tests import, so a plain `python -m pytest` from a fresh
checkout (src/ put on sys.path by pyproject.toml) needs no PYTHONPATH."""

import os
from pathlib import Path

import friabilis

_ROOT = str(Path(friabilis.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_ROOT, os.environ.get("PYTHONPATH")) if p)
