"""Every name the benchmark's tracer wraps, and every name the package
exports, resolves: a trim that deletes one fails here, naming it, rather
than deep inside a traced benchmark run."""

import ast
import importlib
import sys
from pathlib import Path

import tmembed
from tmembed import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tmbench.tracer import SITES  # noqa: E402


def test_every_traced_site_resolves():
    missing = [f"{module}.{attr}" for module, attr, _, _ in SITES
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"traced but not found: {missing}"
    assert set(cli.COMMANDS) == {"vocab", "phase1", "phase2", "eval",
                                 "augment", "classify"}


def test_every_package_export_resolves():
    tree = ast.parse((ROOT / "src" / "tmembed" / "__init__.py").read_text())
    names = [(node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 30
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"tmembed.{module}"),
                              name) or not hasattr(tmembed, name)]
    assert not missing, f"exported but not found: {missing}"
