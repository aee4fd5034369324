"""Package surface: every exported name resolves and the README quick start runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import holisde

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    # a stale __all__ entry otherwise fails only on `import *`
    missing = []
    for info in pkgutil.iter_modules(holisde.__path__):
        module = importlib.import_module(f"holisde.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    # every package-level re-export is a declared public name of its module
    tree = ast.parse(Path(holisde.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"holisde.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if a.name not in getattr(module, "__all__", ())
                        or not hasattr(holisde, a.name)]
    assert missing == []


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    traj, cfg, grid = scope["traj"], scope["cfg"], scope["grid"]
    assert traj.states.shape == (cfg.n_steps + 1, grid.M)
    assert np.all(np.isfinite(traj.states))
