"""Package surface: every exported name resolves, the README quick start runs,
and no module imports scipy, so no verb loads it."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import holisde

README = Path(__file__).resolve().parents[1] / "README.md"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    states, cfg, grid = scope["states"], scope["cfg"], scope["grid"]
    assert states.shape == (cfg.n_steps + 1, 1, grid.M, 1)
    assert np.all(np.isfinite(states))


def _reads(tree: ast.Module) -> set:
    """Names and attributes a module reads, each def or class, at any depth,
    not counting reads of its own name inside itself."""
    reads = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in own:
                reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return reads


def test_every_public_name_has_a_caller_or_is_an_oracle():
    # a public name read only by its own unit test does not belong in the
    # package; the acceptance suite's imports are the oracles it may keep
    acceptance = ast.parse(ACCEPTANCE.read_text())
    oracles = {a.name for node in ast.walk(acceptance)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("holisde")
               for a in node.names}
    src = Path(holisde.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))
             if p.name != "__init__.py"}
    reads = set().union(*map(_reads, trees.values()))
    idle = [f"{info.name}.{n}" for info in pkgutil.iter_modules(holisde.__path__)
            for n in getattr(importlib.import_module(f"holisde.{info.name}"), "__all__", ())
            if n not in reads and n not in oracles]
    # public methods and properties of public classes, matched by attribute
    # name: a read elsewhere in the package, in the acceptance suite or in
    # the benchmark counts, a read inside the method's own body does not
    reads |= _reads(acceptance).union(*(_reads(ast.parse(p.read_text()))
                                        for p in PERFBENCH.glob("*.py")))
    idle += [f"{module}.{cls.name}.{f.name}" for module, tree in trees.items()
             for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name[0] != "_"
             for f in cls.body if isinstance(f, ast.FunctionDef) and f.name[0] != "_"
             and f.name not in reads]
    assert idle == []


def test_no_module_spawns_seeds():
    # `SeedSequence.spawn` advances a hidden counter, so a seed would depend on
    # how often it was asked for before; `harness.member_seeds` names each
    # member's seed by its index and stream instead
    src = Path(holisde.__file__).parent
    calls = [f"{p.name}:{node.lineno}" for p in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "spawn"]
    assert calls == []


SCIPY_LINALG = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")
TINY = dict(subgrid_n=16, n_modes=17, T=0.02, dt=1e-3, ensemble=8, n_fine=256,
            model_kinds=("conventional_fd", "holistic"), chunk_size=4)


def _cold(code: str, tmp_path: Path) -> list:
    """Run `code` in a fresh interpreter, after writing the tiny config to
    cfg.json under tmp_path; `loaded()` inside it lists the scipy linear
    algebra modules imported so far.  Returns what the code printed, one
    JSON value per line."""
    from holisde import RunConfig

    (tmp_path / "cfg.json").write_text(RunConfig(**TINY).to_json(), encoding="utf-8")
    prelude = ("import json, sys\n"
               f"loaded = lambda: [m for m in {SCIPY_LINALG!r} if m in sys.modules]\n")
    env = {**os.environ, "PYTHONPATH": str(Path(holisde.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", prelude + code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]


def test_grid_model_verbs_load_no_scipy_linear_algebra(tmp_path):
    # the import, compare and the weak-h study never build the coupled operator
    weak_h = f"h={np.pi / 2},{np.pi / 4},{np.pi / 8}"
    code = (
        "import holisde\n"
        "print(json.dumps(loaded()))\n"
        "from holisde import cli\n"
        "argv = ['--config', 'cfg.json', '--out', 'out']\n"
        "print(json.dumps([cli.main(argv + ['compare'])] + loaded()))\n"
        f"print(json.dumps([cli.main(argv + ['--sweep', '{weak_h}', "
        "'converge', '--study', 'weak-h'])] + loaded()))\n"
    )
    assert _cold(code, tmp_path) == [[], [0], [0]]


def test_coupling_gap_loads_no_scipy_linear_algebra(tmp_path):
    # the coupled solver builds its blocks from the half-element matrices in numpy
    code = (
        "from holisde import cli\n"
        "print(json.dumps([cli.main(['--config', 'cfg.json', '--out', 'out', '--sweep', "
        "'gamma=0.9,0.99,1', 'converge', '--study', 'coupling-gap'])] + loaded()))\n"
    )
    assert _cold(code, tmp_path) == [[0]]


def test_eig_sweep_and_expansion_check_load_no_scipy(tmp_path):
    # eig_gamma iterates on the condensed element solve in numpy
    code = (
        "from holisde import cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "argv = ['--config', 'cfg.json', '--out', 'out']\n"
        "print(json.dumps([cli.main(argv + ['--sweep', 'gamma=0,0.5,1', 'eig-sweep'])] + scipy()))\n"
        "print(json.dumps([cli.main(argv + ['expansion-check'])] + scipy()))\n"
    )
    assert _cold(code, tmp_path) == [[0], [0]]


def test_no_module_imports_scipy():
    # numpy is the package's only run-time dependency; scipy serves the tests
    # as an oracle
    src = Path(holisde.__file__).parent
    imports = [f"{p.name}:{node.lineno}" for p in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
               or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"]
    assert imports == []
