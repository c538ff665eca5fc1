"""Every ``src/repro`` module is reached from something the reproduction runs.

The roots are the CLI (``repro.cli``), the paper benchmarks, the examples
and the performance benchmark.  The walk follows every ``import`` and
``from`` statement, function-local ones included, and resolves
``from repro.pkg import Name`` to the module that defines ``Name``.  A
package ``__init__`` re-exporting a module does not reach it: a module
whose only importers are its own unit tests and a re-export is surface
nothing reproduces, and this test names it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOT_DIRS = ("benchmarks", "examples", "perfbench")
ROOT_MODULES = ("repro.cli",)


def _module_file(module: str) -> Optional[Path]:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


def _imports(path: Path) -> Iterator[tuple[str, Optional[str]]]:
    """Yield ``(module, name)`` per imported name; ``name`` is None for ``import``.

    The package uses absolute imports only, so ``node.module`` is the
    full dotted name.
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name


def resolve(module: str, name: Optional[str]) -> Optional[str]:
    """The ``src/repro`` module an import statement reaches, if any."""
    if not (module == "repro" or module.startswith("repro.")):
        return None
    if name is None:
        return module if _module_file(module) else None
    submodule = f"{module}.{name}"
    if _module_file(submodule):
        return submodule
    if not _is_package(module):
        return module if _module_file(module) else None
    # A name re-exported by the package: follow it to its definition.
    init = _module_file(module)
    for source, imported in _imports(init):
        if imported == name:
            return resolve(source, imported)
    return module


def reached_modules() -> set[str]:
    pending = list(ROOT_MODULES)
    roots = [path for folder in ROOT_DIRS for path in sorted((ROOT / folder).rglob("*.py"))]
    for path in roots:
        for module, name in _imports(path):
            target = resolve(module, name)
            if target:
                pending.append(target)
    reached: set[str] = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        if _is_package(module):
            continue  # an __init__'s re-exports reach nothing
        for source, name in _imports(_module_file(module)):
            target = resolve(source, name)
            if target:
                pending.append(target)
    return reached


def all_modules() -> list[str]:
    modules = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        modules.append(".".join(path.relative_to(SRC).with_suffix("").parts))
    return modules


def test_reexports_resolve_to_their_defining_module():
    assert resolve("repro.sim", "simulate_flow") == "repro.sim.engine"
    assert resolve("repro", "LiBRA") == "repro.core.libra"
    assert resolve("repro.sim", "engine") == "repro.sim.engine"
    assert resolve("repro.core.libra", "LiBRA") == "repro.core.libra"
    assert resolve("numpy", "ndarray") is None


def test_every_module_is_reached_from_cli_benchmarks_examples_or_perfbench():
    reached = reached_modules()
    orphans = [module for module in all_modules() if module not in reached]
    assert not orphans, "modules nothing reproduces imports: " + ", ".join(orphans)
