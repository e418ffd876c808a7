"""Module graph: parsed sources, import maps, and symbol resolution.

:mod:`repro.lint` is a *whole-program* analyzer: its rules reason about
values that cross module boundaries (an ``Engine`` handed to a process
pool, a metric name incremented three layers below the registry that
declares it).  This module builds the shared substrate those rules walk:

* every python file under the lint targets, parsed once into an AST
  (:class:`ModuleInfo`), with its dotted module name derived from the
  package layout (walking up while ``__init__.py`` exists);
* a per-module **import map** (local alias -> fully-qualified dotted
  name) so a rule can ask what ``Engine`` or ``pool.submit`` means in
  *this* file without re-deriving import semantics;
* per-module **symbol tables**: top-level bindings, function/class
  spans, and the set of *nested* function names (closures -- the things
  that do not pickle);
* ``qualname_at(line)`` so diagnostics name the enclosing function or
  class, never an AST offset.

Everything here is pure AST -- no module is imported or executed, so the
analyzer can lint broken, hostile, or fixture trees safely.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

__all__ = [
    "ModuleGraph",
    "ModuleInfo",
    "ParseFailure",
    "dotted_name",
    "module_name_for",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, from the package layout.

    Walks up while the parent directory holds an ``__init__.py``, so
    ``src/repro/spice/cache.py`` maps to ``repro.spice.cache`` and a
    loose fixture file maps to its stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass(frozen=True)
class ParseFailure:
    """A file the graph could not parse (reported, never fatal)."""

    path: Path
    line: int
    message: str
    col: int = 0


@dataclass
class _Span:
    """Line span of one function/class definition."""

    qualname: str
    start: int
    end: int
    nested_function: bool


class ModuleInfo:
    """One parsed module plus the derived facts rules ask about."""

    def __init__(self, path: Path, name: str, source: str, tree: ast.Module):
        self.path = path
        self.name = name
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: local alias -> fully-qualified dotted name, from imports.
        self.imports: Dict[str, str] = {}
        #: names defined at module top level (defs, classes, assigns).
        self.toplevel: Set[str] = set()
        #: bare names of functions defined *inside* another function --
        #: closures that cannot cross a pickle boundary by reference.
        self.nested_functions: Set[str] = set()
        self._spans: List[_Span] = []
        self._index()

    # -- construction ----------------------------------------------------
    def _index(self) -> None:
        for node in self.tree.body:
            for target_name in _binding_names(node):
                self.toplevel.add(target_name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._index_import(node)
        self._index_spans(self.tree, prefix="", in_function=False)

    def _index_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(
                    ".", 1)[0]
                self.imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                self.imports[local] = f"{node.module}.{alias.name}"

    def _index_spans(
        self, node: ast.AST, prefix: str, in_function: bool
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                is_func = not isinstance(child, ast.ClassDef)
                if is_func and in_function:
                    self.nested_functions.add(child.name)
                self._spans.append(_Span(
                    qualname,
                    child.lineno,
                    getattr(child, "end_lineno", child.lineno) or child.lineno,
                    is_func and in_function,
                ))
                self._index_spans(
                    child, qualname, in_function or is_func
                )
            else:
                self._index_spans(child, prefix, in_function)

    # -- queries ---------------------------------------------------------
    def qualname_at(self, line: int) -> str:
        """Qualname of the innermost def/class enclosing ``line``.

        ``"<module>"`` for top-level code -- diagnostics always carry a
        human symbol, never a bare offset.
        """
        best: Optional[_Span] = None
        for span in self._spans:
            if span.start <= line <= span.end:
                if best is None or span.start >= best.start:
                    best = span
        return best.qualname if best else "<module>"

    def resolve(self, dotted: str) -> str:
        """Fully qualify ``dotted`` through this module's import map.

        ``pool.submit`` stays ``pool.submit`` when ``pool`` is a local
        binding; ``np.random.default_rng`` becomes
        ``numpy.random.default_rng`` when ``np`` was imported as numpy.
        """
        head, _, tail = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{tail}" if tail else target

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleInfo {self.name} ({self.path})>"


def _binding_names(node: ast.AST) -> Iterator[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(node, ast.AnnAssign):
        if isinstance(node.target, ast.Name):
            yield node.target.id
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.asname or alias.name.split(".", 1)[0]


class ModuleGraph:
    """Every module under the lint targets, parsed and indexed once."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.failures: List[ParseFailure] = []

    @classmethod
    def build(cls, targets: Sequence[Path]) -> "ModuleGraph":
        graph = cls()
        for path in iter_python_files(targets):
            graph.add_file(path)
        return graph

    def add_file(self, path: Path) -> Optional[ModuleInfo]:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.failures.append(ParseFailure(
                path, exc.lineno or 0, exc.msg or "syntax error",
                exc.offset or 0,
            ))
            return None
        except (OSError, UnicodeDecodeError) as exc:
            self.failures.append(ParseFailure(path, 0, str(exc)))
            return None
        info = ModuleInfo(path, module_name_for(path), source, tree)
        self.modules[info.name] = info
        return info

    def __iter__(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            yield self.modules[name]

    def __len__(self) -> int:
        return len(self.modules)

    def get(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)


def iter_python_files(targets: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``targets``, sorted, directories walked."""
    seen: Set[Path] = set()

    def emit(path: Path) -> Iterator[Path]:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            yield path

    for target in targets:
        if target.is_dir():
            for path in sorted(target.rglob("*.py")):
                yield from emit(path)
        elif target.suffix == ".py" or target.is_file():
            yield from emit(target)
        else:
            raise FileNotFoundError(
                f"no such file or directory: {target}"
            )


def relpath(path: Path, root: Optional[Path] = None) -> str:
    """``path`` relative to ``root`` (default cwd) when possible."""
    base = (root or Path.cwd()).resolve()
    try:
        return str(path.resolve().relative_to(base))
    except ValueError:
        return str(path)
