"""Content-addressed cache keys: code digests + calibration identity.

A cached artifact result is only valid while three things hold: the
code that produces it, the calibration coefficients it was priced with,
and the artifact's own parameters.  :func:`artifact_key` hashes all
three into one key:

* **code digest** -- :class:`CodeGraph` parses every module of the
  ``repro`` package with :mod:`ast` (no imports are executed) and
  builds the static import graph, *including* lazy function-level
  imports.  A producer's digest covers the transitive closure of
  modules its defining module can reach, plus the ``__init__`` of every
  enclosing package (importing ``a.b.c`` executes them).  Editing a
  kernel generator, a cost table or an accelerator therefore changes
  the digest of exactly the artifacts whose producers can reach the
  edited module -- and nothing else.
* **calibration fingerprint** --
  :meth:`repro.energy.calibration.Calibration.fingerprint`, a content
  hash of every coefficient.
* **artifact parameters** -- the spec's ``(kind, name, params)`` and
  the producer's qualified name.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.energy.calibration import Calibration
    from repro.harness.registry import ArtifactSpec

#: Bump when the key layout (not the hashed content) changes.
KEY_SCHEMA = "repro.sweep.key.v1"


def _package_root(package: str) -> str:
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"cannot locate package {package!r}")
    return list(spec.submodule_search_locations)[0]


def _statements(tree: ast.AST):
    """Every statement in ``tree``, nested ones included.

    ``import`` and ``from ... import`` are statements, so walking the
    statement lists finds all of them without visiting the far more
    numerous expression nodes that :func:`ast.walk` would.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for attr in ("body", "orelse", "finalbody", "handlers", "cases"):
            stack.extend(getattr(node, attr, ()))


class CodeGraph:
    """Static import graph of one package's sources.

    Built purely from the files on disk at construction time; construct
    a fresh instance (or call :func:`code_graph.cache_clear`) to pick up
    edits.
    """

    def __init__(self, package: str, root: str | os.PathLike | None = None
                 ) -> None:
        self.package = package
        self.root = str(root) if root is not None else _package_root(package)
        self.files: dict[str, str] = {}      # module name -> file path
        self.packages: set[str] = set()      # names that are __init__.py
        self._scan()
        self.source_sha: dict[str, str] = {
            name: hashlib.sha256(_read_bytes(path)).hexdigest()
            for name, path in self.files.items()}
        self.edges: dict[str, frozenset[str]] = {
            name: self._imports_of(name, path)
            for name, path in self.files.items()}

    # -- construction -------------------------------------------------------

    def _scan(self) -> None:
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            rel = os.path.relpath(dirpath, self.root)
            parts = [] if rel == "." else rel.split(os.sep)
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                if filename == "__init__.py":
                    name = ".".join([self.package, *parts])
                    self.packages.add(name)
                else:
                    name = ".".join([self.package, *parts, filename[:-3]])
                self.files[name] = os.path.join(dirpath, filename)

    def _imports_of(self, name: str, path: str) -> frozenset[str]:
        try:
            tree = ast.parse(_read_bytes(path))
        except SyntaxError:
            return frozenset()
        out: set[str] = set()

        def add(candidate: str) -> None:
            # resolve to the longest known module prefix (``from m import
            # attr`` names either a submodule or an attribute of m)
            while candidate:
                if candidate in self.files:
                    out.add(candidate)
                    return
                candidate = candidate.rpartition(".")[0]

        own_pkg = name if name in self.packages \
            else name.rpartition(".")[0]
        for node in _statements(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = own_pkg
                    for _ in range(node.level - 1):
                        base = base.rpartition(".")[0]
                    if node.module:
                        base = f"{base}.{node.module}" if base \
                            else node.module
                else:
                    base = node.module or ""
                add(base)
                for alias in node.names:
                    add(f"{base}.{alias.name}" if base else alias.name)
        out.discard(name)
        return frozenset(out)

    # -- queries ------------------------------------------------------------

    def _ancestors(self, name: str) -> set[str]:
        out = set()
        while "." in name:
            name = name.rpartition(".")[0]
            if name in self.files:
                out.add(name)
        return out

    def closure(self, module: str) -> frozenset[str]:
        """``module`` plus every package module it can transitively
        reach through static imports (and the enclosing ``__init__``s,
        which importing it executes)."""
        if module not in self.files:
            raise KeyError(f"{module!r} is not a module of "
                           f"{self.package!r}")
        seen: set[str] = set()
        frontier = [module]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._ancestors(current) - seen)
            frontier.extend(self.edges.get(current, ()) - seen)
        return frozenset(seen)

    def digest(self, module: str) -> str:
        """Content hash over the sources of ``module``'s closure."""
        pairs = sorted((name, self.source_sha[name])
                       for name in self.closure(module))
        blob = json.dumps(pairs)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@lru_cache(maxsize=4)
def code_graph(package: str = "repro") -> CodeGraph:
    """Process-cached graph of ``package``.

    The cache assumes sources do not change underneath a running
    process; tools that edit sources and re-key (tests) should build
    :class:`CodeGraph` instances directly.
    """
    return CodeGraph(package)


def artifact_key(spec: "ArtifactSpec",
                 calibration: "Calibration | None" = None,
                 graph: CodeGraph | None = None) -> str:
    """The content-addressed cache key of one artifact.

    ``spec`` is an :class:`repro.harness.registry.ArtifactSpec`;
    ``calibration`` defaults to the process default
    :data:`~repro.energy.calibration.CALIBRATION`.
    """
    from repro.energy.calibration import CALIBRATION

    if graph is None:
        graph = code_graph(spec.producer_module.partition(".")[0])
    cal = calibration if calibration is not None else CALIBRATION
    payload = {
        "schema": KEY_SCHEMA,
        "kind": spec.kind,
        "name": spec.name,
        "params": [[str(k), repr(v)] for k, v in spec.params],
        "producer": f"{spec.producer_module}."
                    f"{spec.producer.__qualname__}",
        "code": graph.digest(spec.producer_module),
        "calibration": cal.fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
