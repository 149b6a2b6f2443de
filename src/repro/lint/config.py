"""Configuration for the invariant checker.

Defaults encode the repo's actual layering contract; projects embedding
the checker (or future PRs that add legitimate call sites) extend the
allowlists from ``pyproject.toml``::

    [tool.repro-lint]
    ignore = ["LSVD005"]
    sequence-allow = ["core/new_destager.py"]

Module paths are matched as *suffixes* of the path after the ``repro``
package directory, so ``core/block_store.py`` matches
``src/repro/core/block_store.py`` wherever the tree is checked out.

Only what some project actually overrides is a field here: rule selection,
the per-rule allowlists, and the two vocabularies a fixture extends.  The
marker, receiver, call and scope lists with a single value anywhere are
module constants beside the rule that reads them.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, fields, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: package directory used to anchor relative module keys
PACKAGE_MARKER = "repro"

#: modules that own sequence-number arithmetic: the wire format, the
#: backend object allocator, and the cache-log allocator.
DEFAULT_SEQUENCE_ALLOW: Tuple[str, ...] = (
    "core/log.py",
    "core/block_store.py",
    "core/write_cache.py",
)

#: modules exempt from LSVD007: the user-facing reporting surfaces.  The
#: CLI and the analysis/lint reporters print by design; they *consume*
#: the registry rather than feeding it.
DEFAULT_OBS_ALLOW: Tuple[str, ...] = (
    "cli.py",
    "analysis/report.py",
    "lint/reporters.py",
)

#: attribute-name substrings that mark an ad-hoc stat counter when
#: incremented as a public ``self.<name> += ...``
DEFAULT_STAT_MARKERS: Tuple[str, ...] = (
    "hits",
    "misses",
    "bytes",
    "writes",
    "reads",
    "puts",
    "gets",
    "deletes",
    "barriers",
    "flushes",
    "evicted",
    "evictions",
    "rounds",
    "count",
)

#: blessed fast-path helpers: ``module.py::function`` entries exempt one
#: function (the extent map's bounded-chunk mutators, where the shifted
#: list is a chunk, not the whole map); a bare module suffix exempts the
#: file.  Cold-path exemptions (recovery decode, checkpoint restore) are
#: added from pyproject via ``hotpath-allow``.
DEFAULT_HOTPATH_BLESSED: Tuple[str, ...] = (
    "core/extent_map.py::_leaf_insert",
    "core/extent_map.py::_split_chunk",
    "core/extent_map.py::_replace_run",
    "core/extent_map.py::_maybe_fold",
)

#: modules allowed to construct QoS enforcement machinery and hold
#: cross-tenant rate state: the fleet control plane itself
DEFAULT_FLEET_ALLOW: Tuple[str, ...] = ("fleet/",)

#: the one module that owns temperature classification
DEFAULT_PLACEMENT_ALLOW: Tuple[str, ...] = ("core/placement.py",)


@dataclass(frozen=True)
class LintConfig:
    """Immutable checker configuration; see module docstring."""

    select: Optional[Tuple[str, ...]] = None
    ignore: Tuple[str, ...] = ()
    sequence_allow: Tuple[str, ...] = DEFAULT_SEQUENCE_ALLOW
    obs_allow: Tuple[str, ...] = DEFAULT_OBS_ALLOW
    stat_markers: Tuple[str, ...] = DEFAULT_STAT_MARKERS
    hotpath_blessed: Tuple[str, ...] = DEFAULT_HOTPATH_BLESSED
    # settlement leak (LSVD010)
    settlement_allow: Tuple[str, ...] = ()
    # tenant isolation (LSVD016)
    fleet_allow: Tuple[str, ...] = DEFAULT_FLEET_ALLOW
    # placement confinement (LSVD017)
    placement_allow: Tuple[str, ...] = DEFAULT_PLACEMENT_ALLOW

    # -- code filtering --------------------------------------------------
    def code_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        if self.select is not None and code not in self.select:
            return False
        return True

    # -- module addressing ----------------------------------------------
    @staticmethod
    def module_key(path: str) -> str:
        """Path of a module relative to the ``repro`` package directory.

        Files outside any ``repro`` directory (test fixtures, scratch
        trees) key on their bare filename, which matches no allowlist —
        i.e. fixtures are checked with no exemptions unless they are laid
        out as ``.../repro/<subdir>/<file>.py``.
        """
        parts = pathlib.PurePath(path).parts
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == PACKAGE_MARKER:
                return "/".join(parts[i + 1 :])
        return parts[-1] if parts else path

    def module_allowed(self, path: str, allow: Sequence[str]) -> bool:
        key = self.module_key(path)
        return any(key == entry or key.endswith("/" + entry) for entry in allow)

    def module_in_dirs(self, path: str, dirs: Sequence[str]) -> bool:
        key = self.module_key(path)
        return any(key.startswith(d) for d in dirs)

    def scoped_allow(
        self, path: str, entries: Sequence[str]
    ) -> Tuple[FrozenSet[str], bool]:
        """Per-function exemptions for one module.

        Entries take the form ``core/block_store.py::write_super`` (one
        function) or a bare module suffix (the whole file).  Returns
        ``(exempt function names, whole-module exemption)``.
        """
        key = self.module_key(path)
        names: Set[str] = set()
        whole = False
        for entry in entries:
            module, sep, func = entry.partition("::")
            if key != module and not key.endswith("/" + module):
                continue
            if sep and func:
                names.add(func)
            else:
                whole = True
        return frozenset(names), whole

    # -- pyproject integration ------------------------------------------
    @classmethod
    def from_pyproject(cls, pyproject: pathlib.Path) -> "LintConfig":
        """Defaults merged with the ``[tool.repro-lint]`` table, if any.

        A field's key is its name with dashes (``hotpath_blessed`` keeps
        its historical ``hotpath-allow``).  ``select`` replaces the
        default; every other list extends it.
        """
        base = cls()
        if tomllib is None or not pyproject.is_file():
            return base
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
        table = data.get("tool", {}).get("repro-lint", {})
        if not isinstance(table, dict):
            return base
        updates: Dict[str, Tuple[str, ...]] = {}
        for spec in fields(cls):
            key = "hotpath-allow" if spec.name == "hotpath_blessed" else spec.name.replace("_", "-")
            extra = table.get(key)
            if not isinstance(extra, list):
                continue
            items = tuple(str(item) for item in extra)
            updates[spec.name] = items if spec.name == "select" else getattr(base, spec.name) + items
        return replace(base, **updates)

    # -- self-check -------------------------------------------------------
    def stale_entries(self, package_dir: pathlib.Path) -> List[str]:
        """Allowlist entries that match nothing under ``package_dir``.

        An entry names a module suffix (``core/log.py``), a directory
        prefix (``shard/``) or one function (``core/log.py::decode``).
        One that matches no file — or no ``def`` of that name in it —
        exempts nothing, and usually means the code it excused was moved
        or deleted without the exemption being reviewed again.  Returns
        ``"<field>: <entry>"`` strings.
        """
        paths = [str(path) for path in package_dir.rglob("*.py")]
        stale: List[str] = []
        for spec in fields(self):
            if not spec.name.endswith(("_allow", "_blessed")):
                continue
            for entry in getattr(self, spec.name):
                module, _sep, func = entry.partition("::")
                hits = [
                    path
                    for path in paths
                    if self.module_allowed(path, [module])
                    or self.module_in_dirs(path, [module])
                ]
                if func:
                    define = re.compile(rf"^\s*(?:async\s+)?def {re.escape(func)}\(", re.M)
                    hits = [
                        path
                        for path in hits
                        if define.search(pathlib.Path(path).read_text("utf-8"))
                    ]
                if not hits:
                    stale.append(f"{spec.name}: {entry}")
        return stale


def discover_config(start: pathlib.Path) -> LintConfig:
    """Find the nearest ``pyproject.toml`` at or above ``start``."""
    probe = start if start.is_dir() else start.parent
    for candidate in [probe, *probe.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return LintConfig.from_pyproject(pyproject)
    return LintConfig()
