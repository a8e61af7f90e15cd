"""Configuration of the determinism sanitizer.

The linter is configured from the ``[tool.repro.analysis]`` table of
``pyproject.toml``:

.. code-block:: toml

    [tool.repro.analysis]
    # rule IDs to run (empty/absent = all registered rules)
    select = []
    # rule IDs to skip
    ignore = []
    # path fragments where sim-scoped rules apply
    sim-paths = ["repro/sim/", "repro/core/"]
    # files allowed to read wall clocks (DET101/DET102)
    wallclock-allow = ["repro/experiments/clock.py"]
    # path fragments never linted
    exclude = []
    # classes whose pickled object graph is checkpoint state (CONC303)
    session-roots = ["repro.checkpoint.session.SimulationSession"]

Paths are matched as substrings of the file's posix path, so the
configuration survives repository moves and works from any working
directory.  ``tomllib`` is used when available (Python >= 3.11); on
older interpreters a deliberately tiny TOML-subset reader handles the
one table the sanitizer needs (string and string-array values), so the
linter stays dependency-free on every supported Python.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Path fragments (posix) of the simulation layer: modules whose state
#: or output feeds simulated results, where sim-scoped rules apply.
DEFAULT_SIM_PATHS: Tuple[str, ...] = (
    "repro/sim/",
    "repro/core/",
    "repro/machine/",
    "repro/qs/",
    "repro/rm/",
    "repro/runtime/",
    "repro/faults/",
    "repro/apps/",
    "repro/metrics/",
    "repro/cluster/",
)

#: The one sanctioned wall-clock site (see repro/experiments/clock.py).
DEFAULT_WALLCLOCK_ALLOW: Tuple[str, ...] = ("repro/experiments/clock.py",)


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved sanitizer configuration.

    Attributes mirror the ``[tool.repro.analysis]`` keys; tuples keep
    the config hashable and accidental mutation impossible.
    """

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    sim_paths: Tuple[str, ...] = DEFAULT_SIM_PATHS
    wallclock_allow: Tuple[str, ...] = DEFAULT_WALLCLOCK_ALLOW
    exclude: Tuple[str, ...] = ()
    #: class qnames whose reachable objects must pickle (``repro lint --deep``)
    session_roots: Tuple[str, ...] = ()
    #: where the config was read from (None = built-in defaults)
    source: Optional[str] = field(default=None, compare=False)

    def is_sim_path(self, posix_path: str) -> bool:
        """Whether sim-scoped rules apply to this file."""
        return any(fragment in posix_path for fragment in self.sim_paths)

    def is_wallclock_allowed(self, posix_path: str) -> bool:
        """Whether this file may read wall/monotonic clocks."""
        return any(fragment in posix_path for fragment in self.wallclock_allow)

    def is_excluded(self, posix_path: str) -> bool:
        """Whether this file is skipped entirely."""
        return any(fragment in posix_path for fragment in self.exclude)

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether a rule participates under select/ignore."""
        if rule_id in self.ignore:
            return False
        return not self.select or rule_id in self.select


_TABLE_HEADER = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*(?:#.*)?$")
_KEY_VALUE = re.compile(r"^\s*(?P<key>[A-Za-z0-9_-]+)\s*=\s*(?P<value>.*)$")
_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"|\'([^\']*)\'')


def _parse_minitoml_table(text: str, table: str) -> Dict[str, object]:
    """Extract one table from TOML text without a TOML parser.

    Understands exactly what ``[tool.repro.analysis]`` needs: string
    values and (possibly multi-line) arrays of strings.  Anything more
    exotic in *other* tables is ignored, not an error.
    """
    values: Dict[str, object] = {}
    in_table = False
    pending_key: Optional[str] = None
    pending_items: List[str] = []

    def strings_in(fragment: str) -> List[str]:
        return [a if a else b for a, b in _STRING.findall(fragment)]

    for raw_line in text.splitlines():
        line = raw_line.strip()
        header = _TABLE_HEADER.match(raw_line)
        if header and pending_key is None:
            in_table = header.group("name").strip() == table
            continue
        if not in_table or not line or line.startswith("#"):
            continue
        if pending_key is not None:
            pending_items.extend(strings_in(line))
            if "]" in line.split("#")[0]:
                values[pending_key] = pending_items
                pending_key, pending_items = None, []
            continue
        matched = _KEY_VALUE.match(raw_line)
        if not matched:
            continue
        key = matched.group("key")
        value = matched.group("value").split("#")[0].strip()
        if value.startswith("["):
            items = strings_in(value)
            if "]" in value:
                values[key] = items
            else:
                pending_key, pending_items = key, items
        else:
            parts = strings_in(value)
            values[key] = parts[0] if parts else value
    return values


def _read_analysis_table(pyproject: Path) -> Dict[str, object]:
    """The raw ``[tool.repro.analysis]`` mapping from *pyproject*.

    Sub-tables are dropped (values are strings and string arrays
    only), matching what the mini-TOML fallback can represent, so both
    parse paths agree.
    """
    table = "tool.repro.analysis"
    text = pyproject.read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:
        return _parse_minitoml_table(text, table)
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        return {}
    node: object = data
    for part in table.split("."):
        node = node.get(part, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict):
        return {}
    return {key: value for key, value in node.items() if not isinstance(value, dict)}


def find_pyproject(start: Union[str, Path]) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above *start*."""
    path = Path(start).resolve()
    if path.is_file():
        path = path.parent
    for candidate in [path, *path.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Union[str, Path] = ".") -> AnalysisConfig:
    """Resolve the sanitizer config for files under *start*.

    Walks upward from *start* to the nearest ``pyproject.toml``;
    missing file or missing table mean built-in defaults.
    """
    pyproject = find_pyproject(start)
    if pyproject is None:
        return AnalysisConfig()
    table = _read_analysis_table(pyproject)
    config = AnalysisConfig(source=str(pyproject))

    def str_tuple(key: str, default: Tuple[str, ...]) -> Tuple[str, ...]:
        value = table.get(key)
        if value is None:
            return default
        if isinstance(value, str):
            return (value,)
        return tuple(str(item) for item in value)

    return replace(
        config,
        select=str_tuple("select", ()),
        ignore=str_tuple("ignore", ()),
        sim_paths=str_tuple("sim-paths", DEFAULT_SIM_PATHS),
        wallclock_allow=str_tuple("wallclock-allow", DEFAULT_WALLCLOCK_ALLOW),
        exclude=str_tuple("exclude", ()),
        session_roots=str_tuple("session-roots", ()),
    )
