"""Session-state picklability (CONC303).

Checkpoints pickle the whole session object graph, so every object
reachable from a session root must survive pickling.  The roots are
declared in ``pyproject.toml``::

    [tool.repro.analysis]
    session-roots = [
        "repro.checkpoint.session.SimulationSession",
        "repro.serve.session.ServeSession",
    ]

Reachability follows inferred attribute types (``self.rm: RM``,
``self.qs = NanosQS(...)``) and each class's project bases.  A
reachable class that stores a lambda, a local function, an open
handle or a thread lock on ``self`` is a finding; classes that define
``__getstate__`` are trusted to canonicalise themselves and are
exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import attr_chain

from repro.analysis.flow.catalog import FLOW_RULE_INFO
from repro.analysis.flow.project import Project

#: Constructor origins whose instances cannot be pickled.
_UNPICKLABLE_ORIGINS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "multiprocessing.Lock",
    "multiprocessing.RLock",
})


def check_session_state(project: Project, roots: Sequence[str]) -> List[Finding]:
    """CONC303: unpicklable values on session-reachable objects."""
    info = FLOW_RULE_INFO["CONC303"]
    findings: List[Finding] = []
    for class_qname in sorted(reachable_classes(project, roots)):
        cls = project.classes[class_qname]
        if cls.has_getstate:
            continue
        module = project.modules[cls.module]
        for method_name in sorted(cls.methods):
            fn = project.functions[cls.methods[method_name]]
            local_defs = {
                inner.name
                for inner in ast.walk(fn.node)
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                and inner is not fn.node
            }
            for stmt in ast.walk(fn.node):
                pairs: List[Tuple[ast.expr, ast.expr]] = []
                if isinstance(stmt, ast.Assign):
                    pairs = [(t, stmt.value) for t in stmt.targets]
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    pairs = [(stmt.target, stmt.value)]
                for target, value in pairs:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    reason = _unpicklable_reason(value, local_defs, module.imports)
                    if reason is None:
                        continue
                    findings.append(Finding(
                        path=module.posix,
                        line=target.lineno,
                        column=target.col_offset,
                        rule=info.id,
                        severity=info.severity,
                        message=f"{class_qname}.{target.attr} holds {reason} but "
                        "the class is reachable from session state "
                        f"({', '.join(roots)}) and defines no __getstate__",
                        hint=info.hint,
                    ))
    return findings


def _unpicklable_reason(
    value: ast.expr,
    local_defs: Set[str],
    imports: Dict[str, Tuple[str, ...]],
) -> Optional[str]:
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Name) and value.id in local_defs:
        return f"the local function {value.id}()"
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        if not chain:
            return None
        if tuple(chain) == ("open",):
            return "an open file handle"
        origin = ".".join(imports.get(chain[0], (chain[0],)) + tuple(chain[1:]))
        if origin in _UNPICKLABLE_ORIGINS:
            return f"a {origin}()"
        if origin in ("io.open", "pathlib.Path.open"):
            return "an open file handle"
    return None


def reachable_classes(project: Project, roots: Sequence[str]) -> Set[str]:
    """Classes reachable from *roots* via attribute-type edges."""
    seen: Set[str] = set()
    stack: List[str] = [root for root in roots if root in project.classes]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for cls in project.mro(current):
            seen.add(cls)
            for attr in sorted(project.classes[cls].attr_type_names):
                for candidate in project.attr_types(cls, attr):
                    if candidate not in seen:
                        stack.append(candidate)
    return seen
