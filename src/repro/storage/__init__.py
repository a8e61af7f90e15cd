"""Fault-injectable storage layer + crash-consistency torture harness.

Modules
-------
* :mod:`repro.storage.plan` — deterministic, seeded fault schedules
  (:class:`FailPlan` / :class:`FailRule`).
* :mod:`repro.storage.layer` — the IO primitives every durability
  protocol writes through (:class:`StorageLayer`), op tracing, and
  honest fsync-failure semantics.
* :mod:`repro.storage.journal` — the durable-log primitive
  (:class:`~repro.storage.journal.Journal`) that both write-ahead
  journals, serve arrivals and sweep cells, bind to their codec.
* :mod:`repro.storage.torture` — the crash-state enumerator: every
  distinct filesystem a traced run could leave behind.
* :mod:`repro.storage.protocols` — the protocol harnesses (one
  journal harness run once per codec, checkpoint, cache, status) and
  their recovery invariants, driven by ``repro torture``.

Only the plan and layer are re-exported here: the torture modules
import the protocol implementations, which in turn import this
package — keeping them out of ``__init__`` avoids the cycle and keeps
plain journal/cache/checkpoint imports cheap.
"""

from repro.storage.layer import (
    CrashPoint,
    JournalWriteError,
    OpTrace,
    StorageError,
    StorageHandle,
    StorageLayer,
    StorageOp,
    TraceMark,
    default_storage,
)
from repro.storage.plan import FAULT_KINDS, FAULT_OPS, FailPlan, FailRule

__all__ = [
    "CrashPoint",
    "FAULT_KINDS",
    "FAULT_OPS",
    "FailPlan",
    "FailRule",
    "JournalWriteError",
    "OpTrace",
    "StorageError",
    "StorageHandle",
    "StorageLayer",
    "StorageOp",
    "TraceMark",
    "default_storage",
]
