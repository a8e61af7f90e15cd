"""Equal_efficiency (Nguyen, Zahorjan, Vaswani; JSSPP 1996).

The policy "allocates more processors to those applications that have
the best efficiency using extrapolated values": every application's
measured efficiency at its current allocation is extrapolated to other
allocations with a one-parameter overhead model, and processors are
then handed out greedily so that all applications end up on (roughly)
the same efficiency frontier.

The extrapolation model is the standard execution-signature form

    eff(p) = 1 / (1 + a * (p - 1))

where ``a`` is fitted from the latest report.  The paper's two
criticisms of Equal_efficiency are emergent properties of this
construction and are reproduced faithfully:

* it is "too sensitive to small changes in the efficiency
  measurements" — every noisy report refits ``a`` and can reshuffle
  the whole machine, producing many reallocations;
* superlinear applications (measured efficiency > 1) extrapolate to
  ever-growing efficiency, so the policy hands them their full
  request, and the fitted parameter's jitter makes the allocation
  "unfair" between identical instances.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Dict

from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SchedulingPolicy, SystemView
from repro.runtime.selfanalyzer import PerformanceReport

#: Efficiency predictions are clamped to this ceiling so that a
#: negative fitted overhead (superlinear measurement) cannot produce
#: unbounded or negative extrapolations.
MAX_PREDICTED_EFFICIENCY = 2.5
#: at or below this denominator a prediction clamps to the ceiling
_MIN_DENOMINATOR = 1.0 / MAX_PREDICTED_EFFICIENCY


def fit_overhead(procs: int, efficiency: float) -> float:
    """Fit the overhead parameter ``a`` from one (procs, eff) sample."""
    if procs <= 1:
        return 0.0
    # NaN fails every comparison, so ``efficiency <= 0`` alone would
    # let it through as a NaN overhead.
    if not math.isfinite(efficiency) or efficiency <= 0:
        raise ValueError(
            f"efficiency must be positive and finite, got {efficiency}"
        )
    return (1.0 / efficiency - 1.0) / (procs - 1)


def predicted_efficiency(a: float, procs: int) -> float:
    """Extrapolated efficiency at *procs* for overhead parameter *a*."""
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    denominator = 1.0 + a * (procs - 1)
    if denominator <= _MIN_DENOMINATOR:
        return MAX_PREDICTED_EFFICIENCY
    return min(1.0 / denominator, MAX_PREDICTED_EFFICIENCY)


def water_fill(
    total_cpus: int, requests: Dict[int, int], overheads: Dict[int, float]
) -> Dict[int, int]:
    """Greedy marginal-efficiency allocation.

    Every job starts at one CPU; each remaining CPU goes to the job
    whose *next* CPU has the highest extrapolated efficiency, until
    CPUs run out or all jobs reach their requests.  Ties break on job
    id for determinism: the smaller id wins.  A job whose next CPU
    does not extrapolate to a positive efficiency gets no more CPUs.
    """
    if total_cpus < len(requests):
        raise ValueError(
            f"cannot give {len(requests)} jobs >= 1 CPU with {total_cpus} CPUs"
        )
    allocation = {jid: 1 for jid in requests}
    remaining = total_cpus - len(requests)
    if remaining <= 0:
        return allocation
    # A min-heap of (-next efficiency, jid) holds the greedy's
    # candidates, so its top is the job a scan over all of them would
    # pick.  A job's next efficiency changes only when it is granted a
    # CPU, so it is evaluated once per grant, never as a full column.
    heap = []
    for jid, request in requests.items():
        if request >= 2:
            a = overheads.get(jid, 0.0)
            eff = predicted_efficiency(a, 2)
            if eff > 0.0:
                heap.append((-eff, jid, a, request))
    heapify(heap)
    while heap:
        _, jid, a, request = heappop(heap)
        # The popped job keeps its CPUs coming while it beats the
        # runner-up: a strictly higher efficiency, or an equal one and
        # a smaller id.  With no runner-up, any positive efficiency
        # wins, as the scan's best-so-far starts at zero.
        if heap:
            top_eff = -heap[0][0]
            top_jid = heap[0][1]
        else:
            top_eff = 0.0
            top_jid = jid
        procs = allocation[jid] + 1
        remaining -= 1
        while procs < request and remaining:
            # predicted_efficiency(a, procs + 1), inlined: the same
            # float expression, with its min() clamp spelled as a branch
            denominator = 1.0 + a * procs
            if denominator <= _MIN_DENOMINATOR:
                eff = MAX_PREDICTED_EFFICIENCY
            else:
                eff = 1.0 / denominator
                if eff > MAX_PREDICTED_EFFICIENCY:
                    eff = MAX_PREDICTED_EFFICIENCY
            if eff > top_eff or (eff == top_eff and jid < top_jid):
                procs += 1
                remaining -= 1
            else:
                if eff > 0.0:
                    heappush(heap, (-eff, jid, a, request))
                break
        allocation[jid] = procs
        if not remaining:
            break
    return allocation


class EqualEfficiency(SchedulingPolicy):
    """Extrapolated-efficiency allocation, refit on every report."""

    name = "Equal_eff"
    #: the overhead fit is driven by SelfAnalyzer reports
    uses_reports = True

    def __init__(self, mpl: int = 4) -> None:
        if mpl < 1:
            raise ValueError(f"multiprogramming level must be >= 1, got {mpl}")
        self.fixed_mpl = mpl
        #: fitted overhead parameter per job (0.0 = optimistic linear)
        self._overheads: Dict[int, float] = {}

    def _rebalance(self, system: SystemView, extra: Dict[int, int]) -> AllocationDecision:
        requests = {view.job_id: view.request for view in system.jobs.values()}
        requests.update(extra)
        return water_fill(system.total_cpus, requests, self._overheads)

    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        assert job.request is not None
        # A job with no measurements yet extrapolates as perfectly
        # scalable (a = 0), the optimistic default.
        self._overheads.setdefault(job.job_id, 0.0)
        return self._rebalance(system, {job.job_id: job.request})

    def on_job_completion(self, job: Job, system: SystemView) -> AllocationDecision:
        return self._rebalance(system, {})

    def on_report(
        self, job: Job, report: PerformanceReport, system: SystemView
    ) -> AllocationDecision:
        self._overheads[job.job_id] = fit_overhead(report.procs, report.efficiency)
        return self._rebalance(system, {})

    def on_job_removed(self, job: Job) -> None:
        self._overheads.pop(job.job_id, None)

    def overhead_of(self, job_id: int) -> float:
        """Fitted overhead parameter for one job (diagnostics)."""
        return self._overheads.get(job_id, 0.0)
