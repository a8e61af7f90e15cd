"""Deterministic count guard for the no-op report fast path.

A SelfAnalyzer report that moves neither an allocation nor a PDPA
automaton state cannot change the admission answer, so the resource
manager must not make the queuing system retry admission for it.  The
guard counts admission retries (outermost ``try_start`` calls; the
re-entrant ones a start makes are coalesced by the queuing system)
and bounds them by the events that can change admission.  It also
checks that the fast path still hands every delivered report to the
policy.  Under a fixed multiprogramming level no report can change the
admission answer at all, so no report retries admission.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Dict, Optional

import pytest

from repro.core.dynamic import DynamicTargetPDPA
from repro.core.pdpa import PDPA
from repro.core.states import AppState, PdpaJobState, evaluate_transition
from repro.experiments.ablations import FixedMplPDPA
from repro.experiments.common import (
    ExperimentConfig,
    build_session,
    run_jobs_with_policy,
)
from repro.faults.scenarios import build_scenario
from repro.qs.job import Job
from repro.qs.workload import TABLE1_MIXES, generate_workload
from repro.rm.base import NO_CHANGE, JobView, SystemView
from repro.rm.equal_efficiency import EqualEfficiency
from repro.rm.equipartition import Equipartition
from repro.rm.mccann import McCannDynamic
from repro.runtime.selfanalyzer import PerformanceReport
from repro.sim.rng import RandomStreams


def _jobs(config: ExperimentConfig, workload: str = "w3"):
    return generate_workload(
        TABLE1_MIXES[workload], 1.0,
        n_cpus=config.n_cpus, duration=config.duration,
        streams=RandomStreams(config.seed).spawn("workload"),
    )


@pytest.mark.parametrize("stable_eff", [None, 0.45, 0.8, 1.2])
@pytest.mark.parametrize("resource_limited", [False, True])
@pytest.mark.parametrize("stable_exits", [0, 4])
@pytest.mark.parametrize("free", [0, 12])
def test_stable_reports_match_the_full_evaluation(
    linear_app, stable_eff, resource_limited, stable_exits, free
) -> None:
    """Every STABLE report leaves the state the §4.2 rules would."""
    job = Job(1, linear_app, submit_time=0.0, request=30)
    system = SystemView(8 + free, {1: JobView(job=job, allocation=8)})
    for efficiency in (0.2, 0.45, 0.6, 0.7, 0.8, 0.95, 1.1, 1.4):
        policy = PDPA()
        state = PdpaJobState(
            1, 30, 8, AppState.STABLE, prev_allocation=6, prev_speedup=5.0,
            stable_eff=stable_eff, resource_limited=resource_limited,
            stable_exits=stable_exits, history=[(1.0, AppState.STABLE, 8)],
        )
        reference = copy.deepcopy(state)
        policy.job_states[1] = state
        report = PerformanceReport(1, 10.0, 5, 8, 8 * efficiency, 1.0)
        decision = policy.on_report(job, report, system)

        transition = evaluate_transition(reference, report.speedup, 8, policy.params, free)
        if transition.next_state is not AppState.STABLE:
            reference.stable_exits += 1
        reference.remember(10.0, transition.next_state, transition.next_allocation,
                           report.speedup, resource_limited=transition.resource_limited)
        if transition.next_state is AppState.STABLE and reference.stable_eff is not None:
            reference.stable_eff = max(reference.stable_eff, report.efficiency)
        assert state == reference, efficiency
        if transition.next_allocation != 8:
            assert decision == {1: transition.next_allocation}
        elif state.state is AppState.STABLE:
            assert decision is NO_CHANGE
        else:
            assert decision == {} and decision is not NO_CHANGE


@pytest.mark.parametrize("scenario", [None, "cpukill8"])
def test_admission_retries_are_bounded_by_admission_events(scenario: Optional[str]) -> None:
    config = ExperimentConfig(seed=0)
    if scenario is not None:
        config = config.with_faults(build_scenario(scenario, config.n_cpus))
    session = build_session("PDPA", _jobs(config), config, load=1.0, workload="w3")
    qs, rm = session.qs, session.rm
    policy = rm.policy
    counts = {"retries": 0, "depth": 0, "delivered": 0, "on_report": 0, "useful": 0}

    try_start = qs.try_start

    def counting_try_start() -> None:
        if counts["depth"] == 0:
            counts["retries"] += 1
        counts["depth"] += 1
        try:
            try_start()
        finally:
            counts["depth"] -= 1

    qs.try_start = counting_try_start
    rm.on_state_change = counting_try_start

    deliver_report = rm.deliver_report

    def counting_deliver(job, report):
        counts["delivered"] += 1
        deliver_report(job, report)

    rm.deliver_report = counting_deliver

    on_report = policy.on_report

    def counting_on_report(job, report, system):
        before = policy.job_states[job.job_id].state
        decision = on_report(job, report, system)
        counts["on_report"] += 1
        useful = bool(decision) or policy.job_states[job.job_id].state is not before
        counts["useful"] += useful
        # the sentinel is returned exactly for reports that moved nothing
        assert (decision is NO_CHANGE) is (not useful)
        return decision

    policy.on_report = counting_on_report

    session.run()
    trace = session.trace
    bound = (
        len(session.jobs)           # arrivals
        + len(qs.completed)         # completions
        + qs.requeue_count          # requeue arrivals
        + len(trace.faults)         # fault events of every kind
        + counts["useful"]          # reports that changed something
    )
    assert len(qs.completed) + len(qs.failed) == len(session.jobs)
    assert counts["on_report"] == counts["delivered"] > 10 * counts["useful"]
    assert counts["retries"] <= bound


def test_dynamic_target_history_is_unchanged() -> None:
    # DynamicTargetPDPA retargets inside wants_admission, so skipping
    # admission retries must not move its target trajectory.
    config = ExperimentConfig(seed=0)
    policy = DynamicTargetPDPA()
    run_jobs_with_policy(policy, _jobs(config), config, 1.0)
    history = repr(policy.target_history).encode()
    assert len(policy.target_history) == 58
    assert hashlib.sha256(history).hexdigest() == (
        "91904fdc853f7e0460bef7975f6c51c52fac9ca5e64f0e58dfc3eb29f6aff1c0"
    )


def _report_retries(policy, workload: str) -> Dict[str, int]:
    """Run *policy* on *workload*; count reports and the admission
    retries reached from inside ``deliver_report``.

    After every report it also checks that the queue is empty or the
    RM refuses the head job: a retry at that point, made or skipped,
    starts nothing.
    """
    config = ExperimentConfig(seed=0)
    session = build_session("Equip", _jobs(config, workload), config, load=1.0)
    qs, rm = session.qs, session.rm
    rm.policy = policy  # swapped in before the first arrival
    counts = {"reports": 0, "in_report": 0, "retries": 0}

    try_start = qs.try_start

    def watched_try_start() -> None:
        if counts["in_report"]:
            counts["retries"] += 1
        try_start()

    qs.try_start = watched_try_start
    rm.on_state_change = watched_try_start

    deliver_report = rm.deliver_report

    def watched_deliver(job, report) -> None:
        counts["reports"] += 1
        counts["in_report"] += 1
        try:
            deliver_report(job, report)
        finally:
            counts["in_report"] -= 1
        assert not qs.queue or not rm.can_admit(
            len(qs.queue), head_request=qs.queue[0].request
        )

    rm.deliver_report = watched_deliver
    session.run()
    assert len(qs.completed) == len(session.jobs)
    return counts


@pytest.mark.parametrize("workload", ["w1", "w2", "w3"])
@pytest.mark.parametrize("make_policy", [
    Equipartition, EqualEfficiency, McCannDynamic, FixedMplPDPA,
], ids=["Equip", "Equal_eff", "McCann", "FixedMplPDPA"])
def test_fixed_mpl_reports_never_retry_admission(make_policy, workload: str) -> None:
    policy = make_policy()
    assert policy.fixed_mpl is not None
    counts = _report_retries(policy, workload)
    assert counts["reports"] > 100
    assert counts["retries"] == 0


def test_pdpa_reports_still_retry_admission() -> None:
    # PDPA's admission rule reads the automaton states a report moves.
    counts = _report_retries(PDPA(), "w3")
    assert counts["reports"] > 100
    assert counts["retries"] > 0
