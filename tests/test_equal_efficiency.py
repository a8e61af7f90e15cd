"""Unit tests for the Equal_efficiency policy."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.profiles import tier_settings

from repro.qs.job import Job
from repro.rm.base import JobView, SystemView
from repro.rm.equal_efficiency import (
    MAX_PREDICTED_EFFICIENCY,
    EqualEfficiency,
    fit_overhead,
    predicted_efficiency,
    water_fill,
)
from repro.runtime.selfanalyzer import PerformanceReport


def _reference_water_fill(total_cpus, requests, overheads):
    """The column-and-scan water-fill that ``water_fill`` replaced.

    A frozen test oracle: every job's efficiency column at
    p = 2..request is built up front, then each spare CPU goes to the
    first job in id order with the strictly highest next efficiency.
    """
    if total_cpus < len(requests):
        raise ValueError(
            f"cannot give {len(requests)} jobs >= 1 CPU with {total_cpus} CPUs"
        )
    allocation = {jid: 1 for jid in requests}
    remaining = total_cpus - len(requests)
    if remaining <= 0:
        return allocation
    order = sorted(requests)
    eff_cols = {
        jid: [
            predicted_efficiency(overheads.get(jid, 0.0), p)
            for p in range(2, requests[jid] + 1)
        ]
        for jid in order
        if requests[jid] >= 2
    }
    while remaining > 0:
        best_jid = None
        best_eff = 0.0
        for jid in order:
            current = allocation[jid]
            if current >= requests[jid]:
                continue
            eff = eff_cols[jid][current - 1]
            if eff > best_eff:
                best_eff = eff
                best_jid = jid
        if best_jid is None:
            break
        allocation[best_jid] += 1
        remaining -= 1
    return allocation


@st.composite
def water_fill_cases(draw):
    """(total, requests, overheads) with unsorted ids and exact ties."""
    # list order is dict insertion order, so ids arrive unsorted
    ids = draw(st.lists(st.integers(0, 999), min_size=1, max_size=8,
                        unique=True))
    requests = {jid: draw(st.integers(1, 64)) for jid in ids}
    shared = draw(st.floats(-2.0, 0.5))
    overhead = st.one_of(
        st.just(0.0),
        st.just(shared),  # exact duplicates: efficiency ties
        st.sampled_from([1e-17, -1e-17, 1e308, math.inf]),
        st.floats(-2.0, 0.5),
    )
    overheads = {}
    for jid in ids:
        if draw(st.integers(0, 4)):  # else missing: the 0.0 default
            overheads[jid] = draw(overhead)
    total = draw(st.integers(len(requests), 192))
    return total, requests, overheads


def report(job_id, procs, speedup, time=10.0):
    return PerformanceReport(job_id=job_id, time=time, iteration=5,
                             procs=procs, speedup=speedup, iter_time=1.0)


def view_of(app, allocations, requests=None, total=60):
    jobs = {}
    for job_id, alloc in allocations.items():
        request = (requests or {}).get(job_id, 30)
        job = Job(job_id, app, submit_time=0.0, request=request)
        jobs[job_id] = JobView(job=job, allocation=alloc)
    return SystemView(total, jobs)


class TestOverheadModel:
    def test_fit_perfect_efficiency_gives_zero(self):
        assert fit_overhead(10, 1.0) == pytest.approx(0.0)

    def test_fit_single_processor_gives_zero(self):
        assert fit_overhead(1, 0.4) == 0.0

    def test_fit_roundtrips_through_prediction(self):
        a = fit_overhead(10, 0.7)
        assert predicted_efficiency(a, 10) == pytest.approx(0.7)

    def test_fit_rejects_nonpositive_efficiency(self):
        with pytest.raises(ValueError):
            fit_overhead(10, 0.0)

    @pytest.mark.parametrize("efficiency", [math.nan, math.inf, -math.inf])
    def test_fit_rejects_nonfinite_efficiency(self, efficiency):
        with pytest.raises(ValueError):
            fit_overhead(10, efficiency)

    def test_prediction_decreases_for_positive_overhead(self):
        a = fit_overhead(10, 0.7)
        assert predicted_efficiency(a, 20) < 0.7
        assert predicted_efficiency(a, 5) > 0.7

    def test_superlinear_prediction_clamped(self):
        a = fit_overhead(10, 1.4)  # negative overhead
        assert predicted_efficiency(a, 60) <= MAX_PREDICTED_EFFICIENCY

    def test_prediction_validation(self):
        with pytest.raises(ValueError):
            predicted_efficiency(0.0, 0)


class TestWaterFill:
    def test_equal_jobs_get_equal_allocations(self):
        alloc = water_fill(60, {1: 30, 2: 30}, {1: 0.02, 2: 0.02})
        assert alloc[1] == alloc[2] == 30

    def test_better_efficiency_wins_processors(self):
        alloc = water_fill(20, {1: 30, 2: 30}, {1: 0.01, 2: 0.3})
        assert alloc[1] > alloc[2]
        assert alloc[1] + alloc[2] == 20

    def test_caps_at_request(self):
        alloc = water_fill(60, {1: 2, 2: 30}, {1: 0.0, 2: 0.0})
        assert alloc[1] == 2

    def test_everyone_starts_with_one(self):
        alloc = water_fill(3, {1: 30, 2: 30, 3: 30}, {})
        assert all(v == 1 for v in alloc.values())

    def test_too_many_jobs_raises(self):
        with pytest.raises(ValueError):
            water_fill(1, {1: 5, 2: 5}, {})

    def test_request_of_one_gets_no_spare(self):
        assert water_fill(4, {7: 1}, {7: 0.05}) == {7: 1}

    def test_tie_gives_odd_spare_to_smaller_id(self):
        # three spare CPUs, two identical jobs: the odd one goes to id 2
        alloc = water_fill(5, {5: 30, 2: 30}, {5: 0.1, 2: 0.1})
        assert list(alloc.items()) == [(5, 2), (2, 3)]

    def test_rising_column_beside_falling_one(self):
        # A negative overhead extrapolates to *rising* efficiency: job
        # 2 keeps beating job 1 all the way to its request.
        requests = {1: 8, 2: 8}
        overheads = {1: 0.1, 2: -0.1}
        alloc = water_fill(10, requests, overheads)
        assert list(alloc.items()) == [(1, 2), (2, 8)]
        assert alloc == _reference_water_fill(10, requests, overheads)

    def test_zero_efficiency_stops_growth(self):
        # a * (p - 1) overflows to inf at p = 3: the extrapolated
        # efficiency is 0.0 and the job gets no third CPU.
        assert water_fill(10, {1: 8}, {1: 1e308}) == {1: 2}

    @tier_settings("standard")
    @given(case=water_fill_cases())
    def test_matches_column_scan_oracle(self, case):
        total, requests, overheads = case
        new = water_fill(total, requests, overheads)
        oracle = _reference_water_fill(total, requests, overheads)
        assert list(new.items()) == list(oracle.items())

    @tier_settings("standard")
    @given(
        total=st.integers(4, 64),
        jobs=st.dictionaries(
            st.integers(1, 12),
            st.tuples(st.integers(1, 40), st.floats(-0.05, 0.5)),
            min_size=1, max_size=6,
        ),
    )
    def test_conservation_and_bounds(self, total, jobs):
        requests = {jid: req for jid, (req, _) in jobs.items()}
        overheads = {jid: a for jid, (_, a) in jobs.items()}
        if total < len(requests):
            return
        alloc = water_fill(total, requests, overheads)
        assert sum(alloc.values()) <= total
        for jid in requests:
            assert 1 <= alloc[jid] <= max(1, requests[jid])


class TestPolicy:
    def test_new_job_extrapolates_optimistically(self, linear_app):
        # Contended machine: 40 CPUs, two 30-CPU requests.
        policy = EqualEfficiency()
        system = view_of(linear_app, {1: 30}, total=40)
        # Job 1 measured poor efficiency; the newcomer has none yet.
        policy._overheads[1] = fit_overhead(30, 0.3)
        new_job = Job(2, linear_app, submit_time=0.0, request=30)
        decision = policy.on_job_arrival(new_job, system)
        assert decision[2] > decision[1]

    def test_report_refits_and_rebalances(self, linear_app, flat_app):
        policy = EqualEfficiency()
        good = Job(1, linear_app, submit_time=0.0, request=30)
        bad = Job(2, flat_app, submit_time=0.0, request=30)
        system = SystemView(40, {
            1: JobView(job=good, allocation=20),
            2: JobView(job=bad, allocation=20),
        })
        policy.on_job_arrival(good, view_of(linear_app, {}, total=40))
        policy.on_job_arrival(bad, view_of(linear_app, {1: 30}, total=40))
        decision = policy.on_report(bad, report(2, 20, speedup=1.5), system)
        # The poorly scaling job is cut back hard.
        assert decision[2] < decision[1]

    def test_noise_shuffles_allocations(self, linear_app):
        # The paper's critique: small efficiency changes reshuffle the
        # machine.  Two same-shape jobs with slightly different noisy
        # measurements end up with different allocations.
        policy = EqualEfficiency()
        j1 = Job(1, linear_app, submit_time=0.0, request=30)
        j2 = Job(2, linear_app, submit_time=0.0, request=30)
        system = SystemView(40, {
            1: JobView(job=j1, allocation=20),
            2: JobView(job=j2, allocation=20),
        })
        policy.on_report(j1, report(1, 20, speedup=20 * 0.82), system)
        decision = policy.on_report(j2, report(2, 20, speedup=20 * 0.78), system)
        assert decision[1] != decision[2]

    def test_completion_cleans_state(self, linear_app):
        policy = EqualEfficiency()
        job = Job(1, linear_app, submit_time=0.0)
        policy._overheads[1] = 0.5
        policy.on_job_removed(job)
        assert policy.overhead_of(1) == 0.0

    def test_mpl_validation(self):
        with pytest.raises(ValueError):
            EqualEfficiency(mpl=0)
