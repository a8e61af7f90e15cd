"""Unit tests for the discrete-event engine."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzz.profiles import tier_settings
from repro.sim.engine import Event, EventQueue, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        seen = []
        sim.schedule_at(2.0, seen.append, "b")
        sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_uses_priority_then_insertion_order(self, sim):
        seen = []
        sim.schedule_at(1.0, seen.append, "normal1")
        sim.schedule_at(1.0, seen.append, "early", priority=Simulator.PRIORITY_EARLY)
        sim.schedule_at(1.0, seen.append, "normal2")
        sim.schedule_at(1.0, seen.append, "late", priority=Simulator.PRIORITY_LATE)
        sim.run()
        assert seen == ["early", "normal1", "normal2", "late"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule_at(5.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.5]
        assert sim.now == 5.5

    def test_schedule_after_is_relative(self, sim):
        seen = []
        sim.schedule_at(10.0, lambda: sim.schedule_after(2.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [12.5]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda: None)

    def test_events_created_during_run_execute(self, sim):
        seen = []
        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule_after(1.0, chain, n + 1)
        sim.schedule_at(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_args_are_passed_through(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule_at(1.0, seen.append, "no")
        sim.schedule_at(2.0, seen.append, "yes")
        sim.cancel(event)
        sim.run()
        assert seen == ["yes"]

    def test_double_cancel_is_harmless(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()
        assert sim.pending_events == 0

    def test_pending_events_counts_live_only(self, sim):
        e1 = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(e1)
        assert sim.pending_events == 1


class TestCancelAfterFire:
    def test_cancel_after_fire_is_noop(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert event.fired
        sim.cancel(event)  # must not decrement the live count
        assert sim.pending_events == 0
        assert not event.cancelled

    def test_cancel_own_event_inside_callback(self, sim):
        seen = []
        holder = {}

        def fire():
            seen.append("fired")
            sim.cancel(holder["event"])  # cancelling the running event

        holder["event"] = sim.schedule_at(1.0, fire)
        sim.schedule_at(2.0, seen.append, "later")
        sim.run()
        assert seen == ["fired", "later"]

    def test_repeated_cancel_after_fire_keeps_count_consistent(self, sim):
        events = [sim.schedule_at(float(t), lambda: None) for t in range(1, 4)]
        sim.run()
        for event in events:
            sim.cancel(event)
            sim.cancel(event)
        assert sim.pending_events == 0
        # The queue must still be usable afterwards.
        seen = []
        sim.schedule_at(5.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]

    def test_bare_event_cancel_after_fire_is_noop(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert not event.cancelled

    def test_live_count_negative_raises(self):
        q = EventQueue()
        q.push(Event(1.0, 0, 0, lambda: None, (), "t"))
        q.note_cancelled()
        with pytest.raises(SimulationError, match="negative"):
            q.note_cancelled()


class TestLazyDeletionInterleavings:
    def _event(self, time, seq=0):
        return Event(time, 0, seq, lambda: None, (), "t")

    def test_cancel_peek_pop_interleaving(self):
        q = EventQueue()
        events = [self._event(float(t), seq=t) for t in range(6)]
        for event in events:
            q.push(event)
        q.cancel(events[0])
        assert q.peek() is events[1]
        q.cancel(events[2])
        popped = q.pop()
        assert popped is events[1]
        assert q.peek_time() == 3.0
        q.cancel(events[4])
        assert [q.pop().time for _ in range(2)] == [3.0, 5.0]
        assert q.pop() is None
        assert len(q) == 0

    def test_mixed_bare_and_queue_cancel(self):
        q = EventQueue()
        events = [self._event(float(t), seq=t) for t in range(4)]
        for event in events:
            q.push(event)
        # Legacy path: bare cancel + note_cancelled credit.
        events[0].cancel()
        q.note_cancelled()
        # Modern path on another event.
        q.cancel(events[1])
        assert len(q) == 2
        assert q.pop() is events[2]
        assert q.pop() is events[3]
        assert q.pop() is None
        assert len(q) == 0

    def test_cancel_then_queue_cancel_counts_once(self):
        q = EventQueue()
        event = self._event(1.0)
        q.push(event)
        q.push(self._event(2.0, seq=1))
        event.cancel()          # bare, unaccounted
        assert not q.cancel(event)  # queue cancel must refuse a second count
        q.note_cancelled()      # legacy credit for the bare cancel
        assert len(q) == 1
        assert q.pop().time == 2.0
        assert len(q) == 0

    def test_pop_before_horizon_leaves_later_events(self):
        q = EventQueue()
        q.push(self._event(1.0, seq=0))
        q.push(self._event(5.0, seq=1))
        assert q.pop_before(2.0).time == 1.0
        assert q.pop_before(2.0) is None
        assert len(q) == 1
        assert q.pop_before(5.0).time == 5.0

    def test_popped_event_is_marked_fired(self):
        q = EventQueue()
        event = self._event(1.0)
        q.push(event)
        assert q.pop() is event
        assert event.fired
        assert not q.cancel(event)


class TestRunUntilEdgeCases:
    def test_horizon_exactly_on_event_time_fires_event(self, sim):
        seen = []
        sim.schedule_at(3.0, seen.append, "on-horizon")
        sim.schedule_at(3.5, seen.append, "after")
        end = sim.run(until=3.0)
        assert seen == ["on-horizon"]
        assert end == 3.0

    def test_stop_in_callback_with_pending_horizon(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule_at(2.0, seen.append, "b")
        end = sim.run(until=10.0)
        # stop() wins: the clock must not jump to the horizon, and the
        # later event stays queued.
        assert seen == ["a"]
        assert end == 1.0
        assert sim.pending_events == 1
        sim.run()
        assert seen == ["a", "b"]

    def test_until_with_empty_queue_advances_clock(self, sim):
        assert sim.run(until=7.5) == 7.5
        assert sim.now == 7.5

    def test_max_events_message_names_the_limit(self, sim):
        def forever():
            sim.schedule_after(0.1, forever)
        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="max_events=7"):
            sim.run(max_events=7)


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(5.0, seen.append, "b")
        end = sim.run(until=3.0)
        assert seen == ["a"]
        assert end == 3.0
        sim.run()
        assert seen == ["a", "b"]

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.schedule_at(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0

    def test_stop_halts_processing(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule_at(2.0, seen.append, "b")
        sim.run()
        assert seen[0] == "a"
        assert "b" not in seen

    def test_max_events_guards_runaway_schedules(self, sim):
        def forever():
            sim.schedule_after(0.1, forever)
        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_simulator_is_not_reentrant(self, sim):
        def nested():
            sim.run()
        sim.schedule_at(1.0, nested)
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    def test_events_fired_counter(self, sim):
        for t in range(5):
            sim.schedule_at(float(t), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestEventQueue:
    def _event(self, time, priority=0, seq=0):
        return Event(time, priority, seq, lambda: None, (), "t")

    def test_pop_returns_earliest(self):
        q = EventQueue()
        q.push(self._event(2.0, seq=1))
        q.push(self._event(1.0, seq=2))
        popped = q.pop()
        assert popped is not None and popped.time == 1.0

    def test_pop_skips_cancelled(self):
        q = EventQueue()
        early = self._event(1.0, seq=1)
        q.push(early)
        q.push(self._event(2.0, seq=2))
        early.cancel()
        q.note_cancelled()
        popped = q.pop()
        assert popped is not None and popped.time == 2.0

    def test_peek_time_ignores_cancelled(self):
        q = EventQueue()
        early = self._event(1.0, seq=1)
        q.push(early)
        q.push(self._event(3.0, seq=2))
        early.cancel()
        q.note_cancelled()
        assert q.peek_time() == 3.0

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q


class TestCompaction:
    def _event(self, time, seq):
        return Event(time, 0, seq, lambda: None, (), "t")

    def _fill(self, q, n, start_seq=0):
        events = [self._event(float(i), start_seq + i) for i in range(n)]
        for event in events:
            q.push(event)
        return events

    def test_compact_drops_cancelled_keeps_order(self):
        q = EventQueue()
        events = self._fill(q, 10)
        for event in events[::2]:
            q.cancel(event)
        q.compact()
        assert len(q._heap) == 5
        assert len(q) == 5
        assert [q.pop().time for _ in range(5)] == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_compact_on_clean_heap_is_noop(self):
        q = EventQueue()
        self._fill(q, 10)
        heap_before = list(q._heap)
        q.compact()
        assert q._heap == heap_before

    def test_cancel_below_threshold_does_not_compact(self):
        q = EventQueue()
        events = self._fill(q, 32)
        for event in events[:20]:
            q.cancel(event)
        # dead fraction is high but the heap is under _COMPACT_MIN_HEAP
        assert len(q._heap) == 32
        assert len(q) == 12

    def test_cancel_past_threshold_compacts_automatically(self):
        q = EventQueue()
        events = self._fill(q, 80)
        # cancel until live*2 < heap size: 41 cancels leaves 39 live
        for event in events[:41]:
            q.cancel(event)
        assert len(q._heap) == 39
        assert len(q) == 39

    def test_note_cancelled_path_also_triggers_compaction(self):
        q = EventQueue()
        events = self._fill(q, 80)
        for event in events[:41]:
            event.cancel()      # behind the queue's back
            q.note_cancelled()  # pre-paid credit
        assert len(q._heap) == 39
        assert q._noted_pending == 0  # credits consumed by the compaction
        assert len(q) == 39

    def test_unnoted_bare_cancels_defer_to_lazy_deletion(self):
        q = EventQueue()
        events = self._fill(q, 10)
        for event in events[:4]:
            event.cancel()  # no note_cancelled: _live is stale
        # All cancels unaccounted: the fast path sees a clean heap and
        # leaves reconciliation to the lazy purge on the next pop.
        q.compact()
        assert len(q._heap) == 10
        popped = q.pop()
        assert popped is not None and popped.seq == 4
        assert len(q) == 5

    def test_compact_handles_unnoted_bare_cancels(self):
        q = EventQueue()
        events = self._fill(q, 10)
        q.cancel(events[9])  # one accounted cancel makes _live diverge
        for event in events[:4]:
            event.cancel()  # no note_cancelled: _live is stale
        q.compact()
        assert len(q._heap) == 5
        assert len(q) == 5

    def test_compact_mixed_noted_and_unnoted_cancels(self):
        q = EventQueue()
        events = self._fill(q, 12)
        q.cancel(events[0])
        events[1].cancel()
        q.note_cancelled()
        events[2].cancel()  # unnoted
        q.compact()
        assert len(q._heap) == 9
        assert len(q) == 9
        assert q._noted_pending == 0

    def test_pop_order_identical_with_and_without_compaction(self):
        def build():
            q = EventQueue()
            events = self._fill(q, 50)
            for event in events[7:40:3]:
                q.cancel(event)
            return q

        plain, compacted = build(), build()
        compacted.compact()
        order = lambda q: [e.seq for e in iter(q.pop, None)]
        assert order(compacted) == order(plain)

    def test_compact_detects_broken_live_invariant(self):
        q = EventQueue()
        self._fill(q, 10)
        q._live = 7  # corrupt the bookkeeping behind the queue's back
        with pytest.raises(SimulationError, match="live invariant"):
            q.compact()

    def test_simulator_compact_preserves_run(self, sim):
        seen = []
        for t in range(8):
            sim.schedule_at(float(t), seen.append, t)
        doomed = [sim.schedule_at(float(t) + 0.5, seen.append, -t)
                  for t in range(8)]
        for event in doomed:
            sim.cancel(event)
        sim.compact()
        assert sim.pending_events == 8
        sim.run()
        assert seen == list(range(8))


class TestCheckpointHook:
    def test_hook_fires_on_event_cadence(self, sim):
        ticks = []
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.set_checkpoint_hook(
            lambda: ticks.append(sim.events_fired), every_events=3
        )
        sim.run()
        assert ticks == [3, 6, 9]

    def test_hook_fires_on_sim_time_cadence(self, sim):
        ticks = []
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.set_checkpoint_hook(lambda: ticks.append(sim.now),
                                every_sim_seconds=4.0)
        sim.run()
        assert ticks == [4.0, 8.0]

    def test_hook_requires_a_cadence(self, sim):
        with pytest.raises(SimulationError, match="every_events"):
            sim.set_checkpoint_hook(lambda: None)

    def test_clear_hook_stops_firing(self, sim):
        ticks = []
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.set_checkpoint_hook(lambda: ticks.append(1), every_events=2)
        sim.run(until=4.0)
        sim.clear_checkpoint_hook()
        sim.run()
        assert len(ticks) == 2


# ----------------------------------------------------------------------
# differential check: the heap against a sorted model of live events
# ----------------------------------------------------------------------
#: few distinct times and priorities, so exact ties are common
_times = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_priorities = st.sampled_from([Simulator.PRIORITY_EARLY, Simulator.PRIORITY_NORMAL,
                               Simulator.PRIORITY_LATE])
_pick = st.integers(min_value=0, max_value=10_000)
_queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.tuples(_times, _priorities)),
        # a burst large enough to cross the automatic-compaction threshold
        st.tuples(st.just("push_many"), st.lists(st.tuples(_times, _priorities),
                                                 min_size=30, max_size=70)),
        st.tuples(st.just("cancel"), _pick),
        st.tuples(st.just("cancel_half"), _pick),
        st.tuples(st.just("bare_cancel"), _pick),
        st.tuples(st.just("bare_cancel_noted"), _pick),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("pickle"), st.just(0)),
    ),
    max_size=60,
)


@tier_settings("standard")
@given(ops=_queue_ops)
def test_event_queue_pops_in_sort_key_order(ops):
    """Pops follow ``sorted(live, key=Event.sort_key)`` under every mix
    of ties, the three cancel paths, compaction and a pickle round trip."""
    q = EventQueue()
    live = {}    # seq -> the queue's Event object, for live events only
    seq = 0

    def push(time, priority):
        nonlocal seq
        event = Event(time, priority, seq, int, (), f"e{seq}")
        q.push(event)
        live[seq] = event
        seq += 1

    def pick(index):
        return sorted(live)[index % len(live)]

    def expect_pop():
        expected = min(live.values(), key=Event.sort_key) if live else None
        popped = q.pop()
        if expected is None:
            assert popped is None
        else:
            assert popped is expected
            del live[popped.seq]

    for op, arg in ops:
        if op == "push":
            push(*arg)
        elif op == "push_many":
            for time, priority in arg:
                push(time, priority)
        elif op == "pop":
            expect_pop()
        elif op == "compact":
            q.compact()
        elif op == "pickle":
            q = pickle.loads(pickle.dumps(q))
            by_seq = {entry[3].seq: entry[3] for entry in q._heap}
            live = {s: by_seq[s] for s in live}
        elif live:
            if op == "cancel":
                assert q.cancel(live.pop(pick(arg)))
            elif op == "cancel_half":
                for victim in sorted(live)[arg % 2::2]:
                    assert q.cancel(live.pop(victim))
            elif op == "bare_cancel":
                live.pop(pick(arg)).cancel()
            else:  # bare_cancel_noted
                live.pop(pick(arg)).cancel()
                q.note_cancelled()
    expected = sorted(live.values(), key=Event.sort_key)
    assert list(iter(q.pop, None)) == expected
    assert len(q) == 0
