"""Tests for the determinism sanitizer: linter, rules, race detector.

The static layer is exercised against ``tests/analysis_fixtures/``:
each fixture file plants violations for one rule and marks every
expected finding line with ``# EXPECT: DETxxx``.  The runtime layer is
exercised on raw simulators (seeded ambiguous cohorts) and on real
workload runs (the observe-don't-perturb byte-identity guard).
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    Linter,
    RaceDetector,
    RaceStats,
    lint_paths,
    render_json,
    render_text,
    sort_findings,
)
from repro.analysis.config import _parse_minitoml_table, load_config
from repro.analysis.race import RaceFinding
from repro.experiments.clock import FakeClock, ReportClock
from repro.experiments.common import ExperimentConfig, run_workload
from repro.sim.engine import Simulator
from repro.validate import validate_race, validate_run, validate_sweep

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).parent.parent

#: Fixture config: the fixture directory counts as simulation code so
#: the sim-only rules (DET106/DET110) fire there.
FIXTURE_CONFIG = AnalysisConfig(sim_paths=("analysis_fixtures/",))

_EXPECT = re.compile(r"#\s*EXPECT:\s*(DET\d{3})")


def expected_findings(path: Path):
    """``{(line, rule)}`` parsed from the fixture's EXPECT markers."""
    expected = set()
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        for rule in _EXPECT.findall(line):
            expected.add((line_no, rule))
    return expected


class TestFixtureRules:
    """Every seeded violation is found; nothing else fires."""

    @pytest.mark.parametrize("name", sorted(
        p.name for p in FIXTURES.glob("det1*.py")
    ))
    def test_fixture_matches_expect_markers(self, name):
        path = FIXTURES / name
        expected = expected_findings(path)
        assert expected, f"fixture {name} has no EXPECT markers"
        findings = Linter(FIXTURE_CONFIG).lint_file(path)
        found = {(f.line, f.rule) for f in findings}
        assert found == expected

    def test_clean_fixture_has_no_findings(self):
        assert Linter(FIXTURE_CONFIG).lint_file(FIXTURES / "clean.py") == []

    def test_every_rule_has_a_fixture(self):
        from repro.analysis.rules import ALL_RULES

        covered = set()
        for path in sorted(FIXTURES.glob("det1*.py")):
            covered.update(rule for _, rule in expected_findings(path))
        testable = {r.id for r in ALL_RULES} - {"DET100"}  # DET100: suppressed_bad.py
        assert testable <= covered

    def test_findings_carry_severity_and_hint(self):
        findings = Linter(FIXTURE_CONFIG).lint_file(FIXTURES / "det101_wallclock.py")
        for finding in findings:
            assert finding.severity == "error"
            assert finding.hint


class TestSuppressions:
    def test_justified_suppressions_silence_findings(self):
        findings = Linter(FIXTURE_CONFIG).lint_file(FIXTURES / "suppressed_ok.py")
        assert findings == []

    def test_malformed_suppressions_are_det100_and_do_not_suppress(self):
        findings = Linter(FIXTURE_CONFIG).lint_file(FIXTURES / "suppressed_bad.py")
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        # one DET100 per malformed comment: bare, unknown rule, unparsable
        assert len(by_rule["DET100"]) == 3
        # and the underlying DET102 findings still fire
        assert len(by_rule["DET102"]) == 3

    @pytest.mark.parametrize("rule", [f"CONC{n}" for n in (301, 302)])
    def test_retired_rule_suppression_is_det100(self, rule):
        # the LP-boundary rules left the catalog with the LP cut; an
        # allow comment still naming one must surface, not linger
        text = (
            "def send(sim):\n"
            f"    # repro: allow({rule}): event-channel send\n"
            "    sim.schedule_at(1.0, print)\n"
        )
        findings = Linter(FIXTURE_CONFIG).lint_text(text, "sample.py")
        assert [(f.line, f.rule) for f in findings] == [(2, "DET100")]
        assert rule in findings[0].message

    def test_suppression_in_string_literal_is_ignored(self):
        text = 'HINT = "use # repro: allow(DET101): reason"\n'
        assert Linter(FIXTURE_CONFIG).lint_text(text, "sample.py") == []


class TestSelfClean:
    def test_repro_source_tree_is_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src" / "repro")])
        assert findings == [], render_text(findings)

    def test_fixture_directory_is_excluded_from_normal_runs(self):
        config = load_config(str(REPO_ROOT / "src"))
        assert config.is_excluded("tests/analysis_fixtures/det101_wallclock.py")


class TestConfig:
    def test_minitoml_parser_reads_the_analysis_table(self):
        text = (
            "[tool.other]\nx = 1\n"
            "[tool.repro.analysis]\n"
            'select = ["DET101", "DET105"]\n'
            "sim-paths = [\n    \"repro/sim/\",\n    \"repro/core/\",\n]\n"
            'wallclock-allow = ["repro/experiments/clock.py"]\n'
            "[tool.after]\ny = 2\n"
        )
        table = _parse_minitoml_table(text, "tool.repro.analysis")
        assert table["select"] == ["DET101", "DET105"]
        assert table["sim-paths"] == ["repro/sim/", "repro/core/"]
        assert table["wallclock-allow"] == ["repro/experiments/clock.py"]

    def test_pyproject_config_is_discovered(self):
        config = load_config(str(REPO_ROOT / "src" / "repro"))
        assert config.source is not None
        assert "repro/experiments/clock.py" in config.wallclock_allow
        assert config.is_sim_path("src/repro/sim/engine.py")
        assert not config.is_sim_path("src/repro/experiments/report.py")

    def test_select_and_ignore_scope_the_rule_set(self):
        only = Linter(AnalysisConfig(select=("DET101",)))
        assert [r.id for r in only.rules] == ["DET101"]
        without = Linter(AnalysisConfig(ignore=("DET109",)))
        assert "DET109" not in [r.id for r in without.rules]

    def test_wallclock_allowlist_silences_clock_rules(self):
        text = "import time\nstamp = time.time()\n"
        allowed = AnalysisConfig(wallclock_allow=("special/clock.py",))
        assert Linter(allowed).lint_text(text, "special/clock.py") == []
        assert Linter(allowed).lint_text(text, "other/module.py") != []


class TestOutputFormats:
    def _findings(self):
        linter = Linter(FIXTURE_CONFIG)
        findings = []
        for name in ("det109_fs_order.py", "det101_wallclock.py"):
            findings.extend(linter.lint_file(FIXTURES / name))
        return findings

    def test_json_is_sorted_by_path_line_rule(self):
        payload = json.loads(render_json(self._findings()))
        keys = [(f["path"], f["line"], f["rule"], f["column"]) for f in payload]
        assert keys == sorted(keys)

    def test_json_is_byte_stable(self):
        findings = self._findings()
        assert render_json(findings) == render_json(list(reversed(findings)))

    def test_text_render_mentions_rule_and_location(self):
        findings = sort_findings(self._findings())
        text = render_text(findings)
        first = findings[0]
        assert f"{first.path}:{first.line}" in text
        assert first.rule in text

    def test_empty_report_says_clean(self):
        assert "clean" in render_text([])

    def test_syntax_error_becomes_det000(self):
        findings = Linter(FIXTURE_CONFIG).lint_text("def broken(:\n", "bad.py")
        assert [f.rule for f in findings] == ["DET000"]


class TestRaceDetector:
    def test_ambiguous_cohort_is_an_error(self):
        sim = Simulator()
        detector = RaceDetector()
        detector.begin_run("ambiguous")
        sim.attach_observer(detector)

        def advance():
            pass

        def report():
            pass

        sim.schedule_at(5.0, advance, label="advance")
        sim.schedule_at(5.0, report, label="report")
        sim.run()
        stats = detector.finish()
        assert stats.ambiguous == 1
        assert stats.ties == 0
        (finding,) = stats.error_findings
        assert finding.severity == "error"
        assert finding.time == 5.0
        assert "advance" in finding.describe()
        assert "report" in finding.describe()

    def test_homogeneous_tie_is_a_warning(self):
        sim = Simulator()
        detector = RaceDetector()
        detector.begin_run("tie")
        sim.attach_observer(detector)

        def iteration_end():
            pass

        sim.schedule_at(3.0, iteration_end)
        sim.schedule_at(3.0, iteration_end)
        sim.run()
        stats = detector.finish()
        assert stats.ambiguous == 0
        assert stats.ties == 1
        (finding,) = stats.findings
        assert finding.severity == "warning"

    def test_priority_separated_events_are_clean(self):
        sim = Simulator()
        detector = RaceDetector()
        detector.begin_run("ordered")
        sim.attach_observer(detector)
        sim.schedule_at(2.0, lambda: None, priority=Simulator.PRIORITY_EARLY)
        sim.schedule_at(2.0, lambda: None, priority=Simulator.PRIORITY_NORMAL)
        sim.schedule_at(2.0, lambda: None, priority=Simulator.PRIORITY_LATE)
        sim.run()
        stats = detector.finish()
        assert stats.cohorts == 1  # same timestamp…
        assert stats.ties == 0  # …but every priority group is a singleton
        assert stats.ambiguous == 0
        assert stats.findings == []

    def test_begin_run_separates_cohorts_across_simulations(self):
        detector = RaceDetector()
        for run in ("first", "second"):
            sim = Simulator()
            detector.begin_run(run)
            sim.attach_observer(detector)
            sim.schedule_at(1.0, lambda: None, label=run)
            sim.run()
        stats = detector.finish()
        # one event at t=1.0 in each run must NOT merge into a cohort
        assert stats.runs == 2
        assert stats.events == 2
        assert stats.cohorts == 0

    def test_summary_line_mirrors_sweep_stats_shape(self):
        stats = RaceStats(runs=2, events=100, cohorts=3, ties=1, ambiguous=1)
        line = stats.summary_line()
        assert "2 run(s)" in line
        assert "100 events" in line
        assert "1 ambiguous" in line

    def test_max_findings_caps_records_not_counters(self):
        sim = Simulator()
        detector = RaceDetector(max_findings=1)
        detector.begin_run("capped")
        sim.attach_observer(detector)
        for t in (1.0, 2.0):
            sim.schedule_at(t, lambda: None)
            sim.schedule_at(t, lambda: None)
        sim.run()
        stats = detector.finish()
        assert stats.ties == 2
        assert len(stats.findings) == 1


class TestEngineObserver:
    def test_observer_sees_every_fired_event(self):
        sim = Simulator()
        seen = []

        class Recorder:
            def on_event(self, event):
                seen.append((event.time, event.label))

        sim.attach_observer(Recorder())
        sim.schedule_at(1.0, lambda: None, label="a")
        sim.schedule_at(2.0, lambda: None, label="b")
        sim.run()
        assert seen == [(1.0, "a"), (2.0, "b")]

    def test_cancelled_events_are_not_observed(self):
        sim = Simulator()
        seen = []

        class Recorder:
            def on_event(self, event):
                seen.append(event.label)

        sim.attach_observer(Recorder())
        keep = sim.schedule_at(1.0, lambda: None, label="keep")
        drop = sim.schedule_at(1.0, lambda: None, label="drop")
        sim.cancel(drop)
        sim.run()
        assert seen == ["keep"]
        assert keep.fired

    def test_detach_restores_unobserved_behaviour(self):
        sim = Simulator()
        sim.attach_observer(object())  # would crash if consulted
        sim.detach_observer()
        sim.schedule_at(1.0, lambda: None)
        assert sim.run() == 1.0

    def test_observed_run_is_byte_identical_to_unobserved(self):
        def execute(observer):
            sim = Simulator()
            if observer is not None:
                sim.attach_observer(observer)
            seen = []
            sim.schedule_at(1.0, seen.append, "a")
            sim.schedule_at(1.0, seen.append, "b")
            sim.schedule_at(2.5, seen.append, "c")
            end = sim.run()
            return seen, end, sim.events_fired

        assert execute(None) == execute(RaceDetector())


class TestWorkloadSanitizer:
    def test_sanitized_run_matches_plain_run(self):
        from repro.parallel.cache import canonical

        config = ExperimentConfig(seed=0)
        plain = run_workload("Equip", "w1", 0.6, config)
        detector = RaceDetector()
        sanitized = run_workload("Equip", "w1", 0.6, config, sanitizer=detector)
        assert canonical(plain.result) == canonical(sanitized.result)
        stats = detector.finish()
        assert stats.runs == 1
        assert stats.events > 0

    def test_report_is_byte_identical_with_and_without_sanitizer(self):
        from repro.experiments.report import generate_report

        def build(sanitizer):
            return generate_report(
                config=ExperimentConfig(seed=0),
                seeds=(0,),
                include_ablations=False,
                clock=ReportClock(now=FakeClock()),
                sanitizer=sanitizer,
            )

        detector = RaceDetector()
        assert build(None) == build(detector)
        assert detector.finish().events > 0


class TestValidateIntegration:
    def _error_stats(self):
        stats = RaceStats(runs=1, events=10, cohorts=1, ambiguous=1)
        stats.findings.append(RaceFinding(
            run="w1", time=4.0, priority=100, severity="error",
            events=(("A.step", "advance"), ("B.report", "report")),
        ))
        return stats

    def test_validate_race_reports_ambiguous_cohorts(self):
        problems = validate_race(self._error_stats())
        assert len(problems) == 1
        assert "event race" in problems[0]
        assert "A.step" in problems[0]

    def test_validate_race_accepts_detector_none_and_warnings(self):
        assert validate_race(None) == []
        clean = RaceDetector()
        clean.begin_run("x")
        assert validate_race(clean) == []
        warn_only = RaceStats(ties=2)
        warn_only.findings.append(RaceFinding(
            run="", time=1.0, priority=100, severity="warning",
            events=(("A.step", ""), ("A.step", "")),
        ))
        assert validate_race(warn_only) == []

    def test_validate_run_appends_race_findings(self):
        config = ExperimentConfig(seed=0)
        out = run_workload("Equip", "w1", 0.6, config)
        assert validate_run(out) == []
        problems = validate_run(out, race=self._error_stats())
        assert len(problems) == 1
        assert "event race" in problems[0]

    def test_validate_sweep_footer_carries_race_findings(self):
        from repro.parallel import SweepStats

        class StubRunner:
            last_stats = SweepStats()
            cache = None
            journal = None

        problems = validate_sweep(StubRunner(), [], [], race=self._error_stats())
        assert len(problems) == 1
        assert problems[-1].startswith("event race")


class TestCli:
    def test_lint_reports_violations_and_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "hazard.py"
        target.write_text("import time\nstamp = time.time()\n")
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out
        assert "hazard.py:2" in out

    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "fine.py"
        target.write_text("VALUES = sorted({1, 2, 3})\n")
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_format_is_sorted_and_parseable(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "hazards.py"
        target.write_text(
            "import time\n"
            "b = time.time()\n"
            "a = time.monotonic()\n"
        )
        assert main(["lint", "--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload] == ["DET101", "DET102"]
        keys = [(f["path"], f["line"], f["rule"]) for f in payload]
        assert keys == sorted(keys)

    def test_sanitize_flag_reports_to_stderr_only(self, capsys):
        from repro.cli import main

        plain_code = main(["run", "Equip", "w1", "--load", "0.6"])
        plain = capsys.readouterr()
        sanitized_code = main(["--sanitize", "run", "Equip", "w1", "--load", "0.6"])
        sanitized = capsys.readouterr()
        assert plain_code == 0 and sanitized_code == 0
        # stdout byte-identical; the sanitizer speaks on stderr only
        assert sanitized.out == plain.out
        assert "[sanitize]" in sanitized.err
        assert "[sanitize]" not in plain.err

    def test_sanitize_on_sweep_shaped_command_prints_note(self, capsys):
        from repro.cli import main

        assert main(["--sanitize", "tables"]) == 0
        err = capsys.readouterr().err
        assert "not observed" in err


class TestReportClock:
    def test_fake_clock_makes_elapsed_deterministic(self):
        clock = ReportClock(now=FakeClock(step=2.0))
        clock.restart()
        assert clock.elapsed() == 2.0

    def test_real_clock_elapsed_is_non_negative_and_grows(self):
        clock = ReportClock()
        first = clock.elapsed()
        second = clock.elapsed()
        assert 0.0 <= first <= second
