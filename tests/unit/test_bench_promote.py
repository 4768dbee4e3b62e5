"""The ``repro bench promote`` guard: consent, provenance, atomicity.

Committed ``BENCH_*.json`` baselines historically drifted by hand-edit;
:mod:`repro.bench` makes promotion the only path and these tests pin
every refusal the guard promises — no consent env, no provenance block,
dishonest round counts, measurements taken on a saturated machine — plus
the all-or-nothing and atomic-replace behaviours.
"""

import json

import pytest

from repro.bench import (
    LOAD_FACTOR,
    PROMOTE_ENV,
    PromoteError,
    bench_scratch_dir,
    promote,
    validate_report,
)

CONSENT = {PROMOTE_ENV: "1"}


def good_report(**run_overrides) -> dict:
    run = {"rounds": 5, "load_avg_1m": 0.2, "cpu_count": 8,
           "simulation_mode": "kernel-c", "promoted": False}
    run.update(run_overrides)
    return {"suite": "io", "results": {"journal_append_ms": 1.25},
            "run": run}


def write_report(directory, name, payload) -> None:
    (directory / name).write_text(json.dumps(payload))


class TestValidateReport:
    def test_good_report_passes(self):
        assert validate_report(good_report()) == []

    def test_missing_run_block_is_the_only_problem_reported(self):
        problems = validate_report({"results": {}})
        assert len(problems) == 1
        assert "run" in problems[0]

    @pytest.mark.parametrize("rounds", [None, 0, -3, "5", 2.0])
    def test_dishonest_rounds_refused(self, rounds):
        problems = validate_report(good_report(rounds=rounds))
        assert any("rounds" in p for p in problems)

    def test_missing_load_average_refused(self):
        report = good_report()
        del report["run"]["load_avg_1m"]
        problems = validate_report(report)
        assert any("load_avg_1m" in p for p in problems)

    def test_saturated_machine_refused_unless_allowed(self):
        report = good_report(load_avg_1m=LOAD_FACTOR * 8 + 1, cpu_count=8)
        assert any("noise" in p for p in validate_report(report))
        assert validate_report(report, allow_loaded=True) == []


class TestPromote:
    def test_refuses_without_consent_env(self, tmp_path):
        write_report(tmp_path, "BENCH_io.json", good_report())
        with pytest.raises(PromoteError, match=PROMOTE_ENV):
            promote(source_dir=tmp_path, dest_dir=tmp_path / "dest", env={})

    def test_promotes_and_stamps_provenance(self, tmp_path):
        dest = tmp_path / "dest"
        dest.mkdir()
        write_report(tmp_path, "BENCH_io.json", good_report())
        promoted = promote(source_dir=tmp_path, dest_dir=dest, env=CONSENT)
        assert promoted == ["BENCH_io.json"]
        payload = json.loads((dest / "BENCH_io.json").read_text())
        assert payload["run"]["promoted"] is True
        assert payload["results"] == {"journal_append_ms": 1.25}
        assert not list(dest.glob("*.tmp"))

    def test_all_or_nothing_when_one_report_is_bad(self, tmp_path):
        dest = tmp_path / "dest"
        dest.mkdir()
        write_report(tmp_path, "BENCH_a.json", good_report())
        write_report(tmp_path, "BENCH_b.json", {"results": {}})  # no run
        with pytest.raises(PromoteError, match="BENCH_b"):
            promote(source_dir=tmp_path, dest_dir=dest, env=CONSENT)
        assert list(dest.iterdir()) == []  # the good one was not copied

    def test_named_selection_requires_the_file(self, tmp_path):
        with pytest.raises(PromoteError, match="no quarantined report"):
            promote(["BENCH_nope.json"], source_dir=tmp_path,
                    dest_dir=tmp_path, env=CONSENT)

    def test_empty_scratch_dir_is_an_explicit_refusal(self, tmp_path):
        with pytest.raises(PromoteError, match="nothing to promote"):
            promote(source_dir=tmp_path, dest_dir=tmp_path, env=CONSENT)

    def test_unreadable_json_is_an_explicit_refusal(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        with pytest.raises(PromoteError, match="unreadable"):
            promote(source_dir=tmp_path, dest_dir=tmp_path, env=CONSENT)

    def test_scratch_dir_resolution_honors_env_then_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", "/tmp/elsewhere")
        assert str(bench_scratch_dir()) == "/tmp/elsewhere"
        monkeypatch.delenv("REPRO_BENCH_DIR")
        assert bench_scratch_dir().name == "bench_out"
        assert str(bench_scratch_dir("/explicit")) == "/explicit"
