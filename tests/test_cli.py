"""CLI tests: every command end-to-end on the funarc case."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_both(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in ("funarc", "mpas-a", "adcirc", "mom6"):
            assert name in out

    def test_profile(self, capsys):
        code, out = run_cli(capsys, "profile", "funarc")
        assert code == 0
        assert "hotspot CPU share" in out
        assert "funarc_mod::fun" in out

    def test_assess(self, capsys):
        code, out = run_cli(capsys, "assess", "funarc")
        assert code == 0
        assert "auto-vectorization" in out
        assert "overall tunability score" in out

    def test_transform_diff(self, capsys):
        code, out = run_cli(capsys, "transform", "funarc",
                            "--lower", "funarc_mod::fun::d1", "--diff")
        assert code == 0
        assert "+    real(kind=4) :: d1" in out

    def test_transform_full_source(self, capsys):
        code, out = run_cli(capsys, "transform", "funarc",
                            "--lower", "all")
        assert code == 0
        assert "real(kind=4)" in out
        assert "module funarc_mod" in out

    def test_transform_rejects_unknown_atom(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "transform", "funarc", "--lower", "nope::x")

    def test_reduce(self, capsys):
        code, out = run_cli(capsys, "reduce", "funarc",
                            "--targets", "funarc_mod::funarc::s1")
        assert code == 0
        assert "tainted symbols" in out
        assert "statement reduction" in out

    def test_tune_funarc(self, capsys, tmp_path):
        out_path = tmp_path / "records.json"
        code, out = run_cli(capsys, "tune", "funarc",
                            "--max-evals", "60",
                            "--out", str(out_path))
        assert code == 0
        assert "1-minimal variant" in out
        assert "best speedup" in out
        payload = json.loads(out_path.read_text())
        assert payload and "outcome" in payload[0]

    def test_tune_random_algorithm(self, capsys):
        code, out = run_cli(capsys, "tune", "funarc",
                            "--algorithm", "random",
                            "--max-evals", "20")
        assert code == 0
        assert "variants:" in out

    def test_tune_threshold_override(self, capsys):
        # A sky-high threshold lets uniform-32 pass immediately.
        code, out = run_cli(capsys, "tune", "funarc",
                            "--threshold", "1.0",
                            "--max-evals", "10")
        assert code == 0
        assert "best speedup" in out


class TestObservability:
    """The PR-3 surface: tune --json/--trace-dir/--progress and the
    trace subcommand."""

    def test_tune_json_splits_machine_from_human(self, capsys):
        code, out, err = run_cli_both(capsys, "tune", "funarc",
                                      "--max-evals", "40", "--json")
        assert code == 0
        # stdout is exactly one JSON document...
        payload = json.loads(out)
        assert {"search", "metrics", "execution"} <= payload.keys()
        assert payload["execution"]["batches"]
        assert payload["metrics"]["evaluations"] > 0
        # ...and the human report moved to stderr, intact.
        assert "best speedup" in err and "best speedup" not in out

    def test_tune_trace_then_trace_summary(self, capsys, tmp_path):
        trace_dir = str(tmp_path / "trace")
        code, _out = run_cli(capsys, "tune", "funarc",
                             "--max-evals", "60", "--trace-dir", trace_dir)
        assert code == 0

        code, out = run_cli(capsys, "trace", trace_dir)
        assert code == 0
        for stage in ("preprocess", "transform", "compile", "run"):
            assert stage in out
        # The reconciliation footer proves the stage totals match the
        # campaign's own budget accounting (acceptance bound: 1%).
        assert "stage totals within" in out

    def test_trace_of_missing_dir_is_operator_feedback(self, capsys,
                                                       tmp_path):
        code, out, err = run_cli_both(capsys, "trace",
                                      str(tmp_path / "absent"))
        assert code == 2
        assert "TraceError" in err and "no span trace" in err

    def test_tune_progress_renders_on_stderr(self, capsys):
        code, out, err = run_cli_both(capsys, "tune", "funarc",
                                      "--max-evals", "40", "--progress")
        assert code == 0
        assert "batch" in err

    def test_workers_flag_shared_by_assess_and_tune(self):
        parser = build_parser()
        tune = parser.parse_args(["tune", "funarc", "--workers", "2"])
        assess = parser.parse_args(["assess", "funarc", "--workers", "2"])
        assert tune.workers == assess.workers == 2

    def test_tune_resume_requires_journal_dir(self, capsys):
        with pytest.raises(SystemExit, match="--journal-dir"):
            run_cli(capsys, "tune", "funarc", "--resume")


class TestNumericsProfiling:
    """The PR-4 surface: profile --numerics, tune --algorithm profile /
    --profile, cache-warning surfacing, and the trace exit code."""

    def test_profile_numerics_blame_table(self, capsys):
        code, out = run_cli(capsys, "profile", "funarc", "--numerics")
        assert code == 0
        assert "Numerical profile: funarc" in out
        assert "Max rel err" in out
        # The blame table leads with the paper's critical accumulator.
        first_row = next(line for line in out.splitlines()
                         if line.startswith("funarc_mod::"))
        assert first_row.startswith("funarc_mod::funarc::s1")

    def test_profile_numerics_out_roundtrips(self, capsys, tmp_path):
        from repro.numerics import NumericalProfile
        path = tmp_path / "prof.json"
        code, out = run_cli(capsys, "profile", "funarc", "--numerics",
                            "--out", str(path))
        assert code == 0
        assert f"profile written to {path}" in out
        profile = NumericalProfile.load(path)
        assert profile.model == "funarc"
        assert profile.digest() in out

    def test_plain_profile_unchanged(self, capsys):
        code, out = run_cli(capsys, "profile", "funarc")
        assert code == 0
        assert "hotspot CPU share" in out
        assert "Numerical profile" not in out

    def test_tune_profile_algorithm(self, capsys, tmp_path):
        path = tmp_path / "prof.json"
        code, out = run_cli(capsys, "tune", "funarc",
                            "--algorithm", "profile",
                            "--profile", str(path))
        assert code == 0
        assert "numerical profile: computed" in out
        assert "1-minimal variant" in out
        assert "funarc_mod::funarc::s1" in out

        # Rerun: the persisted profile is loaded at zero charge.
        code, out = run_cli(capsys, "tune", "funarc",
                            "--algorithm", "profile",
                            "--profile", str(path))
        assert code == 0
        assert "numerical profile: loaded" in out
        assert "0.0 sim seconds charged" in out

    def test_tune_json_carries_profile_provenance(self, capsys):
        code, out, err = run_cli_both(capsys, "tune", "funarc",
                                      "--algorithm", "profile", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["execution"]["profile"]["source"] == "computed"
        assert payload["execution"]["profile"]["digest"]
        assert payload["metrics"]["sim_seconds_by_stage"]["profile"] == 25.0

    def test_tune_surfaces_cache_load_warnings(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _out = run_cli(capsys, "tune", "funarc", "--max-evals", "60",
                             "--cache-dir", cache_dir)
        assert code == 0
        (cache_file,) = Path(cache_dir).glob("variants-*.jsonl")
        with cache_file.open("a") as fh:
            fh.write('{"torn..\n')
        code, out = run_cli(capsys, "tune", "funarc", "--max-evals", "60",
                            "--cache-dir", cache_dir)
        assert code == 0
        assert "cache warning:" in out
        assert "unparseable JSON" in out

    def test_trace_surfaces_cache_warnings(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        trace_dir = str(tmp_path / "trace")
        code, _out = run_cli(capsys, "tune", "funarc", "--max-evals", "60",
                             "--cache-dir", cache_dir)
        assert code == 0
        (cache_file,) = Path(cache_dir).glob("variants-*.jsonl")
        with cache_file.open("a") as fh:
            fh.write("not json\n")
        code, _out = run_cli(capsys, "tune", "funarc", "--max-evals", "60",
                             "--cache-dir", cache_dir,
                             "--trace-dir", trace_dir)
        assert code == 0
        code, out = run_cli(capsys, "trace", trace_dir)
        assert code == 0
        assert "cache warnings (1):" in out
        assert "unparseable JSON" in out

    def test_trace_exits_nonzero_on_reconciliation_mismatch(
            self, capsys, tmp_path):
        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        lines = [
            {"type": "header", "format": 1},
            {"type": "span", "id": 1, "parent": None, "name": "campaign",
             "wall_seconds": 1.0, "sim_seconds": 100.0, "attrs": {}},
            {"type": "span", "id": 2, "parent": 1, "name": "run",
             "wall_seconds": 0.5, "sim_seconds": 50.0, "attrs": {}},
        ]
        (trace_dir / "trace.jsonl").write_text(
            "\n".join(json.dumps(entry) for entry in lines) + "\n")
        code, out, err = run_cli_both(capsys, "trace", str(trace_dir))
        assert code == 1
        assert "stage totals within 50.000%" in out
        assert "diverge from campaign accounting" in err

    def test_healthy_profile_trace_exits_zero(self, capsys, tmp_path):
        trace_dir = str(tmp_path / "trace")
        code, _out = run_cli(capsys, "tune", "funarc",
                             "--algorithm", "profile",
                             "--trace-dir", trace_dir)
        assert code == 0
        code, out = run_cli(capsys, "trace", trace_dir)
        assert code == 0
        assert "profile" in out
        assert "stage totals within 0.000%" in out
