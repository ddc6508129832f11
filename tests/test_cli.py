"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.design == "rl"
        assert args.benchmark == "canneal"
        assert args.width == 4

    def test_sweep_rates_parsing(self):
        args = build_parser().parse_args(["sweep", "--rates", "0.01,0.02"])
        assert args.rates == "0.01,0.02"


class TestCommands:
    def _fast(self, extra):
        return extra + [
            "--width", "3", "--height", "3",
            "--epoch", "100", "--pretrain", "1200",
            "--warmup", "200", "--trace-cycles", "400",
        ]

    def test_run_json(self, capsys):
        code = main(self._fast(["run", "--design", "crc", "--benchmark", "swaptions", "--json"]))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "crc"
        assert payload["packets_delivered"] > 0

    def test_run_text(self, capsys):
        code = main(self._fast(["run", "--design", "arq_ecc", "--benchmark", "swaptions"]))
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_latency" in out

    def test_run_profile(self, capsys):
        code = main(self._fast(
            ["run", "--design", "crc", "--benchmark", "swaptions", "--profile"]
        ))
        assert code == 0
        err = capsys.readouterr().err
        assert "[profile] cycle kernel: fast" in err
        assert "channel_visits" in err
        assert "fast-forwarded" in err

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(self._fast(["run", "--benchmark", "doom"]))

    def test_run_rejects_unknown_design(self):
        with pytest.raises(SystemExit, match="unknown design 'fpga'"):
            main(self._fast(["run", "--design", "fpga"]))

    def _compare_then_campaign(self, capsys, tmp_path, extra=()):
        """stdout of ``compare --benchmark swaptions`` and then of
        ``campaign --benchmarks swaptions`` over the same cache; the
        campaign must replay every artifact and cell compare made."""
        shared = ["--cache-dir", str(tmp_path / "cache"), *extra]
        assert main(self._fast(["compare", "--benchmark", "swaptions", *shared])) == 0
        compare = capsys.readouterr().out
        assert main(self._fast(["campaign", "--benchmarks", "swaptions", *shared])) == 0
        campaign = capsys.readouterr()
        assert (
            "0 artifact(s) built, 2 reused; 0 cell(s) simulated, 4 from cache"
            in campaign.err
        )
        return compare, campaign.out

    def test_compare_text(self, capsys, tmp_path):
        compare, campaign = self._compare_then_campaign(capsys, tmp_path)
        assert compare == campaign
        assert "| Figure | Direction | crc | arq_ecc | dt | rl |" in compare

    def test_compare_json(self, capsys, tmp_path):
        compare, campaign = self._compare_then_campaign(capsys, tmp_path, ["--json"])
        assert compare == campaign
        assert json.loads(compare)["benchmarks"] == ["swaptions"]

    def test_sweep_json(self, capsys):
        code = main(
            self._fast(["sweep", "--design", "crc", "--rates", "0.005,0.01", "--span", "400", "--json", "--no-cache"])
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[0]["rate"] == 0.005
        assert payload[0]["latency"] > 0
        # Higher load never reduces latency on a sane sweep.
        assert payload[1]["latency"] >= payload[0]["latency"] * 0.8


class TestChaosCommand:
    def _argv(self, cache_dir, extra=()):
        return [
            "chaos", "--routings", "xy,adaptive",
            "--fault-specs", "link@200:5E",
            "--width", "4", "--height", "4",
            "--rate", "0.05", "--span", "800",
            "--cache-dir", str(cache_dir),
            *extra,
        ]

    def test_rejects_unknown_routing(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown routing"):
            main(self._argv(tmp_path, ["--routings", "zigzag"]))

    def test_rejects_bad_fault_spec(self, tmp_path):
        with pytest.raises(SystemExit, match="bad fault clause"):
            main(self._argv(tmp_path, ["--fault-specs", "link@500:5Q"]))

    def test_text_table(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "routing" in out and "delivered" in out
        assert "adaptive" in out and "xy" in out
        assert "link@200:5E" in out

    def test_json_payload(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, ["--json"])) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["routing"] for row in payload] == ["xy", "adaptive"]
        for row in payload:
            assert row["fault_spec"] == "link@200:5E"
            assert row["link_kills"] == 1
            assert row["diagnosis"] is None
            assert 0.0 < row["delivered_fraction"] <= 1.0

    def test_healthy_baseline_spec(self, capsys, tmp_path):
        argv = self._argv(tmp_path, ["--json"])
        argv[argv.index("link@200:5E")] = ""
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        for row in payload:
            assert row["fault_spec"] == ""
            assert row["link_kills"] == 0
            assert row["delivered_fraction"] == 1.0


class TestSensorChaosCommand:
    def _argv(self, cache_dir, extra=()):
        return [
            "chaos", "--sensor-spec", "drop@0.3:util;stuck@r2.temp=0.9",
            "--hysteresis", "2",
            "--width", "3", "--height", "3",
            "--epoch", "100", "--pretrain", "1500", "--warmup", "300",
            "--rate", "0.05", "--span", "600",
            "--cache-dir", str(cache_dir),
            *extra,
        ]

    def test_rejects_bad_sensor_spec(self, tmp_path):
        with pytest.raises(SystemExit, match="bad sensor clause 'drop@2:util'"):
            main(self._argv(tmp_path, ["--sensor-spec", "drop@2:util"]))

    def test_rejects_unknown_design(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown design"):
            main(self._argv(tmp_path, ["--designs", "fpga"]))

    def test_json_payload(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, ["--json"])) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        row = payload[0]
        assert row["design"] == "rl"
        assert row["sensor_spec"] == "drop@0.3:util;stuck@r2.temp=0.9"
        assert row["defenses"] is True
        assert row["diagnosis"] is None
        assert row["delivered_fraction"] >= 0.95
        assert row["injected"]["drop"] > 0
        assert row["rejected_observations"] > 0

    def test_text_table(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "sensor spec" in out and "rejected" in out
        assert "drop@0.3:util" in out and "ok" in out


class TestSoftErrorChaosCommand:
    def _argv(self, cache_dir, extra=()):
        return [
            "chaos", "--soft-error-spec", "qtable@5e-4;mode@r4+1900",
            "--width", "3", "--height", "3",
            "--epoch", "100", "--pretrain", "1500", "--warmup", "300",
            "--rate", "0.05", "--span", "600",
            "--cache-dir", str(cache_dir),
            *extra,
        ]

    def test_rejects_bad_soft_error_spec(self, tmp_path):
        with pytest.raises(
            SystemExit, match="bad soft-error clause 'qtable@2'"
        ):
            main(self._argv(tmp_path, ["--soft-error-spec", "qtable@2"]))

    def test_json_payload(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, ["--json"])) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        row = payload[0]
        assert row["design"] == "rl"
        assert row["soft_error_spec"] == "qtable@5e-4;mode@r4+1900"
        assert row["ecc"] is True
        assert row["diagnosis"] is None
        assert row["delivered_fraction"] >= 0.95
        assert row["injected"]["qtable"] > 0
        assert row["corrected"] > 0

    def test_no_ecc_flag_disables_correction(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, ["--no-ecc", "--json"])) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["ecc"] is False
        assert row["corrected"] == 0
        assert row["injected"]["qtable"] > 0

    def test_text_table(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "soft-error spec" in out and "corr" in out
        assert "qtable@5e-4" in out and "ok" in out


class TestControlChaosCommand:
    """Sensor faults, SEUs and hard faults compose into one closed-loop row."""

    SENSOR = "drop@0.2:util;stuck@r5.temp=0.9"
    SEU = "qtable@5e-4;mode@r4+1900"

    def _argv(self, cache_dir, extra=()):
        return [
            "chaos", "--sensor-spec", self.SENSOR, "--soft-error-spec", self.SEU,
            "--width", "3", "--height", "3",
            "--epoch", "100", "--pretrain", "1500", "--warmup", "300",
            "--rate", "0.05", "--span", "600",
            "--cache-dir", str(cache_dir),
            *extra,
        ]

    def test_every_spec_validated_before_any_point_runs(self, tmp_path):
        with pytest.raises(SystemExit, match=r"--soft-error-spec: bad soft-error clause"):
            main([
                "chaos", "--sensor-spec", "drop@0.2:util",
                "--soft-error-spec", "bogus@@", "--cache-dir", str(tmp_path),
            ])
        assert list(tmp_path.iterdir()) == []

    def test_json_row_carries_both_ledgers(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, ["--json"])) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["sensor_spec"] == self.SENSOR
        assert row["soft_error_spec"] == self.SEU
        assert row["diagnosis"] is None
        assert row["injected"]["drop"] > 0 and row["injected"]["qtable"] > 0
        assert row["rejected_observations"] > 0
        assert row["corrected"] == row["words_single"] > 0

    def test_text_table_with_hard_faults(self, capsys, tmp_path):
        argv = self._argv(tmp_path, ["--fault-specs", "link@2000:4E"])
        assert main(argv) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        for column in ("fault spec", "sensor spec", "soft-error spec", "applied"):
            assert column in header
        assert "link@2000:4E" in row and self.SEU in row and row.endswith("ok")


class TestCampaignCommand:
    def _argv(self, tmp_path, extra=()):
        return [
            "campaign", "--benchmarks", "swaptions,blackscholes",
            "--designs", "crc,dt",
            "--width", "3", "--height", "3",
            "--epoch", "100", "--pretrain", "1200",
            "--warmup", "200", "--trace-cycles", "300",
            "--cache-dir", str(tmp_path / "cache"),
            "--artifact-dir", str(tmp_path / "artifacts"),
            *extra,
        ]

    def test_rejects_unknown_benchmark(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(self._argv(tmp_path, ["--benchmarks", "doom"]))

    def test_rejects_unknown_design(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown design"):
            main(self._argv(tmp_path, ["--designs", "fpga"]))

    def test_rejects_campaign_without_crc_baseline(self, tmp_path):
        """Every figure is normalized to crc: without it the report is
        all n/a, so the campaign stops before building or simulating."""
        with pytest.raises(SystemExit, match="crc"):
            main(self._argv(tmp_path, ["--designs", "arq_ecc,rl"]))
        assert not (tmp_path / "artifacts").exists()
        assert not (tmp_path / "cache").exists()

    def test_artifacts_follow_cache_dir(self, tmp_path, monkeypatch):
        """With only --cache-dir given, the artifacts live under it and
        nothing lands in the default .sweep_cache/."""
        monkeypatch.chdir(tmp_path)
        argv = self._argv(tmp_path)
        argv = argv[: argv.index("--cache-dir")] + ["--cache-dir", "cacheonly"]
        assert main(argv) == 0
        assert list((tmp_path / "cacheonly" / "artifacts").glob("dt-s0-*.ckpt"))
        assert not (tmp_path / ".sweep_cache").exists()

    def test_json_report_and_warm_rerun(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, ["--json"])) == 0
        captured = capsys.readouterr()
        assert "1 artifact(s) built, 0 reused" in captured.err
        report = json.loads(captured.out)
        assert report["schema"] == 1
        assert report["benchmarks"] == ["blackscholes", "swaptions"]
        assert report["designs"] == ["crc", "dt"]
        for figure in report["figures"].values():
            assert figure["geomean"]["crc"] == pytest.approx(1.0)

        assert main(self._argv(tmp_path, ["--json"])) == 0
        captured = capsys.readouterr()
        assert "0 artifact(s) built, 1 reused" in captured.err
        assert "0 cell(s) simulated, 4 from cache" in captured.err
        assert json.loads(captured.out) == report

    def test_markdown_output_and_report_files(self, capsys, tmp_path):
        report_json = tmp_path / "report.json"
        report_md = tmp_path / "report.md"
        argv = self._argv(tmp_path, [
            "--report-json", str(report_json), "--report-md", str(report_md),
        ])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "| Figure | Direction | crc | dt |" in out
        assert "| **geomean** |" in out
        assert json.load(report_json.open())["schema"] == 1
        assert report_md.read_text() in out


class TestSpecValidation:
    """Malformed grammars exit with one line naming the bad clause."""

    def test_run_rejects_bad_fault_spec(self):
        with pytest.raises(SystemExit, match=r"--fault-spec: bad fault clause"):
            main(["run", "--fault-spec", "link@500:5Q"])

    def test_run_rejects_bad_soft_error_spec(self):
        with pytest.raises(
            SystemExit, match=r"--soft-error-spec: bad soft-error clause"
        ):
            main(["run", "--soft-error-spec", "qtable@0"])

    def test_run_rejects_bad_sensor_spec(self):
        with pytest.raises(
            SystemExit, match=r"--sensor-spec: bad sensor clause 'noise@0:nack'"
        ):
            main(["run", "--sensor-spec", "noise@0:nack"])

    def test_chaos_names_the_flag(self, tmp_path):
        with pytest.raises(SystemExit, match=r"--fault-specs: bad fault clause"):
            main(["chaos", "--fault-specs", "meteor@1:2",
                  "--cache-dir", str(tmp_path)])


class TestBenchCommand:
    _ARGS = ["bench", "--quick", "--scenarios", "saturated", "--width", "3", "--height", "3"]

    def test_report_and_payload(self, capsys):
        assert main(self._ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["result"]["scenarios"]["saturated"]
        # run_bench itself enforces the digest equality; spot-check shape.
        assert row["fast"]["digest"] == row["naive"]["digest"]
        assert row["fast"]["cycles_per_second"] > 0
        assert payload["result"]["speedups"]["saturated"] == row["speedup"]

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["bench", "--quick", "--scenarios", "blackhole"])

    def test_output_appends_trajectory(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_kernel.json"
        assert main(self._ARGS + ["--output", str(out_file), "--label", "first"]) == 0
        capsys.readouterr()
        assert main(self._ARGS + ["--output", str(out_file), "--label", "second"]) == 0
        capsys.readouterr()
        trajectory = json.loads(out_file.read_text())
        assert [e["label"] for e in trajectory["entries"]] == ["first", "second"]

    def test_check_against_self_passes(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_kernel.json"
        assert main(self._ARGS + ["--output", str(out_file)]) == 0
        capsys.readouterr()
        # Immediately re-checking against the entry just written passes
        # with the generous default threshold.
        assert main(self._ARGS + ["--check", str(out_file), "--threshold", "0.9"]) == 0

    def test_check_detects_regression(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_kernel.json"
        baseline = {
            "version": 1,
            "entries": [{"label": "impossible", "speedups": {"saturated": 10_000.0}}],
        }
        out_file.write_text(json.dumps(baseline))
        assert main(self._ARGS + ["--check", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err

    def test_check_with_no_baseline_is_lenient(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_kernel.json"
        out_file.write_text(json.dumps({"version": 1, "entries": []}))
        assert main(self._ARGS + ["--check", str(out_file)]) == 0
        assert "nothing to check" in capsys.readouterr().err


class TestSweepEndToEnd:
    """The sweep subcommand through the parallel cached runner."""

    def _argv(self, cache_dir, extra=()):
        return [
            "sweep", "--design", "crc", "--pattern", "uniform",
            "--rates", "0.005,0.01",
            "--width", "2", "--height", "2",
            "--epoch", "100", "--pretrain", "500",
            "--warmup", "100", "--span", "300",
            "--json", "--cache-dir", str(cache_dir),
            *extra,
        ]

    def test_sweep_on_2x2_mesh(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert [row["rate"] for row in payload] == [0.005, 0.01]
        assert all(row["latency"] > 0 for row in payload)
        assert all(not row["saturated"] for row in payload)
        assert "2 point(s) simulated, 0 from cache" in err

    def test_repeat_completes_from_cache(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        first = capsys.readouterr().out
        assert main(self._argv(tmp_path)) == 0
        out, err = capsys.readouterr()
        assert out == first
        assert "0 point(s) simulated, 2 from cache" in err

    def test_parallel_matches_serial(self, capsys, tmp_path):
        assert main(self._argv(tmp_path / "serial", ["--jobs", "1"])) == 0
        serial = capsys.readouterr().out
        assert main(self._argv(tmp_path / "parallel", ["--jobs", "2"])) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_text_output_marks_saturation_column(self, capsys, tmp_path):
        argv = self._argv(tmp_path)
        argv.remove("--json")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "rate" in out and "latency" in out and "throughput" in out


class TestObservabilityCli:
    """--trace/--metrics flags and the ``trace`` inspection subcommand."""

    def _run_argv(self, tmp_path, extra=()):
        return [
            "run", "--design", "rl", "--benchmark", "swaptions",
            "--width", "3", "--height", "3",
            "--epoch", "100", "--pretrain", "1200",
            "--warmup", "200", "--trace-cycles", "300",
            "--fault-spec", "router@800:4",
            "--trace", str(tmp_path / "run.jsonl"),
            *extra,
        ]

    def test_run_exports_trace_and_metrics(self, capsys, tmp_path):
        argv = self._run_argv(
            tmp_path, ["--metrics", str(tmp_path / "m.csv"), "--json"]
        )
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["design"] == "rl"
        assert "event(s)" in err

        from repro.obs import read_trace_jsonl

        events = read_trace_jsonl(str(tmp_path / "run.jsonl"))
        categories = {ev.category for ev in events}
        assert {"mode", "rl", "fault"} <= categories
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header.startswith("cycle,")
        assert "net.packets_delivered" in header

    def test_trace_filter_requires_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="--trace-filter requires --trace"):
            main([
                "run", "--design", "crc", "--benchmark", "swaptions",
                "--trace-filter", "mode",
            ])

    def test_trace_filter_rejects_unknown_category(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown trace categories"):
            main(self._run_argv(tmp_path, ["--trace-filter", "bogus"]))

    def test_trace_subcommand_summarizes(self, capsys, tmp_path):
        assert main(self._run_argv(tmp_path, ["--json"])) == 0
        capsys.readouterr()
        trace_file = str(tmp_path / "run.jsonl")

        assert main(["trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "event(s)" in out and "digest" in out

        assert main(["trace", trace_file, "--digest"]) == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64

        assert main(["trace", trace_file, "--tail", "3", "--filter", "mode"]) == 0
        tail = capsys.readouterr().out
        assert "mode/transition" in tail

        assert main(["trace", trace_file, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(row["category"] in (
            "mode", "rl", "fault", "watchdog", "reward", "retx", "checkpoint"
        ) for row in rows)

    def test_trace_subcommand_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace file"):
            main(["trace", str(tmp_path / "absent.jsonl")])

    def _chaos_argv(self, tmp_path, extra=()):
        return [
            "chaos", "--routings", "adaptive",
            "--fault-specs", "link@200:5E",
            "--width", "4", "--height", "4",
            "--rate", "0.05", "--span", "800",
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ]

    def test_chaos_trace_single_point(self, capsys, tmp_path):
        trace_file = tmp_path / "chaos.jsonl"
        argv = self._chaos_argv(tmp_path, ["--trace", str(trace_file), "--json"])
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "traced; cache bypassed" in err
        payload = json.loads(out)
        assert payload[0]["link_kills"] == 1

        from repro.obs import read_trace_jsonl

        kinds = {f"{ev.category}/{ev.kind}" for ev in read_trace_jsonl(str(trace_file))}
        assert "fault/link_kill" in kinds
        assert "watchdog/check" in kinds

    def test_chaos_trace_rejects_grids(self, tmp_path):
        argv = self._chaos_argv(
            tmp_path,
            ["--routings", "xy,adaptive", "--trace", str(tmp_path / "t.jsonl")],
        )
        with pytest.raises(SystemExit, match="single-point"):
            main(argv)

    def test_sensor_chaos_trace_and_degradation_summary(self, capsys, tmp_path):
        """Traced sensor campaign emits sensor events; `repro trace`
        rolls them up into the degradation summary line."""
        trace_file = tmp_path / "sensor.jsonl"
        argv = [
            "chaos", "--sensor-spec", "drop@1.0:all",
            "--width", "3", "--height", "3",
            "--epoch", "100", "--pretrain", "1200", "--warmup", "200",
            "--rate", "0.05", "--span", "500",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace", str(trace_file), "--trace-filter", "sensor", "--json",
        ]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "traced; cache bypassed" in err
        payload = json.loads(out)
        assert payload[0]["rejected_observations"] > 0
        assert payload[0]["quarantined_routers"] == list(range(9))

        assert main(["trace", str(trace_file)]) == 0
        summary = capsys.readouterr().out
        assert "sensor/reject" in summary
        assert "sensor/quarantine" in summary
        assert "degradation: 9 safe-mode entries" in summary
