"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestArchitecturesCommand:
    def test_lists_the_catalogue(self, capsys):
        assert main(["architectures"]) == 0
        output = capsys.readouterr().out
        for name in ("legacy-tpms", "baseline", "optimized"):
            assert name in output


class TestBalanceCommand:
    def test_prints_curve_and_break_even(self, capsys):
        code = main(
            ["balance", "--speed-min", "10", "--speed-max", "150", "--speed-step", "10"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "speed_kmh" in output
        assert "break-even" in output

    def test_unknown_architecture_fails_cleanly(self, capsys):
        code = main(["balance", "--architecture", "does-not-exist"])
        assert code == 1
        assert "unknown architecture" in capsys.readouterr().err

    def test_larger_scavenger_reports_lower_break_even(self, capsys):
        main(["balance", "--scavenger-size", "1.0", "--speed-step", "10"])
        small = capsys.readouterr().out
        main(["balance", "--scavenger-size", "2.0", "--speed-step", "10"])
        large = capsys.readouterr().out

        def extract(text):
            for line in text.splitlines():
                if "break-even" in line and "km/h" in line:
                    return float(line.split(":")[1].split("km/h")[0])
            return None

        assert extract(large) < extract(small)


class TestTraceCommand:
    def test_prints_segments_and_statistics(self, capsys):
        code = main(["trace", "--speed", "60", "--window", "0.3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "transmit" in output
        assert "peak" in output


class TestOptimizeCommand:
    def test_prints_assignments_and_saving(self, capsys):
        code = main(["optimize", "--temperature", "85"])
        assert code == 0
        output = capsys.readouterr().out
        assert "technique" in output
        assert "% saving" in output


class TestEmulateCommand:
    def test_urban_cycle_summary(self, capsys):
        code = main(["emulate", "--cycle", "urban", "--architecture", "optimized"])
        assert code == 0
        output = capsys.readouterr().out
        assert "revolutions" in output
        assert "harvested_mj" in output


class TestReportCommand:
    def test_full_report_without_cycle(self, capsys):
        code = main(["report", "--architecture", "legacy-tpms"])
        assert code == 0
        output = capsys.readouterr().out
        assert "ENERGY ANALYSIS REPORT" in output
        assert "Step 5" in output

    def test_full_report_with_cycle(self, capsys):
        code = main(["report", "--cycle", "urban"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Step 6" in output


class TestArgumentParsing:
    def test_missing_subcommand_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_kind_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "x.json", "--kind", "interpolate"])


class TestScenariosCommand:
    def test_lists_every_registry(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name in (
            "baseline",
            "reference",
            "piezoelectric",
            "supercapacitor",
            "urban",
            "architecture",
            "drive_cycle",
        ):
            assert name in output

    def test_lists_grid_axes(self, capsys):
        main(["scenarios"])
        output = capsys.readouterr().out
        assert "grid axes" in output
        assert "temperature" in output

    def test_json_form_is_the_shared_listing_document(self, capsys):
        from repro.scenario.listing import scenario_listing

        assert main(["scenarios", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == json.loads(json.dumps(scenario_listing()))
        assert {"components", "cycles", "axes", "study_kinds"} <= set(document)


class TestCyclesCommand:
    def test_lists_cycles_with_durations(self, capsys):
        assert main(["cycles"]) == 0
        output = capsys.readouterr().out
        for name in ("urban", "nedc", "highway", "constant", "ramp"):
            assert name in output
        assert "parametric" in output

    def test_json_form_matches_the_shared_rows(self, capsys):
        from repro.scenario.listing import cycle_rows

        assert main(["cycles", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == json.loads(json.dumps(cycle_rows()))
        assert any(row["note"].startswith("parametric") for row in rows)


class TestServeCommand:
    def test_serve_subcommand_is_registered_with_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.backend == "thread"
        assert args.cache_size == 8
        assert args.job_workers == 1
        assert args.store_dir is None and args.checkpoint_dir is None


class TestRunCommand:
    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-test",
                    "architecture": "optimized",
                    "environment": {"temperature_c": 25.0, "speed_kmh": 60.0},
                }
            )
        )
        return str(path)

    def test_flow_mode_prints_headlines(self, capsys, scenario_path):
        assert main(["run", "--scenario", scenario_path]) == 0
        output = capsys.readouterr().out
        assert "Per-block energy over one wheel round at 60 km/h" in output
        assert "Flow summary" in output
        assert "break_even_before_kmh" in output

    def test_grid_mode_runs_study(self, capsys, scenario_path):
        code = main(
            [
                "run",
                "--scenario",
                scenario_path,
                "--set",
                "temperature=-20,85",
                "--kind",
                "balance",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "break_even_kmh" in output
        assert "evaluator build(s)" in output

    def test_export_writes_rows(self, capsys, scenario_path, tmp_path):
        target = tmp_path / "rows.json"
        code = main(
            [
                "run",
                "--scenario",
                scenario_path,
                "--kind",
                "report",
                "--export",
                str(target),
            ]
        )
        assert code == 0
        assert json.loads(target.read_text())

    def test_montecarlo_kind_with_workers(self, capsys, scenario_path):
        code = main(
            [
                "run",
                "--scenario",
                scenario_path,
                "--kind",
                "montecarlo",
                "--mc-samples",
                "32",
                "--mc-seed",
                "7",
                "--workers",
                "2",
                "--set",
                "temperature=0,50",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean_uj_per_rev" in output
        assert "2 worker(s)" in output

    def test_process_backend_matches_thread_backend(self, capsys, scenario_path):
        arguments = [
            "run",
            "--scenario",
            scenario_path,
            "--kind",
            "report",
            "--set",
            "temperature=0,50",
            "--workers",
            "2",
        ]
        assert main(arguments + ["--backend", "thread"]) == 0
        thread_out = capsys.readouterr().out
        assert main(arguments + ["--backend", "process"]) == 0
        process_out = capsys.readouterr().out
        assert "process backend" in process_out
        # Identical result tables; only the backend/evaluator summary differs.
        def table(text):
            return text.split("\n\n")[0]

        assert table(process_out) == table(thread_out)

    def test_backend_requires_study_mode(self, capsys, scenario_path):
        code = main(["run", "--scenario", scenario_path, "--backend", "process"])
        assert code == 1
        assert "--backend requires study mode" in capsys.readouterr().err

    def test_process_backend_requires_multiple_workers(self, capsys, scenario_path):
        """--backend process must not silently run sequentially."""
        code = main(
            [
                "run",
                "--scenario",
                scenario_path,
                "--kind",
                "report",
                "--backend",
                "process",
            ]
        )
        assert code == 1
        assert "--workers greater than 1" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, scenario_path):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", scenario_path, "--backend", "rocket"])

    def test_montecarlo_runs_are_reproducible(self, capsys, scenario_path):
        arguments = [
            "run",
            "--scenario",
            scenario_path,
            "--kind",
            "montecarlo",
            "--mc-samples",
            "32",
            "--mc-seed",
            "5",
        ]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert first == second


class TestErrorPaths:
    """Every CLI failure exits non-zero with a one-line message, no traceback."""

    def _assert_clean_failure(self, capsys, argv, fragment):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        error_lines = [line for line in captured.err.splitlines() if line]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("error: ")
        assert fragment in error_lines[0]
        assert "Traceback" not in captured.err

    def test_unknown_architecture(self, capsys):
        self._assert_clean_failure(
            capsys,
            ["balance", "--architecture", "does-not-exist"],
            "unknown architecture",
        )

    def test_unknown_cycle(self, capsys):
        self._assert_clean_failure(
            capsys, ["emulate", "--cycle", "lunar"], "unknown drive cycle"
        )

    def test_parametric_cycle_points_to_scenario_form(self, capsys):
        self._assert_clean_failure(
            capsys, ["emulate", "--cycle", "constant"], "needs parameters"
        )

    def test_unknown_report_cycle(self, capsys):
        self._assert_clean_failure(
            capsys, ["report", "--cycle", "lunar"], "unknown drive cycle"
        )

    def test_missing_scenario_file(self, capsys, tmp_path):
        self._assert_clean_failure(
            capsys,
            ["run", "--scenario", str(tmp_path / "missing.json")],
            "cannot read scenario file",
        )

    def test_invalid_scenario_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self._assert_clean_failure(
            capsys, ["run", "--scenario", str(path)], "not valid JSON"
        )

    def test_unknown_scenario_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"architecture": "baseline", "wheelz": 4}))
        self._assert_clean_failure(
            capsys, ["run", "--scenario", str(path)], "unknown scenario field"
        )

    def test_unknown_scenario_architecture(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"architecture": "warp-drive"}))
        self._assert_clean_failure(
            capsys, ["run", "--scenario", str(path)], "unknown architecture"
        )

    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"architecture": "baseline"}))
        return str(path)

    def test_malformed_set_missing_equals(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            ["run", "--scenario", scenario_path, "--set", "temperature"],
            "malformed --set",
        )

    def test_malformed_set_empty_values(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            ["run", "--scenario", scenario_path, "--set", "temperature=25,,85"],
            "malformed --set",
        )

    def test_unknown_set_axis(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            ["run", "--scenario", scenario_path, "--set", "humidity=10,20"],
            "unknown scenario axis",
        )

    def test_colliding_set_aliases(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            [
                "run",
                "--scenario",
                scenario_path,
                "--set",
                "temperature=10",
                "--set",
                "temperature_c=20",
            ],
            "both drive the scenario field",
        )

    def test_non_finite_set_value(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            ["run", "--scenario", scenario_path, "--set", "speed=inf,60"],
            "finite",
        )

    def test_duplicate_set_axis(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            [
                "run",
                "--scenario",
                scenario_path,
                "--set",
                "temperature=10",
                "--set",
                "temperature=20",
            ],
            "more than once",
        )

    def test_bad_export_extension(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            [
                "run",
                "--scenario",
                scenario_path,
                "--kind",
                "report",
                "--export",
                "rows.xlsx",
            ],
            "must end in .csv or .json",
        )

    def test_emulate_kind_without_cycle(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            ["run", "--scenario", scenario_path, "--kind", "emulate"],
            "drive_cycle",
        )

    def test_mc_flags_without_montecarlo_kind(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            [
                "run",
                "--scenario",
                scenario_path,
                "--kind",
                "report",
                "--mc-samples",
                "16",
            ],
            "--kind montecarlo",
        )

    def test_workers_without_study_mode(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            ["run", "--scenario", scenario_path, "--workers", "2"],
            "study mode",
        )

    def test_invalid_worker_count(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            [
                "run",
                "--scenario",
                scenario_path,
                "--kind",
                "report",
                "--workers",
                "0",
            ],
            "workers must be a positive integer",
        )


class TestFleetCommand:
    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-fleet",
                    "drive_cycle": {"name": "urban", "params": {"repetitions": 1}},
                    "environment": {"temperature_c": 25.0, "speed_kmh": 60.0},
                }
            )
        )
        return str(path)

    @pytest.fixture
    def fleet_path(self, tmp_path, scenario_path):
        from repro.fleet import FleetSpec
        from repro.scenario.spec import load_scenario

        fleet = FleetSpec.from_base(load_scenario(scenario_path), vehicles=5, seed=2)
        return str(fleet.save(tmp_path / "fleet.json"))

    def test_scenario_mode_runs_default_population(self, capsys, scenario_path):
        code = main(["fleet", "--scenario", scenario_path, "--vehicles", "4", "--seed", "9"])
        assert code == 0
        output = capsys.readouterr().out
        assert "surviving_at_end_pct" in output
        assert "Fleet survival vs time" in output
        assert "4 vehicle(s)" in output
        assert "shared energy bin(s) swept once" in output

    def test_fleet_document_mode(self, capsys, fleet_path):
        assert main(["fleet", "--fleet", fleet_path]) == 0
        output = capsys.readouterr().out
        assert "5 vehicle(s)" in output

    def test_population_overrides_apply(self, capsys, fleet_path):
        assert main(["fleet", "--fleet", fleet_path, "--vehicles", "3"]) == 0
        assert "3 vehicle(s)" in capsys.readouterr().out

    def test_repeated_runs_print_the_same_table(self, capsys, scenario_path):
        args = ["fleet", "--scenario", scenario_path, "--vehicles", "6", "--seed", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        # Identical aggregate tables; only the trailing timing line differs,
        # and it names no worker pool.
        table = lambda text: text.split("\n\n")[1]  # noqa: E731
        assert table(second) == table(first)
        assert "worker" not in first and "backend" not in first

    def test_exports_write_files(self, capsys, scenario_path, tmp_path):
        summary = tmp_path / "summary.json"
        survival = tmp_path / "survival.csv"
        vehicles = tmp_path / "vehicles.csv"
        code = main(
            [
                "fleet",
                "--scenario",
                scenario_path,
                "--vehicles",
                "3",
                "--export",
                str(summary),
                "--export-survival",
                str(survival),
                "--export-vehicles",
                str(vehicles),
            ]
        )
        assert code == 0
        assert json.loads(summary.read_text())[0]["vehicles"] == 3
        assert survival.read_text().startswith("fleet,")
        assert len(vehicles.read_text().splitlines()) == 4

    def _assert_clean_failure(self, capsys, argv, fragment):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.err.startswith("error:")

    def test_requires_exactly_one_source(self, capsys, scenario_path, fleet_path):
        self._assert_clean_failure(
            capsys, ["fleet"], "exactly one of --fleet or --scenario"
        )
        self._assert_clean_failure(
            capsys,
            ["fleet", "--fleet", fleet_path, "--scenario", scenario_path],
            "exactly one of --fleet or --scenario",
        )

    @pytest.mark.parametrize("setting", [["--workers", "2"], ["--backend", "process"]])
    def test_pool_settings_are_usage_errors(self, capsys, scenario_path, setting):
        # Fleets run sequentially: the fleet command has no pool options.
        with pytest.raises(SystemExit) as exited:
            main(["fleet", "--scenario", scenario_path, *setting])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(setting)}" in capsys.readouterr().err

    def test_missing_fleet_file(self, capsys, tmp_path):
        self._assert_clean_failure(
            capsys,
            ["fleet", "--fleet", str(tmp_path / "absent.json")],
            "cannot read fleet file",
        )

    def test_scenario_without_cycle_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "no-cycle.json"
        path.write_text(json.dumps({"name": "no-cycle"}))
        self._assert_clean_failure(
            capsys,
            ["fleet", "--scenario", str(path)],
            "drive_cycle",
        )

    def test_bad_export_extension_fails_before_running(self, capsys, scenario_path):
        self._assert_clean_failure(
            capsys,
            ["fleet", "--scenario", scenario_path, "--export", "out.txt"],
            "must end in .csv or .json",
        )


class TestFleetResumeAndPackages:
    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-resume",
                    "drive_cycle": {"name": "urban", "params": {"repetitions": 1}},
                }
            )
        )
        return str(path)

    def _fleet_args(self, scenario_path):
        return [
            "fleet",
            "--scenario",
            scenario_path,
            "--vehicles",
            "8",
            "--seed",
            "3",
            "--chunk-vehicles",
            "3",
        ]

    def test_checkpointed_resume_matches_fresh_export(self, capsys, scenario_path, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        code = main(
            self._fleet_args(scenario_path)
            + ["--checkpoint", ckpt, "--max-chunks", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "PARTIAL run: 2/3 chunk(s) done" in output

        resumed_path = tmp_path / "resumed.json"
        code = main(
            self._fleet_args(scenario_path)
            + ["--checkpoint", ckpt, "--export", str(resumed_path)]
        )
        assert code == 0
        assert "resumed 2 chunk(s) (6 vehicle(s))" in capsys.readouterr().out

        fresh_path = tmp_path / "fresh.json"
        assert main(self._fleet_args(scenario_path) + ["--export", str(fresh_path)]) == 0
        assert resumed_path.read_bytes() == fresh_path.read_bytes()

    def test_package_writes_and_validates(self, capsys, scenario_path, tmp_path):
        package = str(tmp_path / "pkg")
        code = main(
            self._fleet_args(scenario_path)
            + ["--package", package, "--kpi-floor", "surviving_at_end_pct=0"]
        )
        assert code == 0
        assert "wrote run package" in capsys.readouterr().out

        assert main(["validate-run", package]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_run_fails_on_tampered_artifact(self, capsys, scenario_path, tmp_path):
        package = str(tmp_path / "pkg")
        assert main(self._fleet_args(scenario_path) + ["--package", package]) == 0
        capsys.readouterr()
        summary = tmp_path / "pkg" / "summary.json"
        summary.write_text(summary.read_text().replace("cli-resume", "doctored"))
        assert main(["validate-run", package]) == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_validate_run_fails_on_missing_artifact(self, capsys, scenario_path, tmp_path):
        package = str(tmp_path / "pkg")
        assert main(self._fleet_args(scenario_path) + ["--package", package]) == 0
        capsys.readouterr()
        (tmp_path / "pkg" / "survival.json").unlink()
        assert main(["validate-run", package]) == 1
        assert "missing from package" in capsys.readouterr().err

    def test_validate_run_fails_on_violated_floor(self, capsys, scenario_path, tmp_path):
        package = str(tmp_path / "pkg")
        assert (
            main(
                self._fleet_args(scenario_path)
                + ["--package", package, "--kpi-floor", "surviving_at_end_pct=0"]
            )
            == 0
        )
        capsys.readouterr()
        manifest_path = tmp_path / "pkg" / "package.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["floors"]["surviving_at_end_pct"] = 1000.0
        manifest_path.write_text(json.dumps(manifest))
        assert main(["validate-run", package]) == 1
        assert "KPI floor violated: surviving_at_end_pct" in capsys.readouterr().err

    def test_validate_run_fails_on_non_package_directory(self, capsys, tmp_path):
        assert main(["validate-run", str(tmp_path)]) == 1
        assert "not a run package" in capsys.readouterr().err

    def test_package_refused_for_partial_runs(self, capsys, scenario_path, tmp_path):
        code = main(
            self._fleet_args(scenario_path)
            + ["--max-chunks", "1", "--package", str(tmp_path / "pkg")]
        )
        assert code == 1
        assert "refusing to package a partial run" in capsys.readouterr().err

    def test_kpi_floor_requires_package(self, capsys, scenario_path):
        code = main(self._fleet_args(scenario_path) + ["--kpi-floor", "x=1"])
        assert code == 1
        assert "--kpi-floor requires --package" in capsys.readouterr().err

    def test_malformed_kpi_floor(self, capsys, scenario_path, tmp_path):
        code = main(
            self._fleet_args(scenario_path)
            + ["--package", str(tmp_path / "pkg"), "--kpi-floor", "justaname"]
        )
        assert code == 1
        assert "malformed --kpi-floor" in capsys.readouterr().err

    def test_retries_flag_reaches_the_runner(self, capsys, scenario_path):
        assert main(self._fleet_args(scenario_path) + ["--retries", "2"]) == 0
