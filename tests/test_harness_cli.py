"""Command-line interface."""

import pytest

from repro.harness.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fft"])
        assert args.benchmark == "fft"
        assert args.samples == 50

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quicksort"])


class TestCommands:
    def test_list_devices(self, capsys):
        assert main(["list-devices"]) == 0
        out = capsys.readouterr().out
        assert "i7-6700K" in out
        assert "Xeon Phi 7210" in out

    @pytest.mark.parametrize("number,needle", [
        (1, "Table 1"), (2, "Table 2"), (3, "Table 3"),
    ])
    def test_tables(self, capsys, number, needle):
        assert main(["table", str(number)]) == 0
        assert needle in capsys.readouterr().out

    def test_run_with_named_device(self, capsys):
        rc = main(["run", "fft", "--size", "tiny", "--device", "GTX 1080",
                   "--samples", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GTX 1080" in out
        assert "validated : True" in out

    def test_run_with_pdt_triple(self, capsys):
        rc = main(["run", "csr", "--size", "tiny", "--samples", "5",
                   "-p", "1", "-d", "0", "-t", "1"])
        assert rc == 0
        assert "Titan X" in capsys.readouterr().out

    def test_run_with_table3_arguments(self, capsys):
        """Paper §4.4.5 invocation: Benchmark Device -- Arguments."""
        rc = main(["run", "kmeans", "--device", "i7-6700K", "--samples", "5",
                   "--", "-g", "-f", "8", "-p", "128"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kmeans" in out

    @pytest.mark.parametrize("device", ["i7-6700K", "GTX 1080"])
    def test_custom_run_loops_at_least_two_seconds(self, monkeypatch, capsys,
                                                  device):
        """A custom-argument run keeps the §4.3 per-sample loop rule."""
        import repro.harness.cli as cli
        from repro.harness.runner import MIN_LOOP_SECONDS

        results = []
        monkeypatch.setattr(cli, "_print_result", results.append)
        rc = main(["run", "fft", "--device", device, "--samples", "5",
                   "--no-execute", "--", "4096"])
        assert rc == 0
        (result,) = results
        assert result.size == "custom"
        assert result.loop_iterations * result.nominal_s >= MIN_LOOP_SECONDS
        assert (result.loop_iterations - 1) * result.nominal_s < MIN_LOOP_SECONDS
        assert result.energies_j.shape == (5,)
        assert (result.energies_j > 0).all()

    def test_run_model_only(self, capsys):
        rc = main(["run", "srad", "--size", "large", "--device", "RX 480",
                   "--samples", "5", "--no-execute"])
        assert rc == 0
        assert "validated : False" in capsys.readouterr().out

    def test_figure_small_sample(self, capsys):
        rc = main(["figure", "2c", "--samples", "3"])
        assert rc == 0
        assert "Figure 2c" in capsys.readouterr().out

    def test_figure_csv(self, capsys):
        rc = main(["figure", "2e", "--samples", "3", "--csv"])
        assert rc == 0
        assert "figure,panel,device" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "9z"]) == 2

    def test_verify_sizes(self, capsys):
        rc = main(["verify-sizes", "crc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crc" in out and "L1 miss %" in out


class TestExtendedCommands:
    def test_characterize(self, capsys):
        assert main(["characterize", "--size", "small"]) == 0
        out = capsys.readouterr().out
        assert "AIWC metrics" in out
        assert "MST:" in out

    def test_autotune(self, capsys):
        assert main(["autotune", "fft", "--size", "small",
                     "--device", "GTX 1080"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out and "local size" in out

    def test_schedule_feasible(self, capsys):
        assert main(["schedule", "srad", "--objective", "energy"]) == 0
        assert "<-" in capsys.readouterr().out

    def test_schedule_unsatisfiable(self, capsys):
        rc = main(["schedule", "crc", "--time-budget", "1e-12"])
        assert rc == 1
        assert "no device satisfies" in capsys.readouterr().out

    def test_transfers(self, capsys):
        assert main(["transfers", "csr", "--size", "tiny",
                     "--device", "K20m"]) == 0
        assert "to device" in capsys.readouterr().out

    def test_figure_html_output(self, capsys, tmp_path):
        out_file = tmp_path / "fig.html"
        rc = main(["figure", "3a", "--samples", "3", "--html", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        assert out_file.read_text().startswith("<!doctype html>")


class TestExitCodes:
    """The convention every command follows: 0 = ok, 1 = findings
    (a gate tripped on otherwise-valid input), 2 = usage/config error."""

    def test_constants(self):
        assert (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)

    def test_success_is_exit_ok(self, capsys):
        assert main(["run", "fft", "--size", "tiny", "--device", "GTX 1080",
                     "--samples", "3", "--no-execute"]) == EXIT_OK
        capsys.readouterr()

    def test_unknown_device_is_usage_error(self, capsys):
        rc = main(["run", "fft", "--size", "tiny", "--device", "HAL 9000",
                   "--samples", "3"])
        assert rc == EXIT_USAGE
        assert "unknown device" in capsys.readouterr().err

    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["figure", "9z"]) == EXIT_USAGE
        capsys.readouterr()

    def test_contradictory_sweep_flags_are_usage_error(self, capsys):
        rc = main(["run", "fft", "--size", "tiny", "--samples", "3",
                   "--no-execute", "--no-cache", "--resume"])
        assert rc == EXIT_USAGE
        assert "--resume" in capsys.readouterr().err

    def test_unsatisfiable_schedule_is_findings(self, capsys):
        rc = main(["schedule", "crc", "--time-budget", "1e-12"])
        assert rc == EXIT_FINDINGS
        capsys.readouterr()

    def test_lint_findings_exit_1(self, capsys):
        rc = main(["lint", "--fail-on", "note"])
        out = capsys.readouterr().out
        clean = "0 error(s), 0 warning(s), 0 note(s)" in out
        assert rc == (EXIT_OK if clean else EXIT_FINDINGS)
