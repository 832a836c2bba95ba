"""The command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_table(self, capsys):
        code, out, _err = run(capsys, "estimate", "fig3")
        assert code == 0
        assert "luminance_fig3 summary" in out
        assert "1.4261e-04 W" in out
        assert "Cumulative" in out

    def test_csv(self, capsys):
        code, out, _err = run(capsys, "estimate", "fig1", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "path,power_w,share"
        assert any(line.startswith("luminance_fig1/lut,") for line in lines)

    def test_vdd_override(self, capsys):
        _code, nominal, _err = run(capsys, "estimate", "fig3", "--csv")
        _code, low, _err = run(capsys, "estimate", "fig3", "--vdd", "1.1", "--csv")

        def total(text):
            return sum(
                float(line.split(",")[1])
                for line in text.strip().splitlines()[1:]
            )

        assert total(low) == pytest.approx(
            total(nominal) * (1.1 / 1.5) ** 2, rel=1e-6
        )

    def test_infopad_vdd_targets_custom_supply(self, capsys):
        code, out, _err = run(capsys, "estimate", "infopad", "--depth", "1")
        assert code == 0
        assert "custom_hardware" in out

    def test_unknown_design_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "warp_core"])


class TestCompare:
    def test_default_pair(self, capsys):
        code, out, _err = run(capsys, "compare")
        assert code == 0
        assert "luminance_fig1" in out and "luminance_fig3" in out
        assert "0.181x" in out

    def test_bad_design_name_clean_error(self, capsys):
        code, _out, err = run(capsys, "compare", "fig1", "warp")
        assert code == 2
        assert "unknown design" in err


class TestSweep:
    def test_csv_output(self, capsys):
        code, out, _err = run(capsys, "sweep", "fig3", "VDD", "1.0", "2.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "VDD,power_w"
        values = [line.split(",") for line in lines[1:]]
        assert float(values[1][1]) == pytest.approx(
            4 * float(values[0][1]), rel=1e-6
        )


class TestEngineSweep:
    def test_multi_axis_with_state_and_resume(self, capsys, tmp_path):
        state = str(tmp_path)
        argv = [
            "sweep", "fig1",
            "--axis", "VDD=1.1:3.3:0.4",
            "--workers", "1", "--mode", "serial", "--chunk-size", "2",
            "--state", state,
        ]
        # stop after one chunk: the job checkpoint stays incomplete
        code, out, _err = run(capsys, *argv, "--max-chunks", "1")
        assert code == 1
        assert "--resume job-0001" in out

        # jobs listing shows the interrupted job
        code, out, _err = run(capsys, "jobs", "--state", state)
        assert code == 0
        assert "job-0001" in out and "cancelled" in out

        # resume finishes it and exports
        json_out = tmp_path / "results.json"
        code, out, _err = run(
            capsys, "sweep", "fig1", "--resume", "job-0001",
            "--state", state, "--json-out", str(json_out),
        )
        assert code == 0
        assert json_out.exists()
        code, out, _err = run(capsys, "jobs", "--state", state)
        assert "done" in out

    def test_stateless_sweep_prints_table(self, capsys):
        code, out, _err = run(
            capsys, "sweep", "fig1",
            "--axis", "VDD=1.1,1.5,3.3",
            "--derive", "pw_mw=power * 1000",
        )
        assert code == 0
        assert "VDD" in out and "pw_mw" in out

    def test_legacy_single_parameter_form_still_works(self, capsys):
        code, out, _err = run(capsys, "sweep", "fig3", "VDD", "1.0", "2.0")
        assert code == 0
        assert out.strip().splitlines()[0] == "VDD,power_w"

    def test_failing_coupled_value_fails_only_its_row(self, capsys, tmp_path):
        csv_out = tmp_path / "rows.csv"
        code, out, _err = run(
            capsys, "sweep", "infopad", "--axis", "bw=8,12",
            "--couple", "custom_hardware.luminance_chip.write_bank.bits"
                        "=96 / (bw - 8)",
            "--csv-out", str(csv_out),
        )
        assert code == 0
        assert "1 point(s) failed" in out
        lines = csv_out.read_text().splitlines()
        assert lines[1].startswith("0,8.0,,") and "division by zero" in lines[1]
        assert lines[2].startswith("1,12.0,") and lines[2].endswith(",")

    def test_coupled_typo_stops_before_any_work(self, capsys):
        code, out, err = run(
            capsys, "sweep", "infopad", "--axis", "bw=8,12",
            "--couple", "custom_hardware.luminance_chip.write_bank.bits"
                        "=bww / 2",
        )
        assert code == 2
        assert "reads 'bww'" in err and "ParameterSpace" not in out

    def test_neither_form_is_an_error(self, capsys):
        code, _out, err = run(capsys, "sweep", "fig3")
        assert code == 2
        assert "--axis" in err


class TestOptimize:
    def test_fig3_reports_saving(self, capsys):
        code, out, _err = run(capsys, "optimize", "fig3")
        assert code == 0
        assert "minimum feasible VDD" in out
        assert "saving: 52.9%" in out

    def test_infopad_targets_vdd2(self, capsys):
        code, out, _err = run(capsys, "optimize", "infopad")
        assert code == 0
        assert "VDD2" in out


class TestBattery:
    def test_reports_packs(self, capsys):
        code, out, _err = run(capsys, "battery", "--design", "infopad")
        assert code == 0
        assert "nimh_6v" in out and "nicd_6v" in out
        assert " h" in out


class TestSorting:
    def test_study(self, capsys):
        code, out, _err = run(capsys, "sorting", "-n", "64")
        assert code == 0
        assert "bubble" in out and "merge" in out
        assert "1.0x" in out


class TestCharacterize:
    def test_adder(self, capsys):
        code, out, _err = run(capsys, "characterize", "adder", "--cycles", "60")
        assert code == 0
        assert "c_per_bit" in out
        assert "R^2" in out


class TestSurrogateCLI:
    AXES = [
        "--axis", "VDD=1.0:3.0:0.1",
        "--axis", "f=1e6:3e6:1e5",
    ]

    def test_ephemeral_surrogate_sweep(self, capsys):
        code, out, _err = run(
            capsys, "sweep", "fig1", *self.AXES,
            "--derive", "slowness=1 / VDD",
            "--surrogate", "--train-frac", "0.3", "--verify-top", "10",
        )
        assert code == 0
        assert "surrogate job" in out
        assert "trained on" in out and "error bound" in out

    def test_surrogate_interrupt_resume_byte_identical(
        self, capsys, tmp_path
    ):
        fresh = tmp_path / "fresh.json"
        code, _out, _err = run(
            capsys, "sweep", "fig1", *self.AXES,
            "--surrogate", "--train-frac", "0.3",
            "--json-out", str(fresh),
        )
        assert code == 0

        state = str(tmp_path / "state")
        code, out, _err = run(
            capsys, "sweep", "fig1", *self.AXES,
            "--surrogate", "--train-frac", "0.3",
            "--state", state, "--max-chunks", "1",
        )
        assert code == 1
        assert "--resume job-0001" in out

        resumed = tmp_path / "resumed.json"
        code, out, _err = run(
            capsys, "sweep", "fig1", "--resume", "job-0001",
            "--state", state, "--json-out", str(resumed),
        )
        assert code == 0
        assert resumed.read_text() == fresh.read_text()

    def test_max_error_budget_fails_fast(self, capsys, tmp_path):
        state = str(tmp_path)
        code, _out, err = run(
            capsys, "sweep", "fig1", *self.AXES,
            "--surrogate", "--train-frac", "0.3",
            "--basis", "linear", "--max-error", "1e-12",
            "--state", state,
        )
        assert code == 2
        assert "max-error" in err
        # the job checkpoint records the failure, not a silent wedge
        code, out, _err = run(capsys, "jobs", "--state", state)
        assert code == 0
        assert "failed" in out

    def test_over_cap_error_names_max_points(self, capsys):
        code, _out, err = run(
            capsys, "sweep", "fig1",
            "--axis", "VDD=1.0:3.0:0.0001",
            "--axis", "f=1e6:3e6:1e4",
        )
        assert code == 2
        assert "--max-points" in err

    def test_max_points_raises_the_cap(self, capsys):
        code, out, _err = run(
            capsys, "sweep", "fig1",
            "--axis", "VDD=1.0:3.0:0.01",
            "--axis", "f=1e6:3e6:1e4",  # 201 * 201 > default cap
            "--max-points", "200000", "--surrogate",
        )
        assert code == 0
        assert "surrogate job" in out
