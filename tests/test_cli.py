import argparse
import ast
import csv
import errno
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twistlab
from dicke_oracle import small_phi_slope
from twistlab import closed_form as cf
from twistlab.cli import build_parser, finite, main
from twistlab.closed_form import Direction, X_AXIS, Y_AXIS
from twistlab.numerics import mom_reciprocal
from twistlab.oat_metrology import _mom_limit_terms, protocol_moments, qfi_numeric
from twistlab.optimizer import maximize_slope_ratio

_AXES = {"x": X_AXIS, "y": Y_AXIS}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, [dict(zip(header, row)) for row in rows]


def stable_bytes(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


class TestQfiCommand:
    def test_closed_matches_numeric(self, capsys):
        code, out, _ = run_cli(["qfi", "--n", "20", "--t", "0.4", "--direction", "y"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "t", "xi", "theta", "qfi_closed", "qfi_numeric", "rel_diff"]
        assert float(rows[0]["rel_diff"]) < 1e-9

    def test_small_time_x_keeps_its_digits(self, capsys):
        # the closed form's Sigma_xx and the uncentred variance both cancelled here
        code, out, _ = run_cli(["qfi", "--n", "1000", "--t", "0.0001", "--direction", "x"],
                               capsys)
        assert code == 0
        assert float(csv_rows(out)[1][0]["rel_diff"]) <= 1e-9

    def test_zero_variance_is_not_a_config_error(self, capsys):
        code, out, _ = run_cli(["qfi", "--n", "1000", "--t", "0", "--direction", "x"], capsys)
        assert code == 0
        row = csv_rows(out)[1][0]
        assert abs(float(row["qfi_closed"])) < 1e-20 and 0.0 <= float(row["qfi_numeric"]) < 1e-15

    def test_true_zero_reads_as_agreement(self, capsys):
        # |numeric| is rounding here; the scale is floored at N, the unentangled QFI
        code, out, _ = run_cli(["qfi", "--n", "1000", "--t", "0", "--direction", "x",
                                "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["records"][0]["rel_diff"] <= 1e-9

    def test_rel_diff_above_the_floor_is_relative_to_numeric(self, capsys):
        code, out, _ = run_cli(["qfi", "--n", "20", "--t", "0.4", "--direction", "y",
                                "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)["records"][0]
        assert row["qfi_numeric"] > 20
        assert row["rel_diff"] == abs(row["qfi_closed"] - row["qfi_numeric"]) / row["qfi_numeric"]

    def test_large_n_builds_a_unit_norm_state(self, capsys):
        # the binomial amplitudes once lost their norm to rounding from N ~ 3e5 up
        code, out, _ = run_cli(["qfi", "--n", "300000", "--t", "0.3", "--direction", "y"],
                               capsys)
        assert code == 0
        assert float(csv_rows(out)[1][0]["rel_diff"]) <= 1e-9

    def test_small_time_y_keeps_its_digits(self, capsys):
        # the closed form's Sigma_yy once cancelled its N^2-sized terms: rel_diff 1.1e-5
        code, out, _ = run_cli(["qfi", "--n", "1000000", "--t", "1e-6", "--direction", "y"],
                               capsys)
        assert code == 0
        assert float(csv_rows(out)[1][0]["rel_diff"]) <= 1e-12

    def test_row_names_the_direction_near_the_pole(self, capsys):
        # acos(n_z) once reported xi 0 here, a direction other than the one asked for
        code, out, _ = run_cli(["qfi", "--n", "10", "--t", "0.3", "--direction", "1e-9,0.5",
                                "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["records"][0]["xi"] == pytest.approx(1e-9, rel=1e-12, abs=0)

    def test_bad_n_is_config_error(self, capsys):
        code, _, err = run_cli(["qfi", "--n", "0", "--t", "0.4"], capsys)
        assert code == 2
        assert "need at least one particle" in err

    def test_seed_is_a_verify_option_only(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["qfi", "--n", "4", "--t", "0.4", "--seed", "1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        _, out, _ = run_cli(["qfi", "--n", "4", "--t", "0.4", "--format", "json"], capsys)
        assert "seed" not in json.loads(out)["meta"]["config"]
        _, out, _ = run_cli(["verify", "--suite", "ghz", "--seed", "3", "--format", "json"],
                            capsys)
        assert json.loads(out)["meta"]["config"]["seed"] == 3


class TestMomCommand:
    def test_cat_protocol_value(self, capsys):
        code, out, _ = run_cli(["mom", "--n", "4", "--t", "1.5707963", "--variant",
                                "twist-untwist", "--rot", "x", "--readout", "x",
                                "--phi", "0.1"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "t", "phi", "n_x", "n_y", "n_z", "m_x", "m_y", "m_z",
                          "reciprocal_error", "qfi", "flag"]
        assert float(rows[0]["reciprocal_error"]) == pytest.approx(16.0, rel=1e-5)
        assert rows[0]["flag"] == "ok"

    def test_tiny_phi_is_a_row(self, capsys):
        # a Bessel recurrence factor 2k/z overflowed here, ending in an IndexError traceback
        code, out, _ = run_cli(["mom", "--n", "20", "--t", "0.1", "--phi", "1e-140"], capsys)
        assert code == 0
        assert csv_rows(out)[1][0]["flag"] in ("ok", "indeterminate")

    def test_huge_phi_is_a_row_and_an_overflowed_angle_a_numerical_failure(self, capsys):
        # the rotation is 4 pi periodic, so 1e308 is a row; 1e308 - (-1e308) is inf
        code, out, _ = run_cli(["mom", "--n", "20", "--t", "0.1", "--phi", "1e308"], capsys)
        assert code == 0 and csv_rows(out)[1][0]["flag"] in ("ok", "indeterminate")
        code, out, err = run_cli(["mom", "--n", "20", "--t", "0.1", "--variant", "realigned",
                                  "--phi", "1e308", "--realign-phi=-1e308"], capsys)
        assert (code, out) == (3, "") and err.startswith("numerical failure: the rotation angle")

    def test_indeterminate_point_flagged_not_fatal(self, capsys):
        phi = 2 * math.pi / 4
        code, out, _ = run_cli(["mom", "--n", "4", "--t", str(math.pi / 2), "--rot", "x",
                                "--readout", "x", "--phi", str(phi)], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["flag"] == "indeterminate"
        assert rows[0]["reciprocal_error"] == ""

    def test_axis_parsing(self, capsys):
        code, out, _ = run_cli(["mom", "--n", "6", "--t", "0.3", "--phi", "0.2",
                                "--rot", "1.0472,0.5", "--readout", "y"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0]["n_z"]) == pytest.approx(0.5, abs=1e-4)

    def test_bad_axis_is_config_error(self, capsys):
        code, _, err = run_cli(["mom", "--n", "6", "--t", "0.3", "--phi", "0.2",
                                "--rot", "sideways"], capsys)
        assert code == 2
        assert "axis" in err

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_mach_zehnder_row_describes_its_sensing_axis(self, capsys, axis):
        # --rot is x and unused: the row's axis and QFI are those of --mz-axis
        code, out, _ = run_cli(["mom", "--n", "20", "--t", "0.02", "--phi", "0.05",
                                "--variant", "mach-zehnder", "--mz-axis", axis,
                                "--readout", "z"], capsys)
        assert code == 0
        row = csv_rows(out)[1][0]
        assert [float(row[f"n_{c}"]) for c in "xyz"] == [float(axis == c) for c in "xyz"]
        assert float(row["qfi"]) == pytest.approx(qfi_numeric(20, 0.02, _AXES[axis]), rel=1e-12)
        assert float(row["reciprocal_error"]) <= float(row["qfi"])
        if axis == "y":
            assert float(row["qfi"]) == pytest.approx(22.717, abs=1e-3)

    @pytest.mark.parametrize("variant", ["twist-untwist", "rotation-only"])
    def test_realign_phi_without_realignment_is_config_error(self, capsys, variant):
        code, out, err = run_cli(["mom", "--n", "6", "--t", "0.3", "--phi", "0.2",
                                  "--variant", variant, "--realign-phi", "0.3"], capsys)
        assert code == 2
        assert "--realign-phi" in err
        assert out == ""

    @pytest.mark.parametrize("variant, sensing_axis", [
        (["--variant", "realigned", "--rot", "1.1,0.3"], "1.1,0.3"),
        (["--variant", "mach-zehnder", "--mz-axis", "y"], "y")], ids=["realigned", "mz-y"])
    def test_realigned_variants_are_one_shifted_rotation(self, capsys, variant, sensing_axis):
        # realigned senses about --rot, mach-zehnder about --mz-axis, each by phi - realign-phi
        phi, realign = 0.37, 0.11

        def record(argv):
            code, out, _ = run_cli(["mom", "--n", "12", "--t", "0.4", "--readout", "0.7,0.2",
                                    "--format", "json", *argv], capsys)
            assert code == 0
            return json.loads(out)["records"][0]

        got = record([*variant, "--phi", repr(phi), "--realign-phi", repr(realign)])
        shifted = record(["--variant", "twist-untwist", "--rot", sensing_axis,
                          "--phi", repr(phi - realign)])
        assert got["flag"] == "ok"
        for col in ("reciprocal_error", "qfi", "n_x", "n_y", "n_z"):
            assert got[col] == shifted[col], col


class TestPhaseDiagram:
    def test_schema_and_endpoint(self, capsys):
        code, out, _ = run_cli(["phase-diagram", "--n", "24", "--q-points", "12"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "q", "t", "qfi_max", "xi_opt", "theta_opt", "regime"]
        assert len(rows) == 12
        last = rows[-1]
        assert float(last["t"]) == pytest.approx(math.pi / 2, abs=1e-12)
        assert float(last["qfi_max"]) == pytest.approx(24.0**2, rel=1e-9)

    def test_full_diagram_n100(self, capsys):
        code, out, _ = run_cli(["phase-diagram", "--n", "100"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 60
        assert float(rows[-1]["t"]) == pytest.approx(math.pi / 2, abs=1e-12)
        assert float(rows[-1]["qfi_max"]) == pytest.approx(10000.0, rel=1e-9)
        sql_rows = [r for r in rows if abs(float(r["q"]) + 2.0) < 0.04]
        assert sql_rows and float(sql_rows[0]["qfi_max"]) == pytest.approx(100.0, rel=0.02)

    def test_overflowed_interaction_time_is_pi_over_2(self, capsys):
        # t = min(N^q, pi/2), but N^q past the largest float exited 3 with
        # "numerical failure: (34, 'Numerical result out of range')"
        code, out, err = run_cli(["phase-diagram", "--n", "100", "--q-min", "-1", "--q-max",
                                  "400", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["records"][-1]["t"] == math.pi / 2


class TestTwistUntwistScan:
    def test_schema_and_qcri_ordering(self, capsys):
        code, out, _ = run_cli(["twist-untwist-scan", "--n-min", "8", "--n-max", "12",
                                "--n-step", "4", "--exponent", "-0.5", "--rot", "y"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "t", "phi", "rot", "qfi_max", "mom_opt", "mom_fixed_rot",
                          "mom_fixed_x", "mom_at_zero", "flag"]
        assert [r["N"] for r in rows] == ["8", "12"]
        for row in rows:
            qfi = float(row["qfi_max"])
            for col in ("mom_opt", "mom_fixed_rot", "mom_fixed_x"):
                if row[col]:
                    assert float(row[col]) <= qfi + 1e-6
            assert float(row["mom_opt"]) >= float(row["mom_fixed_rot"]) - 1e-9

    @pytest.mark.parametrize("rot", ["x", "1.1,0.3"])
    def test_row_values_match_the_library(self, capsys, rot):
        code, out, _ = run_cli(["twist-untwist-scan", "--n-min", "8", "--n-max", "12",
                                "--n-step", "4", "--exponent", "-0.5", "--rot", rot,
                                "--format", "json"], capsys)
        assert code == 0
        rotation = X_AXIS if rot == "x" else Direction.from_angles(1.1, 0.3)
        rows = json.loads(out)["records"]
        assert [r["N"] for r in rows] == [8, 12]
        for row in rows:
            moments = protocol_moments(row["N"], row["t"], row["phi"], rotation)
            expected = {"mom_opt": maximize_slope_ratio(*moments).value,
                        "mom_fixed_rot": mom_reciprocal(*moments, rotation.as_array()),
                        "mom_fixed_x": mom_reciprocal(*moments, X_AXIS.as_array())}
            for col, value in expected.items():
                assert row[col] == pytest.approx(value, rel=1e-12)

    def test_csv_reader_sees_the_json_values(self, capsys):
        # the rot cell "1.1,0.3" is quoted, so later cells keep their columns
        args = ["twist-untwist-scan", "--n-min", "8", "--n-max", "12", "--n-step", "4",
                "--exponent", "-0.5", "--rot", "1.1,0.3"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        csv_records = list(csv.DictReader(ln for ln in out.splitlines()
                                          if not ln.startswith("#")))
        json_records = json.loads(json_out)["records"]
        assert len(csv_records) == len(json_records) == 2
        for got, want in zip(csv_records, json_records):
            assert got["rot"] == "1.1,0.3"
            for col in ("mom_opt", "mom_fixed_rot", "mom_fixed_x"):
                assert float(got[col]) == want[col]

    @pytest.mark.parametrize("n, exponent", [(2000, "-2"), (10**4, "-1.5"), (10**5, "-1.2")])
    def test_small_time_limit_keeps_its_digits(self, capsys, n, exponent):
        # x rotation, x readout: the limit is C_xx^2 / B_xx with C_xx the exact slope.
        # C by difference printed 4.3856e-7, 2.0476e-4 and 1.90349e-2 for 4.9975003e-7,
        # 1.99985e-4 and 2.00498e-2
        code, out, _ = run_cli(["twist-untwist-scan", "--n-min", str(n), "--n-max", str(n),
                                "--exponent", exponent, "--rot", "x", "--format", "json"],
                               capsys)
        assert code == 0
        row = json.loads(out)["records"][0]
        exact = small_phi_slope(n, row["t"]) ** 2 / _mom_limit_terms(n, row["t"])[2][0, 0]
        assert abs(row["mom_at_zero"] - exact) <= 1e-10 * exact

    def test_zero_over_zero_readout_axis_flags_a_lower_bound(self, capsys):
        # at t = N^-4 the mean-spin axis is 0/0: the fixed x readout has no value, and the
        # best readout leaves that axis out, so mom_opt is a lower bound
        code, out, _ = run_cli(["twist-untwist-scan", "--n-min", "12", "--n-max", "12",
                                "--exponent", "-4"], capsys)
        assert code == 0
        row = csv_rows(out)[1][0]
        assert row["flag"] == "lower_bound"
        assert row["mom_fixed_x"] == ""
        assert 0.0 <= float(row["mom_opt"]) <= float(row["qfi_max"])

    def test_limit_failure_is_not_an_empty_cell(self, capsys, monkeypatch):
        import twistlab.oat_metrology as oat

        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow in the phi -> 0 limit")

        monkeypatch.setattr(oat, "mom_reciprocal_at_zero", overflow)
        code, out, err = run_cli(["twist-untwist-scan", "--n-min", "8", "--n-max", "8",
                                  "--exponent", "-0.5"], capsys)
        assert code == 3
        assert err.startswith("numerical failure: overflow")
        assert out == ""

    def test_failure_writes_no_output_file(self, capsys, monkeypatch, tmp_path):
        import twistlab.oat_metrology as oat

        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow in the phi -> 0 limit")

        monkeypatch.setattr(oat, "mom_reciprocal_at_zero", overflow)
        path = tmp_path / "scan.json"
        code, _, _ = run_cli(["twist-untwist-scan", "--n-min", "8", "--n-max", "8",
                              "--exponent", "-0.5", "--format", "json", "--output", str(path)],
                             capsys)
        assert code == 3
        assert not path.exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = ["fr-qfi", "--n", "16", "--k", "4", "--t-points", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert stable_bytes(out1) == stable_bytes(out2)
        assert out1.splitlines()[0].startswith("# generated")

    def test_json_fully_reproducible(self, capsys):
        args = ["qfi", "--n", "12", "--t", "0.7", "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["meta"]["config"]["n"] == 12
        assert len(payload["records"]) == 1

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(["qfi", "--n", "7", "--t", "0.3333333333333333"], capsys)
        _, rows = csv_rows(out)
        # %.17g: printed values round-trip to the exact binary float
        assert rows[0]["t"] == "0.33333333333333331"
        assert float(rows[0]["t"]) == 0.3333333333333333
        assert float(rows[0]["qfi_closed"]) == float(f"{float(rows[0]['qfi_closed']):.17g}")


class TestFrCommands:
    def test_fr_qfi_schema(self, capsys):
        code, out, _ = run_cli(["fr-qfi", "--n", "20", "--k", "5", "--t-points", "5"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "K", "t", "branch", "var_max", "qfi", "qfi_db",
                          "overlay_inter", "overlay_largescale"]
        for row in rows:
            qfi = float(row["qfi"])
            assert float(row["var_max"]) == pytest.approx(qfi / 4, rel=1e-12)
            assert float(row["qfi_db"]) == pytest.approx(10 * math.log10(qfi / 22), rel=1e-9)

    def test_fr_qfi_on_a_billion_site_ring(self, capsys):
        # the closed form sums O(K) pair classes; per-distance arrays needed tens of GB
        code, out, _ = run_cli(["fr-qfi", "--n", "999999998", "--k", "10", "--t-points", "3"],
                               capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3 and all(math.isfinite(float(r["qfi"])) for r in rows)

    @pytest.mark.parametrize("t", ["1e-170", "1e-160"])
    def test_fr_qfi_leaves_a_divergent_overlay_empty(self, capsys, t):
        # M/sin^2 t raised ZeroDivisionError (exit 3) at 1e-170, where sin^2 t underflows,
        # and wrote Infinity, which is no JSON, at 1e-160; the row keeps its QFI
        argv = ["fr-qfi", "--n", "10", "--k", "2", "--t-min", t, "--t-max", t, "--t-points", "1"]
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert (code, err) == (0, "")
        (row,) = json.loads(out, parse_constant=pytest.fail)["records"]
        assert row["overlay_inter"] is None and row["qfi"] == 12.0
        assert math.isfinite(row["overlay_largescale"])
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and csv_rows(out)[1][0]["overlay_inter"] == ""

    def test_fr_qfi_builds_the_ring_classes_once(self, capsys):
        cf._ring_classes.cache_clear()
        code, _, _ = run_cli(["fr-qfi", "--n", "998", "--k", "300", "--t-points", "6",
                              "--format", "json"], capsys)
        info = cf._ring_classes.cache_info()
        assert code == 0 and (info.misses, info.hits) == (1, 5)

    def test_fr_variance_brute_column(self, capsys):
        code, out, _ = run_cli(["fr-variance", "--n", "6", "--k", "2", "--t", "0.6",
                                "--xi", "1.1", "--theta", "0.3", "--brute"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "K", "t", "xi", "theta", "var_analytic", "var_brute", "rel_err"]
        assert float(rows[0]["rel_err"]) < 1e-9

    def test_k_out_of_range(self, capsys):
        code, _, err = run_cli(["fr-qfi", "--n", "10", "--k", "6"], capsys)
        assert code == 2
        assert "1 <= K <= N/2" in err

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_fr_optimize_empty_time_grid_is_config_error(self, capsys, points):
        # no row would reach the library's checks, so --phi 0 would pass unseen
        code, out, err = run_cli(["fr-optimize", "--n", "4", "--k", "1", "--phi", "0",
                                  "--t-points", points], capsys)
        assert code == 2
        assert "--t-points must be positive" in err
        assert out == ""

    def test_fr_variance_keeps_its_digits_at_small_t(self, capsys):
        # Sigma_xx once cancelled terms of size M^2/4 and was off by 3.9e-8 here
        code, out, _ = run_cli(["fr-variance", "--n", "8", "--k", "2", "--t", "1e-4",
                                "--brute"], capsys)
        assert code == 0
        assert float(csv_rows(out)[1][0]["rel_err"]) <= 1e-12

    def test_fr_variance_true_zero_reads_as_agreement(self, capsys):
        # Var(Jx) of |+> is 0: a 1e-300 floor on the scale read 9.4e-33 as rel_err 9.4e+267
        code, out, _ = run_cli(["fr-variance", "--n", "8", "--k", "2", "--t", "0", "--brute"],
                               capsys)
        assert code == 0
        row = csv_rows(out)[1][0]
        assert float(row["var_brute"]) == 0.0
        assert float(row["rel_err"]) <= 1e-12

    def test_fr_variance_brute_at_twenty_sites(self, capsys):
        code, out, _ = run_cli(["fr-variance", "--n", "18", "--k", "9", "--t", "0.7",
                                "--xi", "1.1", "--theta", "0.4", "--brute"], capsys)
        assert code == 0
        assert float(csv_rows(out)[1][0]["rel_err"]) <= 1e-9

    @pytest.mark.parametrize("argv", [
        ["fr-variance", "--n", "20", "--k", "2", "--t", "0.3", "--brute"],
        ["verify", "--suite", "appendix-c", "--sites", "22"],
    ], ids=["fr-variance", "verify"])
    def test_statevector_cap_names_twenty_sites(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert re.search(r"\b20\b", err), err

    def test_fr_optimize_small(self, capsys):
        code, out, _ = run_cli(["fr-optimize", "--n", "4", "--k", "1", "--t-points", "4"],
                               capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "K", "t", "phi", "mom_opt", "mom_kind", "qfi", "mom_limit",
                          "limit_kind", "n_x", "n_y", "n_z", "m_x", "m_y", "m_z"]
        for row in rows:
            assert float(row["mom_opt"]) <= float(row["qfi"]) + 1e-6
            assert row["mom_kind"] == row["limit_kind"] == "attained"


class TestHusimi:
    def test_density_quadrature(self, capsys):
        code, out, _ = run_cli(["husimi", "--n", "6", "--t", "0.5", "--xi-points", "121",
                                "--theta-points", "241", "--density"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["xi", "theta", "q"]
        xi = np.array([float(r["xi"]) for r in rows])
        q = np.array([float(r["q"]) for r in rows])
        dxi = math.pi / 120
        dth = 2 * math.pi / 240
        # trapezoid-ish Riemann sum; endpoint rows double-count theta = +-pi
        integral = np.sum(q * np.sin(xi)) * dxi * dth * (240 / 241) * (120 / 121)
        assert integral == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("flag", ["--xi-points", "--theta-points"])
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_empty_grid_is_config_error(self, capsys, flag, points):
        code, out, err = run_cli(["husimi", "--n", "6", "--t", "0.5", flag, points], capsys)
        assert code == 2
        assert "--xi-points and --theta-points must be at least 1" in err
        assert out == ""


class TestVerify:
    def test_appendix_c_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "appendix-c", "--sites", "8"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["suite", "check", "cases", "max_error", "tolerance", "status"]
        assert rows[0]["status"] == "pass"
        assert float(rows[0]["max_error"]) < 1e-9

    def test_ghz_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "ghz"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["status"] == "pass"

    def test_ghz_suite_near_a_fringe_extremum(self, capsys):
        # seed 45698 draws N phi 2.3e-6 from pi at N = 10
        code, out, _ = run_cli(["verify", "--suite", "ghz", "--seed", "45698"], capsys)
        assert code == 0
        assert float(csv_rows(out)[1][0]["max_error"]) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_qcri_suite_checks_every_variant(self, capsys, monkeypatch, seed):
        # each value is bounded by the QFI about its sensing axis, which for
        # Mach-Zehnder is mz_axis: the rotation's QFI is exceeded by up to 496
        import twistlab.oat_metrology as oat
        drawn = set()
        computed = oat.sensing

        def recording(variant, rotation, angle, realign_angle, mz_axis):
            drawn.add((variant, mz_axis if variant == "mach_zehnder" else ""))
            return computed(variant, rotation, angle, realign_angle, mz_axis)

        monkeypatch.setattr(oat, "sensing", recording)
        code, out, _ = run_cli(["verify", "--suite", "qcri", "--seed", str(seed)], capsys)
        assert code == 0
        assert csv_rows(out)[1][0]["status"] == "pass"
        assert {("mach_zehnder", "x"), ("mach_zehnder", "y")} <= drawn
        assert {variant for variant, _ in drawn} == set(oat.VARIANTS)

    def test_bad_sites_config_error(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "appendix-c", "--sites", "7"], capsys)
        assert code == 2

    @pytest.mark.parametrize("suite, draws", [("qcri", "0"), ("qcri", "-3"),
                                              ("closed-form", "-3"), ("all", "0")])
    def test_draws_below_one_is_config_error(self, capsys, suite, draws):
        # once a pass with "cases": 0 and "max_error": -Infinity, or "cases": -3
        code, out, err = run_cli(["verify", "--suite", suite, "--draws", draws,
                                  "--format", "json"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: --draws")

    def test_suite_passes_up_to_its_tolerance(self, capsys, monkeypatch):
        import twistlab.cli as cli

        for worst, status in ((1e-12, "pass"), (math.nextafter(1e-12, 1.0), "fail"),
                              (math.nan, "fail")):
            suite = (lambda args, rng, e=worst: [0.0, e], "c", 1e-12)
            monkeypatch.setitem(cli._SUITES, "ghz", suite)
            _, out, _ = run_cli(["verify", "--suite", "ghz", "--format", "json"], capsys)
            row = json.loads(out)["records"][0]
            assert (row["cases"], row["status"]) == (2, status)

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        import twistlab.cli as cli

        monkeypatch.setitem(cli._SUITES, "closed-form",
                            (lambda args, rng: iter([1.0]), "forced failure", 1e-9))
        code, _, err = run_cli(["verify", "--suite", "closed-form"], capsys)
        assert code == 3
        assert "verification failure" in err

    @pytest.mark.parametrize("case", [0, 17, 39])
    def test_one_nan_case_fails_its_suite(self, capsys, monkeypatch, case):
        # Python's max kept a running 0.0 past a NaN, so this suite read pass, max_error 0.0
        import twistlab.oat_metrology as oat
        computed, calls = oat.ghz_parity_error, []

        def nan_once(n, phi):
            calls.append(n)
            return math.nan if len(calls) == case + 1 else computed(n, phi)

        monkeypatch.setattr(oat, "ghz_parity_error", nan_once)
        code, out, err = run_cli(["verify", "--suite", "ghz", "--format", "json"], capsys)
        row = json.loads(out)["records"][0]
        assert (row["cases"], row["status"], math.isnan(row["max_error"])) == (40, "fail", True)
        assert code == 3
        assert err.startswith("verification failure: ghz: max_error nan")

    def test_arithmetic_error_exits_three(self, capsys, monkeypatch):
        import twistlab.oat_metrology as oat
        from twistlab.closed_form import IndeterminateRatioError

        def indeterminate(*args, **kwargs):
            raise IndeterminateRatioError(0.0, 0.0)

        monkeypatch.setattr(oat, "qfi_numeric", indeterminate)
        code, out, err = run_cli(["qfi", "--n", "20", "--t", "0.4"], capsys)
        assert code == 3
        assert err.startswith("numerical failure: indeterminate ratio")
        assert out == ""

    # at seeds 2 and 6 the largest error of each suite has a variance below its
    # floor, so a suite with an error of its own would report another number
    @pytest.mark.parametrize("seed", [2, 6])
    def test_closed_form_suite_reports_the_qfi_command_error(self, capsys, seed):
        # the suite's draws, replayed through qfi: one floored error for both
        rng, errors = random.Random(seed), []
        for _ in range(3):
            n, t = rng.randint(2, 50), rng.uniform(1e-6, math.pi / 2)
            xi, theta = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
            _, out, _ = run_cli(["qfi", "--n", str(n), "--t", repr(t), "--direction",
                                 f"{xi!r},{theta!r}", "--format", "json"], capsys)
            errors.append(json.loads(out)["records"][0]["rel_diff"])
        _, out, _ = run_cli(["verify", "--suite", "closed-form", "--draws", "3", "--seed",
                             str(seed), "--format", "json"], capsys)
        assert json.loads(out)["records"][0]["max_error"] == max(errors)

    @pytest.mark.parametrize("seed", [2, 6])
    def test_appendix_c_suite_reports_the_fr_variance_error(self, capsys, seed):
        rng, errors = random.Random(seed), []
        for k in (1, 2):
            for _ in range(10):
                t, xi = rng.uniform(1e-3, math.pi / 2), rng.uniform(0.1, math.pi - 0.1)
                theta = rng.uniform(-math.pi, math.pi)
                _, out, _ = run_cli(["fr-variance", "--n", "4", "--k", str(k), "--t", repr(t),
                                     "--xi", repr(xi), "--theta", repr(theta), "--brute",
                                     "--format", "json"], capsys)
                errors.append(json.loads(out)["records"][0]["rel_err"])
        _, out, _ = run_cli(["verify", "--suite", "appendix-c", "--sites", "6", "--seed",
                             str(seed), "--format", "json"], capsys)
        assert json.loads(out)["records"][0]["max_error"] == max(errors)

    def test_off_norm_state_exits_three(self, capsys, monkeypatch):
        import twistlab.spin_core as sc
        built = sc.coherent_state

        def off_norm(n, zeta):
            return sc.CollectiveState(n, built(n, zeta).amplitudes * (1.0 + 1e-9))

        monkeypatch.setattr(sc, "coherent_state", off_norm)
        code, out, err = run_cli(["qfi", "--n", "20", "--t", "0.4"], capsys)
        assert code == 3
        assert err.startswith("numerical failure: state norm deviates from 1")
        assert out == ""


# each input once failed a CLI-side check that repeated a library check; the
# library check now reports it
LIBRARY_CHECKED = {
    "phase-diagram-n": ["phase-diagram", "--n", "1"],
    "qfi-n": ["qfi", "--n", "0", "--t", "0.4"],
    "mom-n": ["mom", "--n", "0", "--t", "0.4", "--phi", "0.1"],
    "husimi-n": ["husimi", "--n", "0", "--t", "0.4"],
    "fr-variance-odd-n": ["fr-variance", "--n", "5", "--k", "1", "--t", "0.3"],
    "fr-variance-k": ["fr-variance", "--n", "6", "--k", "4", "--t", "0.3"],
    "fr-variance-brute-sites": ["fr-variance", "--n", "20", "--k", "2", "--t", "0.3", "--brute"],
    "fr-qfi-k": ["fr-qfi", "--n", "10", "--k", "0"],
    "fr-optimize-k": ["fr-optimize", "--n", "8", "--k", "5", "--t-points", "1"],
    "fr-optimize-sites": ["fr-optimize", "--n", "20", "--k", "2", "--t-points", "1"],
    "fr-optimize-phi": ["fr-optimize", "--n", "4", "--k", "1", "--phi", "0", "--t-points", "1"],
}


@pytest.mark.parametrize("argv", LIBRARY_CHECKED.values(), ids=LIBRARY_CHECKED.keys())
def test_library_checks_exit_two(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("configuration error: ")
    assert out == ""


# CLI-side checks of each command's own options
CLI_CHECKED = {
    "phase-diagram-q-points": ["phase-diagram", "--n", "10", "--q-points", "1"],
    "phase-diagram-negative-t": ["phase-diagram", "--n", "100", "--q-min", "-2000",
                                 "--q-points", "3"],
    "twist-untwist-scan-n-min": ["twist-untwist-scan", "--n-min", "3", "--n-max", "5",
                                 "--exponent", "-0.5"],
    "fr-qfi-t-points": ["fr-qfi", "--n", "8", "--k", "1", "--t-points", "0"],
    "fr-qfi-t-max": ["fr-qfi", "--n", "8", "--k", "1", "--t-max", "2"],
    "fr-optimize-t-points": ["fr-optimize", "--n", "4", "--k", "1", "--t-points", "0"],
}


@pytest.mark.parametrize("argv", CLI_CHECKED.values(), ids=CLI_CHECKED.keys())
def test_cli_checks_exit_two(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("configuration error: ")
    assert out == ""


def test_unwritable_output_is_a_config_error(capsys, tmp_path):
    # once a FileNotFoundError traceback and exit 1
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["qfi", "--n", "4", "--t", "0.1", "--output", str(target)], capsys)
    assert code == 2
    assert err.startswith(f"configuration error: cannot write --output {target}")
    assert out == ""
    assert not target.parent.exists()


# each once ended in a BrokenPipeError or OSError traceback and exit 1; the husimi
# rows fail mid-write, qfi's single row at the final flush
WRITE_FAILURES = {"husimi-csv": ["husimi", "--n", "200", "--t", "0.1"],
                  "qfi-json": ["qfi", "--n", "10", "--t", "0.1", "--format", "json"]}


def _run_into(argv, stdout):
    """twistlab argv in a fresh interpreter with stdout on the given file or descriptor."""
    return subprocess.run([sys.executable, "-m", "twistlab", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=_child_env(), timeout=60)


@pytest.mark.parametrize("argv", WRITE_FAILURES.values(), ids=WRITE_FAILURES.keys())
def test_closed_pipe_is_one_line_and_exit_two(argv):
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        proc = _run_into(argv, write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    # one line: no traceback, and no second report from stdout's flush at exit
    assert proc.stderr == f"configuration error: cannot write output: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", WRITE_FAILURES.values(), ids=WRITE_FAILURES.keys())
def test_full_device_is_one_line_and_exit_two(argv):
    with open("/dev/full", "w") as full:
        proc = _run_into(argv, full)
    assert proc.returncode == 2
    assert proc.stderr == f"configuration error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_path_is_a_config_error(capsys):
    code, out, err = run_cli(["qfi", "--n", "4", "--t", "0.1", "--output", "/dev/full"], capsys)
    assert code == 2
    assert err == f"configuration error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert out == ""


SUBCOMMANDS = ("qfi", "mom", "phase-diagram", "twist-untwist-scan", "fr-variance", "fr-qfi",
               "fr-optimize", "husimi", "verify")


@pytest.mark.parametrize("sub", [[], *([name] for name in SUBCOMMANDS)],
                         ids=["twistlab", *SUBCOMMANDS])
def test_help_exits_zero(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        main([*sub, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: twistlab", *sub]))
    assert err == ""


# each once exited 0 with nan rows, 1 with a StopIteration traceback, or 3 as a
# numerical failure, or gave "cannot convert float NaN to integer"
NON_FINITE = {
    "husimi-t-nan": ["husimi", "--n", "10", "--t", "nan"],
    "husimi-t-inf": ["husimi", "--n", "10", "--t", "inf"],
    "qfi-t-nan": ["qfi", "--n", "10", "--t", "nan"],
    "mom-phi-nan": ["mom", "--n", "10", "--t", "0.3", "--phi", "nan"],
    "fr-variance-xi-nan": ["fr-variance", "--n", "6", "--k", "1", "--t", "0.3", "--xi", "nan"],
    "fr-qfi-t-min-nan": ["fr-qfi", "--n", "10", "--k", "2", "--t-min", "nan"],
    "phase-diagram-q-min-nan": ["phase-diagram", "--n", "100", "--q-min", "nan"],
    "twist-untwist-scan-exponent-nan": ["twist-untwist-scan", "--exponent", "nan"],
}
NON_FINITE_AXIS = {
    "qfi-direction-nan": ["qfi", "--n", "10", "--t", "0.3", "--direction", "nan,0"],
    "mom-rot-nan": ["mom", "--n", "10", "--t", "0.3", "--phi", "0.1", "--rot", "nan,0"],
    "mom-readout-theta-inf": ["mom", "--n", "10", "--t", "0.3", "--phi", "0.1",
                              "--readout", "1.0,inf"],
}


@pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_option_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert "invalid finite value" in err
    assert out == ""


@pytest.mark.parametrize("argv", NON_FINITE_AXIS.values(), ids=NON_FINITE_AXIS.keys())
def test_non_finite_axis_exits_two(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("configuration error: axis must be x, y, z or finite 'xi,theta'")
    assert out == ""


# the closed-form covariance once took cos(2t) of an overflowed 2t and read as
# "configuration error: math domain error"; where only the twist phase t m^2 (t K M/2
# on the ring) overflows, numpy warned of overflow and invalid values, and the run
# blamed the state norm
@pytest.mark.parametrize("argv", [["qfi", "--n", "20", "--t", "1e308"],
                                  ["fr-variance", "--n", "6", "--k", "2", "--t", "1e308"],
                                  ["fr-variance", "--n", "6", "--k", "2", "--t", "1e308",
                                   "--brute"],
                                  ["husimi", "--n", "1000", "--t", "1e303"],
                                  ["mom", "--n", "10", "--t", "1e308", "--phi", "0.1"],
                                  ["qfi", "--n", "20", "--t", "4.49e307"],
                                  ["fr-variance", "--n", "12", "--k", "6", "--t", "1e307",
                                   "--xi", "1", "--theta", "0", "--brute"],
                                  ["twist-untwist-scan", "--n-min", "4", "--n-max", "4",
                                   "--exponent", "600"]], ids=" ".join)
def test_overflowed_interaction_time_is_a_numerical_failure(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: interaction time")


# a small valid run of each command that takes a finite option
FINITE_BASE = {
    "qfi": ["qfi", "--n", "4", "--t", "0.3"],
    "mom": ["mom", "--n", "4", "--t", "0.3", "--phi", "0.1", "--variant", "realigned"],
    "phase-diagram": ["phase-diagram", "--n", "10", "--q-points", "2"],
    "twist-untwist-scan": ["twist-untwist-scan", "--n-min", "4", "--n-max", "4",
                           "--exponent", "-0.5"],
    "fr-variance": ["fr-variance", "--n", "4", "--k", "1", "--t", "0.3"],
    "fr-qfi": ["fr-qfi", "--n", "4", "--k", "1", "--t-points", "2"],
    "fr-optimize": ["fr-optimize", "--n", "2", "--k", "1", "--t-points", "1"],
    "husimi": ["husimi", "--n", "4", "--t", "0.3", "--xi-points", "2", "--theta-points", "2"],
}


def _negative_values():
    """(command, option, value) for every finite option, with a value in e notation, and
    one axis option."""
    (commands,) = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    cases = [(name, action.option_strings[0], "-1e-3")
             for name, sub in commands.choices.items() for action in sub._actions
             if action.type is finite] + [("qfi", "--direction", "-0.3,1.0")]
    return [pytest.param(*case, id=" ".join(case)) for case in cases]


# argparse as in Python 3.11 reads a token that starts with "-" and is not a plain
# decimal as an option, so "--theta -1e-3" exited 2 with "expected one argument"
@pytest.mark.parametrize("command, option, value", _negative_values())
def test_negative_value_reads_as_its_equals_form(capsys, command, option, value):
    argv = FINITE_BASE[command] + ["--format", "json"]
    assert run_cli(argv + [option, value], capsys) == run_cli(argv + [f"{option}={value}"],
                                                              capsys)


# one small run of each command, together entering every function of the package: a
# CSV run (_fmt), a 0/0 point (the cat protocol at phi = 2 pi/N) and t past pi/4, where
# cos 2t < 0 and the powers are decimal ones
REACHING_COMMANDS = [
    ["qfi", "--n", "6", "--t", "1.0", "--direction", "0.7,0.3"],
    ["mom", "--n", "4", "--t", str(math.pi / 2), "--phi", str(math.pi / 2)],
    ["phase-diagram", "--n", "10", "--q-points", "3"],
    ["twist-untwist-scan", "--n-min", "4", "--n-max", "4", "--exponent", "-0.5"],
    ["fr-variance", "--n", "2", "--k", "1", "--t", "0.3", "--brute"],
    ["fr-qfi", "--n", "4", "--k", "1", "--t-points", "2"],
    ["fr-optimize", "--n", "2", "--k", "1", "--t-points", "2"],
    ["husimi", "--n", "4", "--t", "0.3", "--xi-points", "2", "--theta-points", "2"],
    ["verify", "--sites", "4", "--draws", "2"],
]
# safety code with tests of its own: Direction's checked _replace and a frozen class's
# rebinding, deletion and pickling
UNREACHED = {"Direction._make", "_Frozen.__setattr__", "_Frozen.__delattr__",
             "_Frozen.__reduce__"}


def _defs(node, prefix=""):
    """(qualified name, first line with its decorators) of every def under node."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _defs(child, prefix)
            continue
        if isinstance(child, ast.FunctionDef):
            yield prefix + child.name, min([child.lineno] + [d.lineno for d in child.decorator_list])
        yield from _defs(child, prefix + child.name + ".")


def test_every_library_function_runs_under_some_command(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((os.path.realpath(frame.f_code.co_filename), frame.f_code.co_firstlineno))

    cf._ring_classes.cache_clear()  # an earlier test may hold fr-qfi's classes
    sys.setprofile(profile)
    try:
        codes = [main(argv + ["--output", str(tmp_path / "out.csv")]) for argv in REACHING_COMMANDS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(REACHING_COMMANDS)
    missed = [f"{path.name}: {name}" for path in sorted(Path(twistlab.__file__).parent.glob("*.py"))
              for name, line in _defs(ast.parse(path.read_text()))
              if name not in UNREACHED and (os.path.realpath(path), line) not in entered]
    assert missed == []


def _readme_commands():
    """The twistlab lines of README.md's sh blocks, as argument lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        commands += [shlex.split(ln)[1:] for ln in block.splitlines()
                     if ln.startswith("twistlab ")]
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    if "--output" in argv:  # print instead of writing a file
        i = argv.index("--output")
        argv = argv[:i] + argv[i + 2:]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_json_layout(capsys, argv):
    # records are streamed one by one, in the layout of json.dumps(payload, indent=2)
    if "--output" in argv:
        i = argv.index("--output")
        argv = argv[:i] + argv[i + 2:]
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_husimi_output_is_streamed():
    # the whole JSON text, its chunk list and a list of 7381 row dicts once peaked at 8.0 MB
    import tracemalloc

    argv = ["husimi", "--n", "1000", "--t", "0.1", "--format", "json", "--output", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_readme_has_commands():
    assert len(_readme_commands()) >= 9


def _child_env(environ=os.environ):
    """environ with the twistlab under test first on PYTHONPATH."""
    src = str(Path(twistlab.__file__).parents[1])
    return {**environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def _python(code, environ=os.environ):
    """Stdout of a fresh interpreter that imports the twistlab under test, in environ."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_child_env(environ)).stdout


LAPACK_NAMES = ("eigh", "eigvalsh", "eig", "eigvals", "solve", "inv", "lstsq", "pinv",
                "svd", "cholesky", "qr", "det", "slogdet")

# small instances of every command that maximizes over directions or readouts
NO_LAPACK_COMMANDS = [
    ["phase-diagram", "--n", "100"],
    ["fr-qfi", "--n", "98", "--k", "25", "--t-points", "40"],
    ["fr-variance", "--n", "6", "--k", "2", "--t", "0.6"],
    ["fr-variance", "--n", "6", "--k", "2", "--t", "0.6", "--brute"],
    ["twist-untwist-scan", "--exponent", "-0.5", "--rot", "y", "--phi", "1e-3"],
    ["mom", "--n", "20", "--t", "0.3", "--phi", "0.05", "--variant", "rotation-only",
     "--rot", "y", "--readout", "1.2,0.4"],
    ["mom", "--n", "4", "--t", "1.5707963", "--variant", "twist-untwist", "--rot", "x",
     "--readout", "x", "--phi", "0.1"],
    ["mom", "--n", "20", "--t", "0.3", "--phi", "0.05", "--variant", "realigned",
     "--realign-phi", "0.2", "--rot", "1.0,0.3", "--readout", "z"],
    ["mom", "--n", "200", "--t", "0.05", "--phi", "0.05", "--variant", "mach-zehnder",
     "--mz-axis", "y", "--readout", "1.2,0.4"],
    ["fr-optimize", "--n", "8", "--k", "2", "--phi", "1e-3"],
    ["verify", "--suite", "all", "--sites", "8"],
]


@pytest.mark.parametrize("argv", NO_LAPACK_COMMANDS)
def test_closed_form_commands_call_no_lapack(argv):
    # x (+) (y, z) block maxima are closed form and the best readout is a 3x3
    # Jacobi: with numpy's LAPACK entry points refusing, the bytes are the same
    run = f"from twistlab.cli import main; raise SystemExit(main({argv + ['--format', 'json']!r}))"
    refuse = ("import numpy as np\n"
              "def refuse(*args, **kwargs):\n"
              "    raise RuntimeError('LAPACK called')\n"
              f"for name in {LAPACK_NAMES!r}:\n"
              "    setattr(np.linalg, name, refuse)\n")
    assert _python(refuse + run) == _python(run)


def test_source_names_no_lapack_call():
    # no linalg.<name> attribute and no import of one, in any module
    for path in Path(twistlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in LAPACK_NAMES:
                assert not (isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                            or isinstance(node.value, ast.Name) and node.value.id == "linalg"), \
                    (path.name, node.lineno)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                assert not {a.name for a in node.names} & set(LAPACK_NAMES), path.name


# small instances of every command: the LAPACK list plus qfi and husimi
NO_BLAS_COMMANDS = NO_LAPACK_COMMANDS + [
    ["qfi", "--n", "20", "--t", "0.4", "--direction", "y"],
    ["husimi", "--n", "100", "--t", "0.1"],
]

# summed Rss (kB) of the mappings whose path names blas, from /proc/self/smaps
BLAS_RSS = """
def blas_rss():
    total, in_blas = 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            field = line.split()
            if not field[0].endswith(":"):  # a mapping's header: address, ..., path
                in_blas = len(field) > 5 and "blas" in field[5]
            elif in_blas and field[0] == "Rss:":
                total += int(field[1])
    return total
"""


def test_commands_touch_no_blas():
    # the first call of a BLAS kernel faults its code pages in: across every command's
    # main, run in one fresh interpreter, the BLAS mappings' resident size stays put
    if not os.access("/proc/self/smaps", os.R_OK):
        pytest.skip("no readable /proc/self/smaps")
    run = (BLAS_RSS + "import contextlib, io, json\n"
           "from twistlab.cli import main\n"
           "import numpy\n"  # the closed-form commands never load it: map BLAS before start
           "start, growth = blas_rss(), {}\n"
           f"for argv in {NO_BLAS_COMMANDS!r}:\n"
           "    before = blas_rss()\n"
           "    with contextlib.redirect_stdout(io.StringIO()):\n"
           "        assert main(argv) == 0, argv\n"
           "    growth[' '.join(argv)] = blas_rss() - before\n"
           "print(json.dumps([start, growth]))\n")
    start, growth = json.loads(_python(run))
    if start == 0:
        pytest.skip("numpy maps no library whose path names blas")
    assert len(growth) == len(NO_BLAS_COMMANDS)
    assert {argv: kb for argv, kb in growth.items() if kb} == {}


# the Threads: line of /proc/self/status
THREADS = """
def threads():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
"""


def _blas_environ(blas_threads):
    """os.environ with OPENBLAS_NUM_THREADS set to blas_threads, or unset for None: importing
    twistlab.cli here has set it to 1, and _python would pass that on."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return environ if blas_threads is None else {**environ, "OPENBLAS_NUM_THREADS": blas_threads}


@pytest.mark.parametrize("blas_threads", ["2", None], ids=["blas-2", "blas-unset"])
def test_commands_run_one_thread(blas_threads):
    # OpenBLAS starts its workers as numpy loads, one per OPENBLAS_NUM_THREADS or per
    # core: the CLI sets it to 1 before, so a fresh process holds one thread throughout
    if not os.access("/proc/self/status", os.R_OK):
        pytest.skip("no readable /proc/self/status")
    run = (THREADS + "import contextlib, io, json, os\n"
           "from twistlab.cli import main\n"
           "counts = {'import twistlab.cli': threads()}\n"
           f"for argv in {NO_BLAS_COMMANDS!r}:\n"
           "    with contextlib.redirect_stdout(io.StringIO()):\n"
           "        assert main(argv) == 0, argv\n"
           "    counts[' '.join(argv)] = threads()\n"
           "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), counts]))\n")
    pinned, counts = json.loads(_python(run, _blas_environ(blas_threads)))
    assert len(counts) == len(NO_BLAS_COMMANDS) + 1
    assert {step: n for step, n in counts.items() if n != 1} == {}
    assert pinned == "1"


def test_library_leaves_blas_threads_alone():
    # only the CLI pins OpenBLAS: a library user owns the process
    run = "import os, twistlab.spin_core\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(run, _blas_environ("2")).strip() == "2"


BLAS_NAMES = ("dot", "vdot", "matmul", "inner", "tensordot")


def test_source_names_no_blas_call():
    # no @, no dot, vdot, matmul, inner or tensordot attribute or import, no
    # linalg.norm, and no einsum(..., optimize=...), which hands pairs to tensordot
    for path in Path(twistlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.MatMult), where
            if isinstance(node, ast.Attribute):
                assert node.attr not in BLAS_NAMES, where
                assert node.attr != "norm" or "linalg" not in ast.unparse(node.value), where
            if isinstance(node, ast.ImportFrom):
                assert not {a.name for a in node.names} & set(BLAS_NAMES), where
                assert "norm" not in {a.name for a in node.names} or "linalg" not in (
                    node.module or ""), where
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("einsum"):
                assert "optimize" not in {k.arg for k in node.keywords}, where


@pytest.mark.parametrize("argv", [
    ["twist-untwist-scan", "--exponent", "-0.5", "--rot", "y", "--phi", "1e-3"],
    ["twist-untwist-scan", "--n-min", "12", "--n-max", "12", "--exponent", "-4"],
    ["fr-optimize", "--n", "8", "--k", "2", "--phi", "1e-3"],
])
def test_best_readout_matches_the_eigh_oracle(argv, capsys, monkeypatch):
    # the README commands' rows with the Jacobi readout, and with eigh in its place
    # (the solver before it): every value within 1e-12 relative, each component of a
    # unit vector within 1e-12 (m_y, m_z of fr-optimize move by 1.3e-14, 7.9e-12 of
    # their size; against 50-digit mpmath the Jacobi readout is the closer one),
    # text columns equal
    import twistlab.optimizer as opt

    rows = []
    for solver in (opt._symmetric_eigen, np.linalg.eigh):
        monkeypatch.setattr(opt, "_symmetric_eigen", solver)
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        rows.append(json.loads(out)["records"])
    for got, want in zip(*rows):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                unit = key in ("m_x", "m_y", "m_z", "n_x", "n_y", "n_z")
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12 if unit else 0), key
            else:
                assert got[key] == value, key


def test_cli_import_loads_no_scipy():
    # nor the thread pool: rows run in one thread
    code = ("import sys, twistlab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))")
    out = _python(code)
    assert out.strip() == "[]"


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy < 2 imports numpy.random itself")
def test_cli_import_loads_no_numpy_random():
    # only verify draws random cases; every other command skips its import cost
    code = ("import sys, twistlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    assert _python(code).strip() == "[]"


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy < 2 imports numpy.random itself")
def test_verify_loads_no_numpy_random():
    # the suites draw their cases from the standard library's random.Random
    code = ("import os, sys; from twistlab.cli import main; "
            "main(['verify', '--suite', 'all', '--sites', '8', '--output', os.devnull]); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    assert _python(code).strip() == "[]"


def test_fr_optimize_loads_no_scipy():
    code = ("import os, sys; from twistlab.cli import main; "
            "main(['fr-optimize', '--n', '4', '--k', '1', '--t-points', '1', "
            "'--output', os.devnull]); "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = _python(code)
    assert out.strip() == "[]"


def test_package_import_loads_nothing():
    # the package holds no names of its modules; importing a module from it, as
    # perfbench/checks.py does, loads that module through the import system
    code = ("import sys, twistlab; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('twistlab.') or m.split('.')[0] == 'numpy'), "
            "hasattr(twistlab, 'qfi_closed_form')); "
            "from twistlab import lattice_fr, oat_metrology; "
            "print(lattice_fr is sys.modules['twistlab.lattice_fr'], "
            "oat_metrology is sys.modules['twistlab.oat_metrology'])")
    assert _python(code).splitlines() == ["[] False", "True True"]


_LAZY = ("twistlab.lattice_fr", "twistlab.oat_metrology", "twistlab.optimizer")


def test_cli_import_loads_no_command_module():
    # numpy itself imports the standard library's random (through tempfile), so
    # for random the check is that cli binds none at module level
    code = ("import sys, twistlab.cli; "
            f"print(sorted(m for m in {_LAZY!r} if m in sys.modules), "
            "hasattr(twistlab.cli, 'random'))")
    assert _python(code).strip() == "[] False"


# the ring's statevector jobs stand on closed_form, numerics and lattice_fr (fr-optimize
# adds optimizer): no Dicke module is compiled for them
@pytest.mark.parametrize("argv, unloaded", [
    (["husimi", "--n", "20", "--t", "0.1", "--xi-points", "3", "--theta-points", "3"], _LAZY),
    (["fr-variance", "--n", "6", "--k", "2", "--t", "0.6", "--brute"],
     ("twistlab.oat_metrology", "twistlab.spin_core", "twistlab.optimizer")),
    (["verify", "--suite", "appendix-c", "--sites", "8"],
     ("twistlab.spin_core", "twistlab.oat_metrology", "twistlab.optimizer")),
    (["fr-optimize", "--n", "4", "--k", "1", "--t-points", "1"],
     ("twistlab.spin_core", "twistlab.oat_metrology")),
], ids=["husimi", "fr-variance-brute", "verify-appendix-c", "fr-optimize"])
def test_command_loads_only_what_it_runs(argv, unloaded):
    code = ("import os, sys; from twistlab.cli import main; "
            f"assert main({argv + ['--output', os.devnull]!r}) == 0; "
            f"print(sorted(m for m in {unloaded!r} if m in sys.modules))")
    assert _python(code).strip() == "[]"


def test_exit_freezes_the_heap_and_main_leaves_the_collector_alone():
    # atexit runs its hooks last in, first out: the print registered before cli's import
    # runs after cli's gc.freeze, and sees the import heap frozen
    code = ("import atexit, gc, os\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            "import twistlab.cli\n"
            "before = (gc.isenabled(), gc.get_freeze_count())\n"
            "assert twistlab.cli.main(['fr-variance', '--n', '6', '--k', '2', '--t', '0.6',\n"
            "                          '--brute', '--output', os.devnull]) == 0\n"
            "print(before == (True, 0), (gc.isenabled(), gc.get_freeze_count()) == before)\n")
    during, at_exit = _python(code).splitlines()
    assert during == "True True"
    assert int(at_exit) > 0


def test_json_jobs_load_no_dataclasses_csv_or_cmath():
    # every command's JSON run in one fresh interpreter adds none of these to what numpy
    # (and this harness) loads; numpy 1.24 may load some of them itself.  A CSV run may
    # load csv, and no module under src/ imports dataclasses.
    run = ("import contextlib, io, json, sys\n"
           "import numpy\n"
           "base = set(sys.modules)\n"
           "from twistlab.cli import main\n"
           f"for argv in {NO_BLAS_COMMANDS!r}:\n"
           "    with contextlib.redirect_stdout(io.StringIO()):\n"
           "        assert main(argv + ['--format', 'json']) == 0, argv\n"
           "print(json.dumps(sorted(set(sys.modules) - base)))\n")
    loaded = json.loads(_python(run))
    assert {"twistlab.lattice_fr", "twistlab.oat_metrology", "twistlab.optimizer"} <= set(loaded)
    assert set(loaded) & {"dataclasses", "copy", "csv", "_csv", "cmath"} == set()
    for path in Path(twistlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, path.name



# the commands that run closed forms alone
CLOSED_FORM_COMMANDS = [
    ["phase-diagram", "--n", "10000"],
    ["fr-qfi", "--n", "998", "--k", "499", "--t-points", "6"],
    ["fr-variance", "--n", "98", "--k", "24", "--t", "1.0"],
]


def test_closed_form_jobs_load_no_numpy():
    # phase-diagram, fr-qfi and fr-variance without --brute run closed_form alone; the
    # fr-qfi grid crosses pi/4 and fr-variance's t = 1 lies past it, so the decimal
    # powers run too
    run = ("import contextlib, io, json, sys\n"
           "import twistlab.cli\n"
           "loaded = {'import twistlab.cli': 'numpy' in sys.modules}\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    try:\n"
           "        twistlab.cli.main(['--version'])\n"
           "    except SystemExit:\n"
           "        loaded['--version'] = 'numpy' in sys.modules\n"
           f"    for argv in {CLOSED_FORM_COMMANDS!r}:\n"
           "        assert twistlab.cli.main(argv + ['--format', 'json']) == 0, argv\n"
           "        loaded[' '.join(argv)] = 'numpy' in sys.modules\n"
           "print(json.dumps([loaded, 'decimal' in sys.modules]))\n")
    loaded, decimal_ran = json.loads(_python(run))
    assert len(loaded) == len(CLOSED_FORM_COMMANDS) + 2
    assert {step: numpy for step, numpy in loaded.items() if numpy} == {}
    assert decimal_ran

