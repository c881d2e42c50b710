import argparse
import csv
import dataclasses
import io
import json
import math
import tracemalloc

import pytest

from hankelbound import cli, hankel, search, ymax
from hankelbound.cli import MAX_CERTIFY_N, MAX_SWEEP_VALUES, main
from hankelbound.search import MAX_REFINE_ROUNDS
from hankelbound.ymax import YCase


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def exit_code(capsys, argv):
    """Exit code of ``hankelbound <argv>``, argparse usage errors included;
    the command must print no passing report."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert '"pass": true' not in capsys.readouterr().out
    return code


@pytest.fixture
def no_search(monkeypatch):
    """Fail any grid search: invalid input must be rejected before one.
    ``global_max`` is the one-member ``sweep``, so patching ``sweep`` covers
    both commands."""
    def fail(*args, **kwargs):
        raise AssertionError("grid search ran on invalid input")
    monkeypatch.setattr(cli, "sweep", fail)
    monkeypatch.setattr(search, "sweep", fail)


class TestVerify:
    def test_starlike_passes(self, capsys):
        code, payload = run_json(capsys, [
            "verify", "--family", "spirallike", "--alpha", "0", "--beta", "0",
        ])
        assert code == 0
        result = payload["results"][0]
        assert result["bound"] == pytest.approx(0.25)
        assert payload["summary"]["pass"] is True

    def test_robertson_one(self, capsys):
        code, payload = run_json(capsys, [
            "verify", "--family", "robertson", "--lambda", "1",
            "--coarse", "64", "--refine-rounds", "2",
        ])
        assert code == 0
        assert payload["results"][0]["bound"] == pytest.approx(0.070811, abs=1e-6)

    def test_out_of_range_exits_2(self, capsys):
        code = main(["verify", "--family", "ozaki", "--nu", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nu" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exits_2(self, capsys, no_search, tol):
        assert exit_code(capsys, ["verify", "--family", "spirallike", "--tol", tol]) == 2

    def test_coarse_above_cap_exits_2(self, capsys):
        # Rejected before any grid is allocated: 16*(100001)^3 bytes is 16 PB.
        assert exit_code(capsys, ["verify", "--family", "ozaki", "--coarse", "100000"]) == 2


class TestSweep:
    def test_spirallike_values(self, capsys):
        code, payload = run_json(capsys, [
            "sweep", "--family", "spirallike", "--values", "0,0.25,0.5",
            "--coarse", "64", "--refine-rounds", "2",
        ])
        assert code == 0
        bounds = [row["bound"] for row in payload["results"]]
        assert bounds == pytest.approx([0.25, 0.140625, 0.0625])
        assert payload["summary"]["bound_monotonicity"] == "non-increasing"

    def test_tiny_bounds_are_ordered(self, capsys):
        # Bounds 7.2e-203 < 7.2e-183 < 7.2e-163 lie far below 1e-15; the
        # slack within which neighbours count as equal is relative to them.
        code, payload = run_json(capsys, ["sweep", "--family", "ozaki",
                                          "--values", "1e-100,1e-90,1e-80"])
        assert code == 0
        bounds = [row["bound"] for row in payload["results"]]
        assert 0.0 < bounds[0] < bounds[1] < bounds[2] < 1e-160
        assert payload["summary"]["bound_monotonicity"] == "non-decreasing"

    @pytest.mark.parametrize("values", ["0.3,0.3,0.3", "1e-100,1e-100"])
    def test_equal_bounds_are_non_increasing(self, capsys, values):
        code, payload = run_json(capsys, ["sweep", "--family", "ozaki", "--values", values])
        assert code == 0
        assert payload["summary"]["bound_monotonicity"] == "non-increasing"

    def test_bad_value_exits_2(self, capsys):
        assert main(["sweep", "--family", "ozaki", "--values", "0.5,2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [["--tol", "nan"], ["--values", "0.5,nan"]])
    def test_invalid_input_exits_2(self, capsys, no_search, extra):
        argv = ["sweep", "--family", "robertson", "--values", "0.5", *extra]
        assert exit_code(capsys, argv) == 2

    @pytest.mark.parametrize("values", [",", "", " , ", "0.5,abc", "abc"])
    def test_malformed_values_exit_2(self, capsys, no_search, values):
        # A usage error naming --values, not an internal message such as
        # max() of an empty sequence or Python's float() error.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "ozaki", "--values", values])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --values:" in captured.err
        assert "max()" not in captured.err and "could not convert" not in captured.err

    def test_values_above_cap_exit_2(self, capsys, no_search):
        # search.sweep holds about 30 KB per member at once, so an unbounded
        # list is refused before any member is built.
        values = ["0.5"] * MAX_SWEEP_VALUES
        assert len(cli._values(",".join(values))) == MAX_SWEEP_VALUES
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "ozaki", "--values", ",".join(values + ["0.5"])])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --values:" in captured.err

    def test_values_tolerate_spaces_and_empty_items(self, capsys):
        code, payload = run_json(capsys, [
            "sweep", "--family", "robertson", "--values", " 0.5 ,,1e0,",
            "--coarse", "64", "--refine-rounds", "2",
        ])
        assert code == 0
        assert payload["config"]["values"] == [0.5, 1.0]
        assert [row["lambda"] for row in payload["results"]] == [0.5, 1.0]

    def test_coarse_above_cap_exits_2(self, capsys):
        argv = ["sweep", "--family", "robertson", "--values", "0.5", "--coarse", "100000"]
        assert exit_code(capsys, argv) == 2

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_out_of_range_aborts_before_search(self, capsys, monkeypatch, fmt):
        # Every member is built before the first search, so the second value
        # is rejected with no search run for the first.
        calls = []
        monkeypatch.setattr(search, "global_max", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "global_max", lambda *a, **k: calls.append(a))
        code = main(["sweep", "--family", "ozaki", "--values", "0.5,2", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert calls == []
        assert captured.out == "" and "nu" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--family", "elliptic"],
                                  ["sweep", "--family", "Ozaki", "--values", "0.5"]],
                         ids=["verify-elliptic", "sweep-Ozaki"])
def test_unknown_family_tag_exits_2(capsys, no_search, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid choice" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--family", "ozaki"],
                                  ["sweep", "--family", "ozaki", "--values", "0.5,1"]])
def test_refine_rounds_above_cap_exits_2(capsys, argv):
    code = main([*argv, "--refine-rounds", str(MAX_REFINE_ROUNDS + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "refine_rounds" in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "ozaki", "--values", "0.5", "--beta", "nan"],
    ["verify", "--family", "ozaki", "--nu", "0.5", "--alpha", "nan"],
    ["verify", "--family", "robertson", "--lambda=-inf"],
    ["extremal", "--family", "spirallike", "--beta", "inf"],
    ["gamma", "--koebe", "--nu", "nan"],
])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_non_finite_family_flag_exits_2(capsys, no_search, argv, fmt):
    # Rejected by argparse, even where the family ignores the flag: an Ozaki
    # sweep with --beta nan used to search, then pass in csv and table.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


class TestRelativeVerdict:
    """--tol of verify, sweep and extremal is relative to the bound, and a
    bound below the smallest normal float never passes."""

    @pytest.fixture
    def found_nothing(self, monkeypatch):
        """A search that reports a maximum of 0, patched where both commands
        search: ``sweep``, of which ``global_max`` is the one-member case."""
        search_sweep = search.sweep

        def nothing(specs, **kwargs):
            return [dataclasses.replace(rep, max_abs_h21=0.0, gap=rep.bound)
                    for rep in search_sweep(specs, **kwargs)]
        monkeypatch.setattr(cli, "sweep", nothing)
        monkeypatch.setattr(search, "sweep", nothing)

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "ozaki", "--nu", "0.2"],  # bound 2.85e-4
        ["verify", "--family", "spirallike", "--alpha", "0.96"],  # bound 4.0e-4
        ["sweep", "--family", "ozaki", "--values", "0.2"],
    ])
    def test_search_finding_nothing_fails(self, capsys, found_nothing, argv, fmt):
        # Each bound lies below the default --tol 5e-4, so an absolute
        # tolerance passed a search that found nothing.
        assert exit_code(capsys, [*argv, "--format", fmt]) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_extremal_of_zero_fails(self, capsys, monkeypatch, fmt):
        # The bound 7.2e-11 lies below the default --tol 1e-10.
        monkeypatch.setattr(cli, "h21", lambda a: 0.0)
        argv = ["extremal", "--family", "ozaki", "--nu", "1e-4", "--format", fmt]
        assert exit_code(capsys, argv) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("command", ["verify", "extremal"])
    @pytest.mark.parametrize("nu", ["1e-160", "1e-200"])
    def test_underflowed_bound_fails(self, capsys, command, nu, fmt):
        # The bound is subnormal (7e-323) at 1e-160 and 0.0 at 1e-200.
        argv = [command, "--family", "ozaki", "--nu", nu, "--format", fmt]
        assert exit_code(capsys, argv) == 1

    @pytest.mark.parametrize("command", ["verify", "extremal"])
    def test_tiny_normal_bound_passes(self, capsys, command):
        code, payload = run_json(capsys, [command, "--family", "ozaki", "--nu", "1e-100"])
        assert code == 0
        assert payload["results"][0]["bound"] == pytest.approx(7.161458333333332e-203)

    def test_worst_residual_is_relative(self, capsys):
        # A gap of 3.6e-213 on a bound of 7.2e-203: the summary reports their
        # quotient, the number the verdict compares with --tol.
        code, payload = run_json(capsys, ["verify", "--family", "ozaki", "--nu", "1e-100"])
        assert code == 0
        assert payload["summary"]["worst_residual"] == pytest.approx(5.1e-11, rel=0.01)

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "robertson", "--lambda", "0.8"],
        ["sweep", "--family", "ozaki", "--values", "0.1,0.5,1"],
        ["extremal", "--family", "ozaki", "--nu", "0.3"],
    ])
    def test_worst_residual_on_the_verdicts_scale(self, capsys, argv):
        code, payload = run_json(capsys, argv)
        assert code == 0
        gaps = [row.get("gap", row.get("residual")) / row["bound"] for row in payload["results"]]
        assert payload["summary"]["worst_residual"] == max(gaps)

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "ozaki", "--nu", "1e-200"],
        ["verify", "--family", "ozaki", "--nu", "1e-160"],
        ["sweep", "--family", "ozaki", "--values", "1e-100,1e-200"],
        ["extremal", "--family", "ozaki", "--nu", "1e-200"],
    ])
    def test_underflowed_bound_reports_json(self, capsys, argv):
        # Bound 0.0 at 1e-200, subnormal at 1e-160: the relative residual
        # divides by the smallest normal float and stays finite.
        code, payload = run_json(capsys, argv)
        assert code == 1
        assert payload["summary"]["pass"] is False
        assert math.isfinite(payload["summary"]["worst_residual"])


class TestYmaxCertify:
    def test_small_run_passes(self, capsys):
        code, payload = run_json(capsys, ["ymax-certify", "--n", "25", "--seed", "3"])
        assert code == 0
        assert payload["results"][0]["passed"] == 25
        assert payload["config"]["seed"] == 3

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, ["ymax-certify", "--n", "3", "--seed", "9"])
        _, second = run(capsys, ["ymax-certify", "--n", "3", "--seed", "9"])
        assert first == second

    @pytest.mark.parametrize("tol", ["nan", "-1e-6", "0"])
    def test_bad_tol_exits_2(self, capsys, tol):
        assert exit_code(capsys, ["ymax-certify", "--n", "1", "--tol", tol]) == 2

    @pytest.mark.parametrize("n", ["0", "-1", "1.5"])
    def test_bad_n_exits_2(self, capsys, n):
        # --n 0 would certify nothing and still pass.
        assert exit_code(capsys, ["ymax-certify", "--n", n]) == 2

    def test_n_above_cap_exits_2(self, capsys):
        # Rejected before any triple is drawn: 24 GB of triples at 10^9.
        argv = ["ymax-certify", "--n", str(MAX_CERTIFY_N + 1)]
        assert exit_code(capsys, argv) == 2
        assert exit_code(capsys, ["ymax-certify", "--n", "1000000000"]) == 2

    def test_case_counts_sum_to_n(self, capsys):
        code, payload = run_json(capsys, ["ymax-certify", "--n", "40", "--seed", "3"])
        assert code == 0
        cases = payload["results"][0]["cases"]
        assert set(cases) == {case.value for case in YCase}
        assert sum(cases.values()) == 40

    def test_csv_has_a_column_per_case(self, capsys):
        code, out = run(capsys, ["ymax-certify", "--n", "3", "--format", "csv"])
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert {f"cases_{case.value}" for case in YCase} <= set(header)

    def test_grid_defaults_are_the_certification_grid(self):
        args = cli.build_parser().parse_args(["ymax-certify"])
        assert (args.radial, args.angular) == (ymax.CERT_RADIAL, ymax.CERT_ANGULAR)

    def test_grid_above_cap_exits_2(self, capsys):
        # Rejected before the oracle grid is built: about 40 GB per triple.
        argv = ["ymax-certify", "--n", "1", "--radial", "100000", "--angular", "100000"]
        assert exit_code(capsys, argv) == 2

    def test_grid_checked_before_any_draw(self, capsys):
        # 10^6 triples take 24 MB; a grid below the minimum is rejected first.
        tracemalloc.start()
        try:
            code = exit_code(capsys, ["ymax-certify", "--n", "1000000", "--radial", "32"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20


class TestExtremal:
    def test_convex(self, capsys):
        code, payload = run_json(capsys, [
            "extremal", "--family", "robertson", "--lambda", "0.5",
        ])
        assert code == 0
        row = payload["results"][0]
        assert row["abs_h21"] == pytest.approx(1.0 / 33.0)
        assert row["residual"] <= 1e-10

    def test_spirallike_zero_residual(self, capsys):
        code, payload = run_json(capsys, [
            "extremal", "--family", "spirallike", "--alpha", "0", "--beta", "0",
        ])
        assert code == 0
        row = payload["results"][0]
        assert row["a2"] == pytest.approx([0.0, 0.0])
        assert row["a3"] == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize("tol", ["inf", "-1", "nan"])
    def test_bad_tol_exits_2(self, capsys, tol):
        assert exit_code(capsys, ["extremal", "--family", "ozaki", "--tol", tol]) == 2

    def test_path_mismatch_exits_1(self, capsys, monkeypatch):
        # A broken monomial path must fail the internal cross-check of h21
        # with exit 1 and a one-line error, not a traceback or a pass.
        monomial = hankel.h21_monomial
        monkeypatch.setattr(hankel, "h21_monomial", lambda a: monomial(a) + 1e-7)
        code = main(["extremal", "--family", "robertson"])
        captured = capsys.readouterr()
        assert code == 1
        assert '"pass": true' not in captured.out
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestGamma:
    def test_koebe(self, capsys):
        code, payload = run_json(capsys, ["gamma", "--koebe"])
        assert code == 0
        row = payload["results"][0]
        assert row["gamma1"] == pytest.approx([1.0, 0.0])
        assert row["gamma2"] == pytest.approx([0.5, 0.0])
        assert row["gamma3"] == pytest.approx([1.0 / 3.0, 0.0], abs=1e-12)
        assert row["h21_gamma_path"] == pytest.approx([1.0 / 12.0, 0.0])

    def test_all_zeros(self, capsys):
        code, payload = run_json(capsys, ["gamma", "--a2", "0", "--a3", "0", "--a4", "0"])
        assert code == 0
        assert payload["results"][0]["h21_gamma_path"] == [0.0, 0.0]

    def test_direct_substitution(self, capsys):
        code, payload = run_json(capsys, ["gamma", "--a2", "0", "--a3", "1", "--a4", "0"])
        assert code == 0
        assert payload["results"][0]["h21_gamma_path"] == pytest.approx([-0.25, 0.0])

    @pytest.mark.parametrize("argv", [["--koebe"], ["--a2", "1", "--a3", "0.5", "--a4", "0.25"]])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_path_mismatch_exits_1(self, capsys, monkeypatch, argv, fmt):
        # A broken gamma path must fail h21's cross-check, as in extremal,
        # and print no report.
        gammas = hankel.log_coeffs

        def broken(a):
            g = gammas(a)
            return hankel.GammaTriple(g.g1, g.g2, g.g3 + 1e-7)

        monkeypatch.setattr(hankel, "log_coeffs", broken)
        code = main(["gamma", *argv, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: H_{2,1} path mismatch")

    def test_malformed_complex_exits_2(self, capsys):
        assert main(["gamma", "--a2", "banana"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("literals", [
        ["--a2", "nan", "--a3", "inf"], ["--a4", "-inf"], ["--a3", "1+nanj"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_non_finite_literal_exits_2(self, capsys, literals, fmt):
        assert exit_code(capsys, ["gamma", *literals, "--format", fmt]) == 2

    @pytest.mark.parametrize("literals", [
        ["--a2", "1e100"], ["--a2", "1e70", "--a3", "0", "--a4", "1e300"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_overflowing_literal_exits_2(self, capsys, monkeypatch, literals, fmt):
        # H_{2,1} of these overflows: an OverflowError at a2 = 1e100, and
        # inf and nan reported as a pass at a4 = 1e300.  Rejected before any
        # coefficient is computed.
        def fail(*args, **kwargs):
            raise AssertionError("H_{2,1} evaluated for an out-of-range literal")
        monkeypatch.setattr(cli, "log_coeffs", fail)
        assert exit_code(capsys, ["gamma", *literals, "--format", fmt]) == 2

    @pytest.mark.parametrize("literals", [
        ["--a2", "1e75+1e75j", "--a3", "1e75-1e75j", "--a4=-1e75+1e75j"],
        ["--a2", "1e76", "--a3=-1e76j", "--a4=-1e76"],
    ])
    def test_literal_within_cap_passes(self, capsys, literals):
        code, payload = run_json(capsys, ["gamma", *literals])
        assert code == 0 and payload["summary"]["pass"] is True


def _checked_options():
    """"<subcommand> <option>" for every option whose type is one of cli's own."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [f"{name} {action.option_strings[0]}" for name, parser in sub.choices.items()
            for action in parser._actions
            if getattr(action.type, "__module__", None) == cli.__name__]


@pytest.mark.parametrize("option", _checked_options())
def test_malformed_number_names_the_input(capsys, option):
    # The message names the input, not the argparse type function.
    with pytest.raises(SystemExit) as exc:
        main([*option.split(), "abc"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "'abc'" in captured.err
    assert "invalid _" not in captured.err


class TestParserReuse:
    COMMANDS = [
        ["verify", "--family", "ozaki", "--nu", "0.5", "--coarse", "64"],
        ["ymax-certify", "--n", "5", "--seed", "3", "--radial", "64", "--angular", "256"],
        ["sweep", "--family", "robertson", "--values", "0.5,1", "--format", "csv"],
        ["gamma", "--koebe", "--format", "table"],
        ["extremal", "--family", "spirallike", "--alpha", "0.25", "--beta", "0.5"],
        ["verify", "--family", "ozaki", "--nu", "2"],
        ["sweep", "--family", "ozaki", "--values", "0.5", "--tol", "nan"],
    ]

    def outcomes(self, capsys):
        results = []
        for argv in self.COMMANDS:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_shared_parser_gives_fresh_parser_output(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        shared = self.outcomes(capsys) + self.outcomes(capsys)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = self.outcomes(capsys) + self.outcomes(capsys)
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 2, 2] * 2
        assert shared == fresh


class TestOutputFormats:
    def test_csv(self, capsys):
        code, out = run(capsys, [
            "extremal", "--family", "ozaki", "--nu", "1", "--format", "csv",
        ])
        assert code == 0
        header, row = out.strip().splitlines()
        assert "a2_re" in header and "residual" in header
        assert len(row.split(",")) == len(header.split(","))

    def test_csv_carries_the_verdict(self, capsys):
        verdicts = []
        for nu in ("1e-200", "0.5"):
            argv = ["verify", "--family", "ozaki", "--nu", nu, "--format", "csv"]
            code, out = run(capsys, argv)
            (row,) = csv.DictReader(io.StringIO(out))
            verdicts.append((code, row["summary_pass"]))
        assert verdicts == [(1, "False"), (0, "True")]

    def test_csv_summary_on_every_sweep_row(self, capsys):
        argv = ["sweep", "--family", "robertson", "--values", "0.5,0.75,1", "--format", "csv"]
        code, out = run(capsys, argv)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 3
        for row in rows:
            assert row["summary_pass"] == "True"
            assert row["summary_bound_monotonicity"] == "non-decreasing"
            assert float(row["summary_worst_residual"]) <= 5e-4

    def test_table(self, capsys):
        code, out = run(capsys, ["gamma", "--koebe", "--format", "table"])
        assert code == 0
        assert "gamma1" in out

    def test_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cli._emit({"value": float("nan")}, argparse.Namespace(format="json", out=None))

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        # A missing directory, or a directory as the target: found after
        # the work, but a usage error all the same, not a traceback.
        code = main(["gamma", "--koebe", "--out", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["gamma", "--koebe", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["command"] == "gamma"
