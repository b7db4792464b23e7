"""Tests for the command-line interface: outputs, exit codes, golden help."""

import json
import os
import pathlib

import pytest

from wamls import driver, verify
from wamls.cli import main
from wamls.problems import emit_instance, random_instance

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_known_value(self, capsys):
        code, out, _ = run(capsys, "bound", "--alpha", "1", "--c", "1.363", "--beta", "1.1")
        assert code == 0
        amls_line = [ln for ln in out.splitlines() if ln.startswith("amls")][0]
        value = float(amls_line.split("=")[1].split("+/-")[0])
        assert value == pytest.approx(1.158, abs=2e-3)

    def test_beta_one_prints_brute_two(self, capsys):
        code, out, _ = run(capsys, "bound", "--alpha", "1", "--beta", "1")
        assert code == 0
        assert "brute(1) = 2.000000" in out

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--alpha", "0.5", "--beta", "1.5"], "alpha"),
            (["--alpha", "1", "--c", "0.5", "--beta", "1.5"], "c"),
            (["--alpha", "1", "--beta", "nan"], "beta"),
            (["--alpha", "1", "--beta", "1.5", "--precision", "0"], "precision"),
        ],
    )
    def test_bad_factor_named(self, capsys, argv, name):
        code, out, err = run(capsys, "bound", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} must be")

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "bound", "--alpha", "0.5", "--beta", "1.5")
        assert code == 2
        assert "error" in err


class TestTableCommand:
    def test_vc_preset_values(self, capsys):
        code, out, _ = run(capsys, "table", "--preset", "vc")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("alpha,c,beta")
        rows = [ln.split(",") for ln in lines[1:]]
        by_key = {(r[0], r[2]): float(r[4]) for r in rows}
        assert by_key[("1", "1.1")] == pytest.approx(1.158, abs=2e-3)
        assert by_key[("2", "1.5")] == pytest.approx(1.208, abs=2e-3)

    def test_fvs_preset_row(self, capsys):
        code, out, _ = run(capsys, "table", "--preset", "fvs")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        by_key = {(r[0], r[2]): float(r[4]) for r in rows}
        assert by_key[("1", "1.5")] == pytest.approx(1.25, abs=2e-3)

    def test_empty_custom_grid_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--alpha", "2", "--c", "1")
        assert code == 2

    def test_write_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table", "--alpha", "2", "--c", "1", "--beta", "1.25",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().count("\n") == 2


class TestFamilyCommand:
    def test_build_verify_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "fam.txt"
        code, _, _ = run(
            capsys, "family", "build", "covering", "--n", "8", "--alpha", "2",
            "--out", str(dump),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "family", "verify", "covering", "--n", "8", "--dump", str(dump)
        )
        assert code == 0
        assert "pass" in out

    def test_corrupted_dump_fails_with_witness(self, capsys, tmp_path):
        dump = tmp_path / "fam.txt"
        run(capsys, "family", "build", "covering", "--n", "6", "--alpha", "2",
            "--out", str(dump))
        lines = dump.read_text().splitlines()
        # Drop the full-universe line; only U can cover U.
        full = f"{(1 << 6) - 1:#x}"
        dump.write_text("\n".join(ln for ln in lines if ln != full) + "\n")
        code, out, _ = run(
            capsys, "family", "verify", "covering", "--n", "6", "--dump", str(dump)
        )
        assert code == 1
        assert out.startswith("FAIL: subset 0x")

    def test_weight_zero_instance_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.wvc"
        bad.write_text("p wvc 1 0\nw 1 0\n")
        code, _, _ = run(
            capsys, "family", "build", "covering", "--instance", str(bad),
            "--alpha", "2",
        )
        assert code == 2

    def test_dump_header_missing_key_exit_code(self, capsys, tmp_path):
        dump = tmp_path / "fam.txt"
        dump.write_text("family extension n=2 alpha=1\n0x3 0\n")
        code, _, err = run(
            capsys, "family", "verify", "extension", "--n", "2", "--dump", str(dump)
        )
        assert code == 2
        assert "lacks beta=" in err

    def test_dump_header_token_without_value_exit_code(self, capsys, tmp_path):
        dump = tmp_path / "fam.txt"
        dump.write_text("family extension n=2 alpha=1 beta\n0x1 0\n")
        code, out, err = run(
            capsys, "family", "verify", "extension", "--n", "2", "--dump", str(dump)
        )
        assert code == 2
        assert out == ""
        assert err == "error: bad family header: 'family extension n=2 alpha=1 beta'\n"

    def test_extension_build_verifies(self, capsys, tmp_path):
        inst = tmp_path / "i.wvc"
        inst.write_text(emit_instance(random_instance("wvc", 7, 0.3, seed=5)))
        dump = tmp_path / "fam.txt"
        code, _, _ = run(
            capsys, "family", "build", "extension", "--instance", str(inst),
            "--alpha", "1", "--c", "2", "--beta", "1.5", "--out", str(dump),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "family", "verify", "extension", "--instance", str(inst),
            "--dump", str(dump),
        )
        assert code == 0


    @pytest.mark.parametrize("kind", ["covering", "extension"])
    def test_verify_without_dump_is_usage_error(self, capsys, kind):
        code, out, err = run(capsys, "family", "verify", kind, "--n", "3")
        assert code == 2
        assert out == ""
        assert err == "error: family verify needs --dump\n"

    @pytest.mark.parametrize("built,declared", [("covering", "extension"), ("extension", "covering")])
    def test_verify_kind_mismatch_is_usage_error(self, capsys, tmp_path, built, declared):
        dump = tmp_path / "fam.txt"
        assert run(capsys, "family", "build", built, "--n", "3", "--out", str(dump))[0] == 0
        code, out, err = run(
            capsys, "family", "verify", declared, "--n", "3", "--dump", str(dump)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {dump} holds a {built} family, not {declared}\n"

    def test_build_needs_instance_or_n(self, capsys):
        code, out, err = run(capsys, "family", "build", "covering")
        assert code == 2
        assert out == ""
        assert err == "error: need --instance or --n (uniform weights)\n"

    def test_build_writes_dump_to_stdout(self, capsys):
        code, out, err = run(capsys, "family", "build", "covering", "--n", "2", "--alpha", "2")
        assert code == 0
        assert out.startswith("family covering n=2 alpha=2\n# schedule ")
        assert err.startswith("built covering family: ")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing-dir" / "fam.txt"
        code, out, err = run(
            capsys, "family", "build", "covering", "--n", "2", "--out", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error: ")


class TestSolveCommand:
    @pytest.fixture
    def vc_file(self, tmp_path):
        path = tmp_path / "i.wvc"
        path.write_text(emit_instance(random_instance("wvc", 12, 0.3, seed=7)))
        return str(path)

    def test_local_ratio_solve(self, capsys, vc_file):
        code, out, _ = run(
            capsys, "solve", vc_file, "--oracle", "local-ratio", "--beta", "1.9",
            "--force",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] is not None and payload["ratio"] <= 1.9 + 1e-9

    def test_satisfied_instance(self, capsys, tmp_path):
        path = tmp_path / "i.wvc"
        path.write_text("p wvc 3 0\nw 1 1\nw 2 1\nw 3 1\n")
        code, out, _ = run(capsys, "solve", str(path), "--beta", "1.5")
        assert code == 0
        assert json.loads(out)["output_weight"] == 0

    def test_unknown_oracle(self, capsys, vc_file):
        code, out, err = run(capsys, "solve", vc_file, "--oracle", "wizard")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'wizard'" in err
        assert "exact" in err and "branching" in err and "local-ratio" in err

    @pytest.mark.parametrize("name", ["branching", "local-ratio"])
    def test_pvc_extension_oracle_points_to_membership(self, capsys, tmp_path, name):
        path = tmp_path / "i.wpvc"
        path.write_text("p wpvc 3 2 2\nw 1 1\nw 2 2\nw 3 3\ne 1 2\ne 2 3\n")
        code, out, err = run(capsys, "solve", str(path), "--oracle", name)
        assert code == 2
        assert out == ""
        assert f"wpvc has no {name} extension oracle" in err
        assert "--model membership" in err
        code, out, _ = run(capsys, "solve", str(path), "--model", "membership")
        assert code == 0
        assert json.loads(out)["output_weight"] == 2

    def test_report_file_written(self, capsys, vc_file, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "solve", vc_file, "--beta", "1.5", "--report", str(report)
        )
        assert code == 0
        assert json.loads(report.read_text()) == json.loads(out)

    def test_failed_verification_exit_code(self, capsys, vc_file, monkeypatch):
        monkeypatch.setattr(
            driver, "verify_run",
            lambda *a, **k: driver.RunVerdict(ok=False, reason="ratio exceeded"),
        )
        code, out, err = run(capsys, "solve", vc_file, "--beta", "1.5")
        assert code == 1
        assert "ratio exceeded" in err
        assert json.loads(out)["problem"] == "wvc"

    def test_tampered_weight_exit_code(self, capsys, vc_file, monkeypatch):
        solve = driver.approximate_extension

        def tampered(*args, **kwargs):
            report = solve(*args, **kwargs)
            report.output_weight -= 1
            return report

        monkeypatch.setattr(driver, "approximate_extension", tampered)
        code, out, err = run(capsys, "solve", vc_file, "--beta", "1.5")
        assert code == 1
        assert "weight mismatch" in err
        assert json.loads(out)["problem"] == "wvc"

    def test_max_n_cap_exit_code(self, capsys, vc_file):
        code, _, err = run(capsys, "solve", vc_file, "--beta", "1.5", "--max-n", "4")
        assert code == 3
        assert "resource" in err

    def test_max_n_bounds_verification(self, capsys, tmp_path):
        # The solve itself fits in cap 8 (weight classes hold one or two
        # vertices), but OPT over 2^10 subsets does not.
        path = tmp_path / "i.wvc"
        path.write_text(emit_instance(random_instance("wvc", 10, 0.3, seed=7)))
        code, out, _ = run(
            capsys, "solve", str(path), "--oracle", "branching", "--max-n", "8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["opt_weight"] is None
        assert payload["ratio"] is None

    def test_env_cap_override(self, capsys, vc_file, monkeypatch):
        monkeypatch.setenv("WAMLS_MAX_N", "4")
        code, _, _ = run(capsys, "solve", vc_file, "--beta", "1.5")
        assert code == 3


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--beta", "nan"], "beta"),
        (["--beta", "nan", "--oracle", "branching"], "beta"),
        (["--beta", "inf"], "beta"),
        (["--eps", "nan"], "eps"),
        (["--model", "membership", "--mode", "exhaustive", "--alpha", "0.5"], "alpha"),
        (["--model", "membership", "--alpha", "inf"], "alpha"),
    ],
)
def test_solve_bad_factor_exit_code(capsys, tmp_path, argv, name):
    path = tmp_path / "i.wvc"
    path.write_text(emit_instance(random_instance("wvc", 6, 0.4, seed=1)))
    code, out, err = run(capsys, "solve", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be")


@pytest.mark.parametrize(
    "header, name",
    [
        ("family covering n=3 alpha=nan", "alpha"),
        ("family covering n=3 alpha=inf", "alpha"),
        ("family extension n=3 alpha=1 beta=nan", "beta"),
        ("family extension n=-1 alpha=1 beta=1.5", "universe_size"),
    ],
)
def test_verify_bad_dump_header_exit_code(capsys, tmp_path, header, name):
    dump = tmp_path / "fam.txt"
    dump.write_text(header + "\n0x0 0\n" if "extension" in header else header + "\n0x0\n")
    kind = header.split()[1]
    code, out, err = run(capsys, "family", "verify", kind, "--n", "3", "--dump", str(dump))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be")


def test_family_build_negative_n_exit_code(capsys):
    code, out, err = run(capsys, "family", "build", "covering", "--n", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: n must be >= 0")


class TestVerifyCommand:
    def test_bounds_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds", "--trials", "3")
        assert code == 0
        assert "pass" in out

    def test_families_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "families", "--trials", "5", "--max-n", "7"
        )
        assert code == 0

    def test_end_to_end_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "end-to-end", "--trials", "5", "--max-n", "8"
        )
        assert code == 0

    @pytest.mark.parametrize("suite,max_n", [("families", "0"), ("end-to-end", "1")])
    def test_max_n_below_suite_minimum_rejected(self, capsys, suite, max_n):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--trials", "2", "--max-n", max_n
        )
        assert code == 2
        assert "pass" not in out
        assert f"max_n for suite {suite} must be >=" in err

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'oracles'"):
            verify.run_suite("oracles")


class TestHelpGolden:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("help_main.txt", ["--help"]),
            ("help_bound.txt", ["bound", "--help"]),
            ("help_solve.txt", ["solve", "--help"]),
        ],
    )
    def test_help_matches_golden(self, capsys, name, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        golden = (DATA / name).read_text()
        assert out == golden


@pytest.mark.parametrize("header", ["p whs 2 1", "p wvc 2", "p wvc 2 1 5"])
@pytest.mark.parametrize(
    "argv",
    [("solve", "{}"), ("family", "build", "covering", "--instance", "{}", "--alpha", "2")],
)
def test_wrong_header_arity_exit_code(capsys, tmp_path, header, argv):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\nw 1 1\nw 2 1\ne 1 2\n")
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert "line 1: p " in err
