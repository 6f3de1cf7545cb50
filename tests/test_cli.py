"""End-to-end tests of the command line interface, driven in-process."""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

import eiscong
from eiscong import cli
from eiscong.arith import bernoulli, parse_rational
from eiscong.cli import main
from eiscong.elliptic import CUSP_FORMS
from eiscong.expansion import exp_parse, exp_serialize
from eiscong.hermitian import (
    hermitian_cusp_form,
    hermitian_expansion,
    hermitian_g_coefficient,
    imag_quad_field,
)
from eiscong.siegel import igusa_x10, igusa_x12, siegel_expansion, siegel_g_coefficient

from .oracles import generalized_bernoulli_by_polynomials


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: a site .pth file may import typing itself; the child finds the
    # package through the src directory of the one imported here
    src = str(Path(eiscong.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eiscong, eiscong.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", code, src],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def body(entry):
    """An expand cache entry's text after its digest line."""
    return entry.read_text().partition("\n")[2]


class TestScalarCommands:
    def test_bernoulli(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "--index", "12")
        assert code == 0
        assert out.strip() == "-691/2730"

    def test_bernoulli_beyond_int_str_digit_limit(self, capsys):
        # B_2100 has a 4419-digit numerator, past Python's default limit of
        # 4300 digits on int <-> str conversion
        code, out, _ = run(capsys, "bernoulli", "--index", "2100")
        assert code == 0
        value = parse_rational(out)
        assert value == bernoulli(2100)
        assert len(out.split("/")[0].lstrip("-")) == 4419

    def test_gen_bernoulli(self, capsys):
        code, out, _ = run(capsys, "gen-bernoulli", "--disc", "-7", "--index", "9")
        assert code == 0
        assert out.strip() == "-5086656/7"

    def test_gen_bernoulli_large_index(self, capsys):
        code, out, _ = run(capsys, "gen-bernoulli", "--disc", "-163", "--index", "201")
        assert code == 0
        assert parse_rational(out) == generalized_bernoulli_by_polynomials(201, -163)

    def test_coeff_siegel(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "siegel", "--weight", "10", "--matrix", "1,1,1"
        )
        assert code == 0
        assert out.strip() == "-1618/27"

    def test_coeff_hermitian(self, capsys):
        code, out, _ = run(
            capsys,
            "coeff", "hermitian", "--disc", "-4", "--weight", "8",
            "--matrix", "1,1,1,1",
        )
        assert code == 0
        assert out.strip() == "-63"

    def test_bad_matrix_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "coeff", "siegel", "--weight", "10", "--matrix", "1,1"
        )
        assert code == 2

    def test_indefinite_matrix_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "coeff", "siegel", "--weight", "10", "--matrix", "1,9,1"
        )
        assert code == 3

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(self, *a, **kw):
            built.append(kw.get("prog"))
            real_init(self, *a, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._build_parser.cache_clear()
        assert run(capsys, "bernoulli", "--index", "12")[:2] == (0, "-691/2730\n")
        assert built.count("eiscong") == 1
        assert run(capsys, "gen-bernoulli", "--disc", "-7", "--index", "9")[:2] == (
            0, "-5086656/7\n")
        assert run(capsys, "bernoulli", "--index", "x")[0] == 2
        assert built.count("eiscong") == 1

    @pytest.mark.parametrize("weight, matrix", [
        ("4", "0,0,0"), ("10", "1,1,1"), ("12", "2,1,3"), ("6", "3,0,0"),
    ])
    def test_coeff_siegel_is_the_library_coefficient(self, capsys, weight, matrix):
        code, out, _ = run(capsys, "coeff", "siegel", "--weight", weight, "--matrix", matrix)
        t = tuple(map(int, matrix.split(",")))
        assert (code, parse_rational(out)) == (0, siegel_g_coefficient(int(weight), t))

    @pytest.mark.parametrize("disc, weight, matrix", [
        ("-4", "8", "1,2,1,1"), ("-3", "10", "1,1,0,2"), ("-7", "6", "2,1,1,1"),
        ("-163", "4", "0,0,0,0"),
    ])
    def test_coeff_hermitian_is_the_library_coefficient(self, capsys, disc, weight, matrix):
        code, out, _ = run(capsys, "coeff", "hermitian", "--disc", disc, "--weight", weight,
                           "--matrix", matrix)
        h = tuple(map(int, matrix.split(",")))
        expected = hermitian_g_coefficient(imag_quad_field(int(disc)), int(weight), h)
        assert (code, parse_rational(out)) == (0, expected)

    def test_coeff_hermitian_without_disc_is_usage_error(self, capsys):
        code, out, err = run(capsys, "coeff", "hermitian", "--weight", "8",
                             "--matrix", "1,1,1,1")
        assert (code, out) == (2, "")
        assert "disc" in err


class TestExpand:
    def test_stdout_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--space", "siegel", "--form", "E",
            "--weight", "4", "--trace-bound", "2",
        )
        assert code == 0
        assert out == exp_serialize(siegel_expansion("E", 4, 2))

    @pytest.mark.parametrize("space, disc, form", [
        *CUSP_FORMS, ("siegel", None, "G"), ("siegel", None, "E"),
        ("hermitian", -3, "G"), ("hermitian", -3, "E"),
    ])
    def test_stdout_is_the_public_builder(self, capsys, space, disc, form):
        place = ["--space", space, "--form", form, "--trace-bound", "2"]
        if disc is not None:
            place += ["--disc", str(disc)]
        if form in ("G", "E"):
            place += ["--weight", "10"]
        code, out, _ = run(capsys, "expand", *place)
        assert code == 0
        if form in ("G", "E"):
            built = (siegel_expansion(form, 10, 2) if disc is None
                     else hermitian_expansion(form, disc, 10, 2))
        elif disc is None:
            built = (igusa_x10 if form == "X10" else igusa_x12)(2)
        else:
            built = hermitian_cusp_form(form, disc, 2)
        assert out == exp_serialize(built)

    def test_file_output_and_parse(self, tmp_path, capsys):
        path = tmp_path / "x10.exp"
        code, _, _ = run(
            capsys, "expand", "--space", "siegel", "--form", "X10",
            "--trace-bound", "3", "--out", str(path),
        )
        assert code == 0
        assert exp_parse(path.read_text()) == igusa_x10(3)

    def test_cache_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        args = ("expand", "--space", "hermitian", "--disc", "-3",
                "--form", "E", "--weight", "4", "--trace-bound", "2")
        code, first, _ = run(capsys, *args)
        assert code == 0
        cached = list(tmp_path.glob("*.exp"))
        assert len(cached) == 1
        code, second, _ = run(capsys, *args)
        assert code == 0
        assert second == first

    def test_failed_cache_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        args = ("expand", "--space", "siegel", "--form", "E",
                "--weight", "4", "--trace-bound", "2")
        real_write_text = Path.write_text

        def write_half_then_fail(self, text, *a, **kw):
            real_write_text(self, text[: len(text) // 2], *a, **kw)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        code, _, _ = run(capsys, *args)
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == exp_serialize(siegel_expansion("E", 4, 2))
        [cached] = tmp_path.iterdir()
        assert body(cached) == out

    G10 = ("expand", "--space", "siegel", "--form", "G", "--weight", "10",
           "--trace-bound", "1")

    def test_entry_cut_short_at_a_line_end_is_rebuilt(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        args = (*self.G10[:-1], "2")
        code, fresh, _ = run(capsys, *args)
        [cached] = tmp_path.iterdir()
        lines = cached.read_text().splitlines(keepends=True)
        cached.write_text("".join(lines[:-3]))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == fresh == exp_serialize(siegel_expansion("G", 10, 2))
        assert body(cached) == fresh  # rewritten

    @pytest.mark.parametrize("bad", ["garbage\n", "\xff\xfe", "",
                                     "space siegel\nweight 10\ntrace_bound 1\ncoefficients\n0,0,0 1/0\n"],
                             ids=["garbage", "not-utf8", "empty", "zero-denominator"])
    def test_corrupt_cache_entry_is_rebuilt(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        code, fresh, _ = run(capsys, *self.G10)
        [cached] = tmp_path.iterdir()
        cached.write_bytes(bad.encode("latin-1"))
        code, out, _ = run(capsys, *self.G10)
        assert code == 0
        assert out == fresh == exp_serialize(siegel_expansion("G", 10, 1))
        assert body(cached) == fresh  # rewritten
        assert [p.name for p in tmp_path.iterdir()] == [cached.name]  # no leftover temp file

    @pytest.mark.parametrize("other", [
        ("siegel", "G", "12", "1"), ("siegel", "G", "10", "2"), ("hermitian", "G", "10", "1"),
    ])
    def test_cache_entry_for_another_request_is_rebuilt(self, tmp_path, capsys, monkeypatch,
                                                        other):
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        space, form, weight, bound = other
        run(capsys, "expand", "--space", space, "--disc", "-4", "--form", form,
            "--weight", weight, "--trace-bound", bound)
        [wrong] = tmp_path.iterdir()
        code, fresh, _ = run(capsys, *self.G10)
        [target] = set(tmp_path.iterdir()) - {wrong}
        target.write_text(wrong.read_text())  # a valid file under the wrong name
        code, out, _ = run(capsys, *self.G10)
        assert code == 0
        assert out == fresh == body(target)

    def test_cache_name_carries_the_version(self, tmp_path, capsys, monkeypatch):
        # an entry named as before the cache was versioned is never read
        from eiscong import __version__

        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        (tmp_path / "siegel_0_G_10_1.exp").write_text("garbage\n")
        code, out, _ = run(capsys, *self.G10)
        assert code == 0
        assert out == exp_serialize(siegel_expansion("G", 10, 1))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["siegel_0_G_10_1.exp", f"v{__version__}.3_siegel_0_G_10_1.exp"]

    @pytest.mark.parametrize("requests", [
        [("--space", "siegel", "--disc", d, "--form", "G", "--weight", "10") for d in ("-4", "-3")],
        [("--space", "siegel", "--form", "X10", *w) for w in ((), ("--weight", "10"))],
    ], ids=["siegel-disc", "named-form-weight"])
    def test_equal_requests_share_one_entry(self, tmp_path, capsys, monkeypatch, requests):
        # the name comes from the resolved request: Siegel has no disc, and
        # a named form has the weight of its CUSP_FORMS row
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        outs = {run(capsys, "expand", *argv, "--trace-bound", "1")[:2] for argv in requests}
        [(code, out)] = outs
        assert code == 0
        [entry] = tmp_path.iterdir()
        assert body(entry) == out

    @pytest.mark.parametrize("argv", [
        ("--space", "siegel", "--form", "X10", "--weight", "12"),
        ("--space", "siegel", "--form", "CHI8", "--weight", "8"),
        ("--space", "siegel", "--form", "G"),
    ])
    def test_invalid_request_is_refused_before_the_cache(self, tmp_path, capsys, monkeypatch,
                                                          argv):
        monkeypatch.setenv("EISCONG_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "_cached_text", lambda path: "a hit for any name\n")
        code, out, _ = run(capsys, "expand", *argv, "--trace-bound", "1")
        assert (code, out) == (2, "")
        assert list(tmp_path.iterdir()) == []

    def test_named_form_rejects_conflicting_weight(self, capsys):
        code, _, _ = run(
            capsys, "expand", "--space", "siegel", "--form", "X10",
            "--weight", "12",
        )
        assert code == 2

    @pytest.mark.parametrize("place", [
        ("--space", "hermitian", "--disc", "-4", "--form", "X10"),
        ("--space", "hermitian", "--disc", "-7", "--form", "F10"),
        ("--space", "hermitian", "--disc", "-3", "--form", "CHI8"),
        ("--space", "siegel", "--form", "CHI8"),
        ("--space", "elliptic", "--form", "X12"),
    ])
    def test_named_form_outside_its_space_is_usage_error(self, capsys, place):
        code, _, err = run(capsys, "expand", *place, "--trace-bound", "1")
        assert code == 2
        assert "computation error" not in err

    def test_hermitian_without_disc_fails(self, capsys):
        code, _, _ = run(
            capsys, "expand", "--space", "hermitian", "--form", "E",
            "--weight", "4",
        )
        assert code == 2


class TestCongruence:
    def make_files(self, tmp_path, capsys):
        lhs = tmp_path / "g10.exp"
        rhs = tmp_path / "x10.exp"
        run(capsys, "expand", "--space", "siegel", "--form", "G",
            "--weight", "10", "--trace-bound", "3", "--out", str(lhs))
        run(capsys, "expand", "--space", "siegel", "--form", "X10",
            "--trace-bound", "3", "--out", str(rhs))
        return lhs, rhs

    def test_solve(self, tmp_path, capsys):
        lhs, rhs = self.make_files(tmp_path, capsys)
        code, out, _ = run(
            capsys, "congruence", "solve", "--lhs", str(lhs), "--rhs", str(rhs),
            "--mod", "43867",
        )
        assert code == 0
        assert "11313" in out
        assert "verified" in out

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        lhs, rhs = self.make_files(tmp_path, capsys)
        code, out, _ = run(
            capsys, "congruence", "verify", "--lhs", str(lhs), "--rhs", str(rhs),
            "--mod", "43867", "--lambda", "7",
        )
        assert code == 1
        assert "FAILED" in out

    def test_structured_format(self, tmp_path, capsys):
        lhs, rhs = self.make_files(tmp_path, capsys)
        code, out, _ = run(
            capsys, "congruence", "solve", "--lhs", str(lhs), "--rhs", str(rhs),
            "--mod", "43867", "--format", "structured",
        )
        assert code == 0
        assert "modulus 43867" in out
        assert "lambda 11313" in out
        assert "verified true" in out

    @pytest.mark.parametrize("action", [
        ("verify", "--mod", "0", "--lambda", "1"),
        ("solve", "--mod", "0"),
        ("solve", "--mod", "-43867"),
    ], ids=["verify-0", "solve-0", "solve-negative"])
    def test_modulus_below_one_is_usage_error(self, tmp_path, capsys, action):
        lhs, rhs = self.make_files(tmp_path, capsys)
        code, out, err = run(capsys, "congruence", action[0], "--lhs", str(lhs),
                             "--rhs", str(rhs), *action[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: modulus must be >= 1")

    def test_verify_requires_lambda(self, tmp_path, capsys):
        lhs, rhs = self.make_files(tmp_path, capsys)
        code, _, err = run(
            capsys, "congruence", "verify", "--lhs", str(lhs), "--rhs", str(rhs),
            "--mod", "43867",
        )
        assert code == 2

    def test_non_invertible_reference_is_computation_error(self, tmp_path, capsys):
        # valid input whose reference coefficient 2 has no inverse mod 4
        lhs = tmp_path / "lhs.exp"
        rhs = tmp_path / "rhs.exp"
        header = "space elliptic\nweight 4\ntrace_bound 1\ncoefficients\n"
        lhs.write_text(header + "0 1\n1 1\n")
        rhs.write_text(header + "0 2\n1 3\n")
        code, _, err = run(
            capsys, "congruence", "solve", "--lhs", str(lhs), "--rhs", str(rhs),
            "--mod", "4",
        )
        assert code == 3
        assert "not invertible mod 4" in err

    @pytest.mark.parametrize("header", [
        "space hermitian\ndisc x\nweight 4\ntrace_bound 1\n",
        "space siegel\nweight 4\ntrace_bound -1\n",
        "space siegel\nweight x\ntrace_bound 1\n",
        "space siegel\ndisc -4\nweight 4\ntrace_bound 1\n",
    ], ids=["disc-x", "negative-trace-bound", "weight-x", "siegel-disc"])
    def test_malformed_header_is_a_parse_error(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.exp"
        bad.write_text(header + "coefficients\n")
        good, _ = self.make_files(tmp_path, capsys)
        for lhs, rhs in ((bad, good), (good, bad)):
            code, _, err = run(capsys, "congruence", "solve", "--lhs", str(lhs),
                               "--rhs", str(rhs), "--mod", "43867")
            assert code == 3
            assert err.startswith(f"invalid expansion file {bad}: line ")
        code, _, err = run(capsys, "cusp-correct", "--in", str(bad))
        assert code == 3
        assert err.startswith(f"invalid expansion file {bad}: line ")

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "congruence", "solve", "--lhs", str(tmp_path / "no.exp"),
            "--rhs", str(tmp_path / "no2.exp"), "--mod", "61",
        )
        assert code == 2


class TestCuspCorrect:
    def test_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "g10.exp"
        dst = tmp_path / "c10.exp"
        run(capsys, "expand", "--space", "siegel", "--form", "G",
            "--weight", "10", "--trace-bound", "3", "--out", str(src))
        code, _, _ = run(capsys, "cusp-correct", "--in", str(src),
                         "--out", str(dst))
        assert code == 0
        corrected = exp_parse(dst.read_text())
        from eiscong.expansion import phi_operator

        assert phi_operator(corrected).is_zero()

    def test_bound_too_small_is_computation_error(self, tmp_path, capsys):
        # a valid G12 file whose one boundary coefficient cannot fix E4^3 and E6^2
        src = tmp_path / "g12.exp"
        run(capsys, "expand", "--space", "siegel", "--form", "G", "--weight", "12",
            "--trace-bound", "0", "--out", str(src))
        code, out, err = run(capsys, "cusp-correct", "--in", str(src))
        assert (code, out) == (3, "")
        assert err == "computation error: trace bound 0 too small to determine 2 monomials\n"

    def test_elliptic_input_is_computation_error(self, tmp_path, capsys):
        # a valid degree-1 file is no usage error: it is the wrong space, as
        # mismatched spaces are for congruence solve
        src = tmp_path / "e4.exp"
        run(capsys, "expand", "--space", "elliptic", "--form", "E", "--weight", "4",
            "--out", str(src))
        code, out, err = run(capsys, "cusp-correct", "--in", str(src))
        assert (code, out) == (3, "")
        assert err == "computation error: cusp_correction expects a degree-2 expansion, got elliptic\n"


class TestScan:
    def test_irregular(self, capsys):
        code, out, _ = run(capsys, "scan", "irregular", "--max-prime", "100")
        assert code == 0
        assert "37" in out and "32" in out
        assert "59" in out and "67" in out

    def test_condition_b(self, capsys):
        code, out, _ = run(capsys, "scan", "condition-b", "--disc", "-4",
                           "--max-k", "10")
        assert code == 0
        assert "61" in out and "277" in out

    def test_condition_b_reports_unfactored_cofactor(self, capsys):
        # B_15,chi(-67) has numerator 2^a 3^b 5^c times a composite with no
        # prime factor below 1e7
        code, out, _ = run(capsys, "scan", "condition-b", "--disc", "-67",
                           "--max-k", "16")
        assert code == 0
        lines = out.splitlines()
        assert "k=16: [] unfactored 27911403950873192228229911" in lines
        assert "k=14: [73,1439,56783,226088481721]" in lines
        assert any(line.startswith("(unfactored: ") for line in lines)

    def test_condition_b_marks_probable_primes(self, capsys):
        # the largest prime factor of the numerator of B_15,chi(-163) lies
        # above the deterministic Miller-Rabin range 3.317e24
        code, out, _ = run(capsys, "scan", "condition-b", "--disc", "-163",
                           "--max-k", "16")
        assert code == 0
        lines = out.splitlines()
        assert "k=16: [358181,6185071975972339006627199?]" in lines
        assert "k=14: [103,172357,1097359,1883639,2464211]" in lines
        assert any(line.startswith("(? marks probable primes") for line in lines)
        assert not any("unfactored" in line for line in lines if line.startswith("k="))

    def test_condition_b_rejects_a_real_quadratic_field(self, capsys):
        code, out, err = run(capsys, "scan", "condition-b", "--disc", "5",
                             "--max-k", "8")
        assert code == 2
        assert "imaginary quadratic" in err
        assert "unfactored" not in out

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "scan", "witness", "--disc", "-3",
                           "--weight", "10", "--mod", "809")
        assert code == 0
        assert "direct-search" in out

    @pytest.mark.parametrize("mod", ["0", "-3"])
    def test_bruinier_modulus_below_one_is_usage_error(self, capsys, mod):
        code, out, err = run(capsys, "scan", "bruinier", "--weight", "10", "--mod", mod)
        assert (code, out) == (2, "")
        assert err.startswith("error: modulus must be >= 1")

    def test_bruinier(self, capsys):
        code, out, _ = run(capsys, "scan", "bruinier", "--weight", "10",
                           "--mod", "43867", "--max-disc", "50")
        assert code == 0
        assert "-3" in out


class TestTablesAndReproduce:
    def test_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--disc", "-4")
        assert code == 0
        assert "-1/2" in out  # B_{1,chi}

    def test_tables_report_unfactored_cofactor(self, capsys):
        code, out, _ = run(capsys, "tables", "--disc", "-67")
        assert code == 0
        lines = out.splitlines()
        assert " 15  837342118526195766846897330  [-] unfactored 27911403950873192228229911" in lines
        assert " 13  -35063379577467215039546  [73, 1439, 56783, 226088481721]" in lines
        assert any(line.startswith("(unfactored: ") for line in lines)

    def test_tables_mark_the_unscanned_weight(self, capsys):
        # k = 2 lies below the scan; a scanned weight with no primes keeps [-]
        code, out, _ = run(capsys, "tables", "--disc", "-4")
        assert code == 0
        lines = out.splitlines()
        assert "  3  3/2  [-]" in lines
        assert [line for line in lines if "not scanned" in line] == [
            "  1  -1/2  [not scanned]",
            "(not scanned: k = 2, below the first weight k = 4 of the condition-B scan)",
        ]

    def test_tables_mark_probable_primes(self, capsys):
        code, out, _ = run(capsys, "tables", "--disc", "-163")
        assert code == 0
        lines = out.splitlines()
        assert (" 15  332306289813862253659910514752850  "
                "[358181, 6185071975972339006627199?]") in lines
        assert any(line.startswith("(? marks probable primes") for line in lines)
        assert any(line.startswith("(* marks primes failing condition (A))")
                   for line in lines)
        assert not any("unfactored" in line for line in lines if line[:1] == " ")

    @pytest.mark.parametrize("section", ["1", "4.1", "4.2", "5"])
    def test_reproduce_sections_pass(self, capsys, section):
        code, out, _ = run(capsys, "reproduce", "--section", section)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out
