import ast
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from monodeg.cli import (
    EXIT_INPUT,
    EXIT_OK,
    fraction_to_decimal,
    fraction_to_scientific,
    parse_matrix,
    render_json,
    run,
)
from monodeg.errors import MatrixParseError
from monodeg.exact import IntMatrix

FORWARD = "[[-1,1,0],[-1,0,1],[1,0,0]]"
INVERSE = "[[0,0,1],[1,0,1],[0,1,1]]"


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


class TestParseMatrix:
    def test_single_entry(self):
        assert parse_matrix("[[2]]") == IntMatrix(((2,),))

    def test_golden_matrix(self):
        assert parse_matrix(FORWARD) == IntMatrix(((-1, 1, 0), (-1, 0, 1), (1, 0, 0)))

    def test_not_square(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("[[1,2],[3]]")
        assert err.value.reason == "NOT_SQUARE"

    def test_empty(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("[]")
        assert err.value.reason == "EMPTY"

    def test_malformed(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("[[1,2],[3,")
        assert err.value.reason == "PARSE_ERROR"

    def test_non_integer_entry(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("[[1.5,2],[3,4]]")
        assert err.value.reason == "PARSE_ERROR"

    def test_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"matrix": [[0,1],[1,1]]}')
        assert parse_matrix(str(path)) == IntMatrix(((0, 1), (1, 1)))

    def test_missing_file(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("/nonexistent/matrix.json")


class TestSequenceCommand:
    def test_inverse_ten_terms(self):
        code, out = run_cli(["sequence", "-m", INVERSE, "-n", "10"])
        assert code == EXIT_OK
        assert out.strip() == "2 4 7 13 24 44 81 149 274 504"

    def test_csv(self):
        code, out = run_cli(["sequence", "-m", "[[2]]", "-n", "3", "--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines() == ["n,degree", "1,2", "2,4", "3,8"]

    def test_json(self):
        code, out = run_cli(["sequence", "-m", INVERSE, "-n", "5", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sequence"] == [2, 4, 7, 13, 24]

    def test_input_error_exit_code(self):
        code, _ = run_cli(["sequence", "-m", "[[1,2],[3]]"])
        assert code == EXIT_INPUT

    def test_rank_deficient_exit_code(self):
        code, _ = run_cli(["sequence", "-m", "[[1,1],[1,1]]"])
        assert code == EXIT_INPUT


def spy_spectral_summary(monkeypatch, forbid_degree_sequence=False):
    """Record the matrix of every spectral_summary call, under every name the
    function is bound to; optionally make degree_sequence fail."""
    import sys

    import monodeg.spectra as spectra_mod

    spectra_calls = []
    real_summary = spectra_mod.spectral_summary

    def spy_summary(a, bits):
        spectra_calls.append(a)
        return real_summary(a, bits)

    def no_degree_sequence(a, n):
        raise AssertionError("analyze must not rebuild the powers")

    for name, mod in list(sys.modules.items()):
        if name.startswith("monodeg."):
            if hasattr(mod, "spectral_summary"):
                monkeypatch.setattr(mod, "spectral_summary", spy_summary)
            if forbid_degree_sequence and hasattr(mod, "degree_sequence"):
                monkeypatch.setattr(mod, "degree_sequence", no_degree_sequence)
    return spectra_calls


def count_calls(monkeypatch, *names):
    """Count calls to the named monodeg functions, under every name each
    function is bound to."""
    import sys

    counts = dict.fromkeys(names, 0)
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("monodeg."):
            continue
        for name in names:
            real = getattr(mod, name, None)
            if real is None:
                continue

            def spy(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(mod, name, spy)
    return counts


class TestVerdictCommand:
    def test_one_spectrum_for_both_verdicts(self, monkeypatch):
        spectra_calls = spy_spectral_summary(monkeypatch)
        code, out = run_cli(["verdict", "-m", FORWARD, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["dual"] == "RECURRENCE_PROVEN"
        assert spectra_calls == [parse_matrix(FORWARD)]

    def test_one_char_poly_and_no_det(self, monkeypatch):
        # unimodularity is read off chi_A(0) of the forward spectral summary
        counts = count_calls(monkeypatch, "char_poly", "det")
        code, out = run_cli(["verdict", "-m", FORWARD, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["dual"] == "RECURRENCE_PROVEN"
        assert counts == {"char_poly": 1, "det": 0}

    def test_forward_json(self):
        code, out = run_cli(["verdict", "-m", FORWARD, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["d1"] == "NO_RECURRENCE_PROVEN"
        assert payload["basis"] == "PROP_3_1"
        assert payload["dual"] == "RECURRENCE_PROVEN"

    def test_not_unimodular_dual_is_null(self):
        code, out = run_cli(["verdict", "-m", "[[2,0],[0,3]]", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dual"] is None

    @pytest.mark.parametrize("argv", [
        ["verdict", "-m", "[[0,-1],[1,1]]", "--precision", "-1000"],
        ["verdict", "-m", "[[2,1],[1,1]]", "--precision", "-1000", "--strict"],
        ["analyze", "-m", "[[0,-1],[1,1]]", "--precision", "-1"],
    ])
    def test_negative_precision_is_an_input_error(self, argv, capsys):
        code, out = run_cli(argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert capsys.readouterr().err.startswith("error: precision must be nonnegative")


class TestAnalyzeCommand:
    def test_trivial_one_by_one(self):
        code, out = run_cli(["analyze", "-m", "[[1]]"])
        assert code == EXIT_OK
        assert "sequence: 1 1" in out
        assert "x - 1" in out
        assert "consistency: CONSISTENT" in out

    def test_forward_full_report_json(self):
        code, out = run_cli(
            ["analyze", "-m", FORWARD, "-n", "60", "--max-order", "10", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sequence"][:4] == [2, 3, 4, 6]
        assert payload["recurrence"] is None
        assert payload["verdicts"]["d1"]["classification"] == "NO_RECURRENCE_PROVEN"
        assert payload["verdicts"]["dual"]["classification"] == "RECURRENCE_PROVEN"
        assert payload["consistency"]["status"] == "CONSISTENT"
        assert payload["det"] == 1
        assert payload["char_poly"] == [-1, 1, 1, 1]

    def test_json_round_trip_byte_identical(self):
        _, out = run_cli(["analyze", "-m", INVERSE, "--format", "json"])
        assert render_json(json.loads(out)) == out

    def test_text_and_json_agree(self):
        _, text = run_cli(["analyze", "-m", INVERSE])
        _, js = run_cli(["analyze", "-m", INVERSE, "--format", "json"])
        payload = json.loads(js)
        seq_line = "sequence: " + " ".join(str(t) for t in payload["sequence"])
        assert seq_line in text
        assert f"d1 verdict: {payload['verdicts']['d1']['classification']}" in text

    def test_parallel_flag_removed(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["analyze", "-m", INVERSE, "--parallel"])
        assert err.value.code == 2

    def test_one_forward_spectrum_and_power_pass(self, monkeypatch):
        # the report's spectrum is the one classify_d1 computed, the dual
        # verdict reads the reciprocal spectrum off it, and the degrees come
        # from the cell trace
        spectra_calls = spy_spectral_summary(monkeypatch, forbid_degree_sequence=True)
        code, _ = run_cli(["analyze", "-m", FORWARD, "--format", "json"])
        assert code == EXIT_OK
        assert spectra_calls == [parse_matrix(FORWARD)]

    def test_one_char_poly_and_det(self, monkeypatch):
        # the report's char_poly is the spectral summary's, its det is
        # (-1)^k chi_A(0); the one det call is the power walk's rank check
        counts = count_calls(monkeypatch, "char_poly", "det")
        code, out = run_cli(["analyze", "-m", FORWARD, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["det"], payload["char_poly"]) == (1, [-1, 1, 1, 1])
        assert counts == {"char_poly": 1, "det": 1}

    @pytest.mark.parametrize(
        "matrix",
        [
            # the search guard used to shrink to 24, so a spurious order-8
            # candidate verified against a proven non-recurrence
            "[[1,1],[-3,0]]",
            "[[1,3],[-1,0]]",
            # a spurious order-14 relation holds for n = 19..308
            "[[2,3,-1],[-3,1,1],[1,3,1]]",
            # the attached recurrence holds only from n = 99, so it is
            # verified on the doubled window
            "[[-1,-3,-2],[-2,-2,2],[-2,-1,3]]",
        ],
    )
    def test_default_bounds_consistent(self, matrix):
        code, out = run_cli(["analyze", "-m", matrix, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["consistency"]["status"] == "CONSISTENT"
        bounds = payload["search_bounds"]
        assert bounds["guard"] == 4 * bounds["max_order"]

    def test_spurious_candidate_retried_on_doubled_window(self):
        # at -n 200 an order-12 relation holds from n = 21 through the window
        # but not through 400 terms
        code, out = run_cli(
            ["analyze", "-m", "[[2,3,-1],[-3,1,1],[1,3,1]]", "-n", "200", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["consistency"]["status"] == "CONSISTENT"
        assert payload["verdicts"]["d1"]["classification"] == "NO_RECURRENCE_PROVEN"

    def test_refuted_candidate_is_not_reported(self):
        # the order-12 relation of the test above fails on the doubled
        # window, so the report must not print it as the recurrence
        code, out = run_cli(
            ["analyze", "-m", "[[2,3,-1],[-3,1,1],[1,3,1]]", "-n", "200", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["recurrence"] is None
        assert '"recurrence": null' in out

    def test_stripped_fit_is_not_reported_without_the_tail(self):
        # the fit's x^j-free part only agrees on a bare suffix, which must not
        # count as a recurrence of a proven non-recurrence
        code, out = run_cli(["analyze", "-m", "[[-3,3],[-3,1]]", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["recurrence"] is None
        assert payload["consistency"]["status"] == "CONSISTENT"


class TestStrictMode:
    def test_unresolved_spectrum_exit_codes(self, monkeypatch):
        import monodeg.verdict as verdict_mod
        from monodeg.errors import UnresolvedCertification

        def boom(a, bits):
            raise UnresolvedCertification("forced for the test")

        monkeypatch.setattr(verdict_mod, "spectral_summary", boom)
        code, out = run_cli(["analyze", "-m", "[[0,1],[1,1]]", "--strict"])
        assert code == 4
        assert "unresolved" in out
        code, _ = run_cli(["analyze", "-m", "[[0,1],[1,1]]"])
        assert code == EXIT_OK  # without --strict the report still renders
        # with no spectral summary, chi_A and det A are computed directly
        code, out = run_cli(["analyze", "-m", "[[0,1],[1,1]]", "--format", "json"])
        payload = json.loads(out)
        assert (payload["det"], payload["char_poly"]) == (-1, [-1, -1, 1])
        assert payload["verdicts"]["dual"]["classification"] == "UNKNOWN"

    @pytest.mark.parametrize("matrix", [FORWARD, "[[0,-1],[1,0]]"])
    def test_unresolved_ratio_flags_exit_codes(self, monkeypatch, matrix):
        import monodeg.spectra as spectra_mod

        unresolved = spectra_mod.RatioFlag(spectra_mod.UNRESOLVED)
        monkeypatch.setattr(spectra_mod, "_attribute_pair", lambda *args: unresolved)
        code, out = run_cli(["verdict", "-m", matrix, "--strict"])
        assert code == 4
        assert out.startswith("d1 verdict: UNKNOWN\n")
        code, _ = run_cli(["verdict", "-m", matrix])
        assert code == EXIT_OK

    def test_isolation_failure_exit_code(self, monkeypatch):
        import monodeg.spectra as spectra_mod

        monkeypatch.setattr(spectra_mod, "_aberth_starts", lambda p: None)
        monkeypatch.setattr(spectra_mod, "_complex_starts", lambda p, dps, bits: None)
        code, out = run_cli(["verdict", "-m", "[[1,-2],[1,1]]", "--strict"])
        assert code == 4
        assert "UNKNOWN" in out


class TestCellsCommand:
    def test_quarter_rotation(self):
        code, out = run_cli(["cells", "-m", "[[0,-1],[1,0]]", "-n", "20", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cells"]["status"] == "PERIODIC"
        assert payload["cells"]["period"] == 4


class TestRecurrenceCommand:
    def test_inverse_recurrence(self):
        code, out = run_cli(["recurrence", "-m", INVERSE, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["recurrence"]["order"] == 3
        assert payload["recurrence"]["polynomial"] == "x^3 - x^2 - x - 1"

    @pytest.mark.parametrize("terms", [[], ["-n", "200"]])
    def test_power_of_x_head_is_valid_from(self, terms):
        # the sequence obeys x - 3 from n = 4, not x^4 - 3*x^3 from n = 1
        code, out = run_cli(["recurrence", "-m", "[[2,-1],[0,-3]]"] + terms)
        assert code == EXIT_OK
        assert out == "recurrence: x - 3 (order 1, valid from 4)\n"

    def test_long_transient_found_on_long_window(self):
        code, out = run_cli(
            ["recurrence", "-m", "[[-1,-3,-2],[-2,-2,2],[-2,-1,3]]", "-n", "200",
             "--format", "json"]
        )
        assert code == EXIT_OK
        rec = json.loads(out)["recurrence"]
        assert rec["polynomial"] == "x^3 - 15*x - 2"
        assert rec["valid_from"] == 99

    def test_none_found_text(self):
        code, out = run_cli(
            ["recurrence", "-m", FORWARD, "-n", "60", "--max-order", "10", "--guard", "20"]
        )
        assert code == EXIT_OK
        assert "no recurrence found" in out


class TestRendering:
    def test_fraction_to_decimal(self):
        from fractions import Fraction

        assert fraction_to_decimal(Fraction(1, 2), 4) == "0.5000"
        assert fraction_to_decimal(Fraction(-7, 3), 6) == "-2.333333"
        assert fraction_to_decimal(Fraction(0), 3) == "0.000"

    def test_fraction_to_scientific(self):
        from fractions import Fraction

        assert fraction_to_scientific(Fraction(1, 1 << 40), 3) == "9.095e-13"
        assert fraction_to_scientific(Fraction(0)) == "0"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, lang: str = "") -> str:
    """The first fenced code block under README's ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def readme_cli_lines() -> list[tuple[list[str], str]]:
    """(arguments, comment) of each ``monodeg`` line in README's CLI block."""
    lines = []
    for line in readme_block("CLI").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "monodeg"
        lines.append((argv[1:], comment.strip()))
    return lines


class TestReadmeExamples:
    def test_every_cli_line_runs(self):
        for argv, _ in readme_cli_lines():
            code, out = run_cli(argv)
            assert code == EXIT_OK, argv
            assert out, argv

    @pytest.mark.parametrize(
        "stated", ["2 4 7 13 24 44 81 149 274 504", "x^3 - x^2 - x - 1", "PERIODIC with period 4"]
    )
    def test_stated_cli_output(self, stated):
        [argv] = [argv for argv, comment in readme_cli_lines() if comment == stated]
        code, out = run_cli(argv)
        assert code == EXIT_OK
        assert stated in out.splitlines()[0]

    def test_library_block_values(self):
        block = readme_block("Library", "python")
        namespace: dict = {}
        exec(block, namespace)
        checked = 0
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if not comment:
                continue
            stated = re.match(r"'[^']*'|\([^()]*\)", comment.strip())
            assert stated, line
            assert eval(code, namespace) == ast.literal_eval(stated.group()), line
            checked += 1
        assert checked == 3
