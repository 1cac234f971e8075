import json

import pytest

from smasp import cli
from smasp.cli import main

F1_CNF = "p cnf 3 2\n1 2 0\n-1 3 0\n"
PI0_LP = "a :- b, not c.\nb.\n"
PCID0 = "#theory\nb | -c\n#program\na :- b, not c.\nb.\n"


@pytest.fixture
def f1(tmp_path):
    p = tmp_path / "f1.cnf"
    p.write_text(F1_CNF)
    return str(p)


@pytest.fixture
def pi0(tmp_path):
    p = tmp_path / "pi0.lp"
    p.write_text(PI0_LP)
    return str(p)


@pytest.fixture
def pcid0(tmp_path):
    p = tmp_path / "t0.pcid"
    p.write_text(PCID0)
    return str(p)


class TestSolve:
    def test_self_check_help_names_what_is_checked_at_any_size(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "check a model verdict against the oracle at any size; at desk scale" in text
        assert "cross-validate" not in text

    def test_dpll_model_and_exit_code(self, f1, capsys):
        assert main(["solve", "--mode", "dpll", "--format", "cnf", f1]) == 10
        out = capsys.readouterr().out.splitlines()
        assert out == ["MODEL", "x1 x2 x3"]

    def test_lp_model_is_projected_to_atoms(self, pi0, capsys):
        assert main(["solve", "--mode", "clasp", "--format", "lp", pi0]) == 10
        out = capsys.readouterr().out.splitlines()
        assert out == ["MODEL", "a b"]

    def test_unsat_exit_code(self, tmp_path, capsys):
        p = tmp_path / "unsat.cnf"
        p.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["solve", "--mode", "clasp", "--format", "cnf", str(p)]) == 20
        assert capsys.readouterr().out.strip() == "UNSATISFIABLE"

    def test_input_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.cnf"
        p.write_text("1 0\n")
        assert main(["solve", "--mode", "dpll", "--format", "cnf", str(p)]) == 1

    def test_dpll_rejects_programs(self, pi0):
        assert main(["solve", "--mode", "dpll", "--format", "lp", pi0]) == 1

    def test_limit_exit_code(self, pi0, capsys):
        assert main(["solve", "--mode", "clasp", "--format", "lp",
                     "--max-steps", "1", pi0]) == 2
        assert capsys.readouterr().out.strip() == "LIMIT EXCEEDED"

    def test_enumerate_blocks_models(self, tmp_path, capsys):
        p = tmp_path / "free.cnf"
        p.write_text("p cnf 2 1\n1 2 0\n")
        assert main(["solve", "--mode", "dpll", "--format", "cnf",
                     "--enumerate", "10", str(p)]) == 10
        out = capsys.readouterr().out.splitlines()
        assert out.count("MODEL") == 3  # three assignments satisfy x1 | x2

    def test_enumerate_needs_at_least_one_model(self, f1, capsys):
        assert main(["solve", "--mode", "dpll", "--format", "cnf",
                     "--enumerate", "0", f1]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--enumerate" in captured.err

    def test_negative_max_steps_is_an_input_error(self, pi0, capsys):
        assert main(["solve", "--mode", "clasp", "--format", "lp",
                     "--max-steps", "-5", pi0]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--max-steps" in captured.err

    def test_trace_with_enumeration_is_an_input_error(self, f1, tmp_path, capsys):
        trace_file = tmp_path / "run.trace"
        assert main(["solve", "--mode", "dpll", "--format", "cnf", "--enumerate", "2",
                     "--trace", str(trace_file), f1]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trace supports single-model solving only\n"
        assert not trace_file.exists()

    @pytest.mark.parametrize("trace, source", [
        ("", "f1.cnf"),                   # the trace path is a directory
        ("missing/run.trace", "f1.cnf"),  # its directory does not exist
        ("run.trace", "missing.cnf"),     # the input does not exist
    ])
    def test_unusable_files_are_input_errors(self, f1, tmp_path, capsys, trace, source):
        assert main(["solve", "--mode", "clasp", "--format", "cnf",
                     "--trace", str(tmp_path / trace), str(tmp_path / source)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_zero_max_steps_is_a_limit(self, pi0, capsys):
        assert main(["solve", "--mode", "clasp", "--format", "lp",
                     "--max-steps", "0", pi0]) == 2
        assert capsys.readouterr().out.strip() == "LIMIT EXCEEDED"

    def test_zero_max_steps_solves_the_empty_cnf(self, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        assert main(["solve", "--mode", "clasp", "--format", "cnf",
                     "--max-steps", "0", str(path)]) == 10
        assert capsys.readouterr().out.splitlines()[0] == "MODEL"

    def test_pcid_minisatid(self, pcid0, capsys):
        assert main(["solve", "--mode", "minisatid", "--format", "pcid",
                     "--self-check", pcid0]) == 10
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "MODEL"
        assert out[1] in ("a b -c", "-a b c")

    def test_pcid_clasp_agrees(self, pcid0, capsys):
        assert main(["solve", "--mode", "clasp", "--format", "pcid", pcid0]) == 10
        first = capsys.readouterr().out.splitlines()[1]
        assert main(["solve", "--mode", "minisatid", "--format", "pcid", pcid0]) == 10
        second = capsys.readouterr().out.splitlines()[1]
        assert first == second

    def test_raw_model_includes_alias_atoms(self, pi0, capsys):
        assert main(["solve", "--mode", "clasp", "--format", "lp", "--raw", pi0]) == 10
        out = capsys.readouterr().out.splitlines()[1]
        assert "f{b,not c}" in out


class TestTranslate:
    def test_edcomp_emits_the_seven_clauses(self, pi0, capsys):
        assert main(["translate", "--to", "edcomp", pi0]) == 0
        lines = set(capsys.readouterr().out.splitlines())
        assert lines == {
            "a | -b | c",
            "f{b,not c} | -a",
            "f{b,not c} | -b | c",
            "-f{b,not c} | b",
            "-f{b,not c} | -c",
            "b",
            "-c",
        }

    def test_comp_emits_the_five_clauses(self, pi0, capsys):
        assert main(["translate", "--to", "comp", pi0]) == 0
        lines = set(capsys.readouterr().out.splitlines())
        assert lines == {"a | -b | c", "-a | b", "-a | -c", "b", "-c"}

    def test_pi_translation_prints_a_program(self, pcid0, capsys):
        assert main(["translate", "--to", "pi", pcid0]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "a :- b, not c.",
            "b.",
            "c :- not not c.",
            ":- c, not b.",
        ]

    def test_open_translation(self, pi0, capsys):
        assert main(["translate", "--to", "open", pi0]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "c :- not not c."


class TestOracle:
    def test_answer_sets(self, pi0, capsys):
        assert main(["oracle", "--task", "answer-sets", pi0]) == 0
        assert capsys.readouterr().out.strip() == "{a b}"

    def test_wfm(self, pi0, capsys):
        assert main(["oracle", "--task", "wfm", pi0]) == 0
        assert capsys.readouterr().out.strip() == "a b -c"

    def test_gus_with_assumptions(self, tmp_path, capsys):
        p = tmp_path / "circ.lp"
        p.write_text("a :- b.\nb :- a.\n")
        assert main(["oracle", "--task", "gus", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "{a b}"

    def test_smasp_models(self, pcid0, capsys):
        assert main(["oracle", "--task", "smasp-models", pcid0]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert set(lines) == {"a b -c", "-a b c"}

    def test_pcid_models(self, pcid0, capsys):
        assert main(["oracle", "--task", "pcid-models", pcid0]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert set(lines) == {"a b -c", "-a b c"}

    def test_entails(self, pcid0, capsys):
        assert main(["oracle", "--task", "entails", "--goal", "b", pcid0]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["oracle", "--task", "entails", "--goal=-c", pcid0]) == 0
        assert capsys.readouterr().out.strip() == "no"


class TestCheckTrace:
    def test_emitted_trace_validates(self, f1, tmp_path, capsys):
        trace_file = str(tmp_path / "run.trace")
        assert main(["solve", "--mode", "dpll", "--format", "cnf",
                     "--trace", trace_file, f1]) == 10
        capsys.readouterr()
        assert main(["check-trace", "--trace", trace_file, "--format", "cnf",
                     "--strict-strategy", f1]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_trace_content_is_json_lines(self, f1, tmp_path):
        trace_file = tmp_path / "run.trace"
        main(["solve", "--mode", "dpll", "--format", "cnf",
              "--trace", str(trace_file), f1])
        lines = [json.loads(l) for l in trace_file.read_text().splitlines()]
        assert lines[0]["mode"] == "dpll"
        assert [l["rule"] for l in lines[1:]] == ["Decide", "UnitPropagate", "Decide"]
        assert [l.get("literal") for l in lines[1:]] == ["x1", "x3", "x2"]

    def test_tampered_trace_is_reported(self, f1, tmp_path, capsys):
        trace_file = tmp_path / "run.trace"
        main(["solve", "--mode", "dpll", "--format", "cnf",
              "--trace", str(trace_file), f1])
        lines = trace_file.read_text().splitlines()
        lines[1], lines[2] = (lines[2].replace('"index": 2', '"index": 1'),
                              lines[1].replace('"index": 1', '"index": 2'))
        trace_file.write_text("\n".join(lines))
        capsys.readouterr()
        assert main(["check-trace", "--trace", str(trace_file), "--format", "cnf",
                     str(f1)]) == 1
        assert capsys.readouterr().out.startswith("invalid at step 1")

    def test_wrong_input_digest_is_reported(self, f1, tmp_path, capsys):
        trace_file = str(tmp_path / "run.trace")
        main(["solve", "--mode", "dpll", "--format", "cnf", "--trace", trace_file, f1])
        other = tmp_path / "other.cnf"
        other.write_text("p cnf 1 1\n1 0\n")
        capsys.readouterr()
        assert main(["check-trace", "--trace", trace_file, "--format", "cnf",
                     str(other)]) == 1
        assert "invalid at step 0" in capsys.readouterr().out

    @pytest.mark.parametrize("header", [
        '{"mode": "clasp", "version": []}',
        '{"mode": "clasp", "version": "9.9"}',
        '{"mode": "clasp", "theory": 5}',
    ])
    def test_bad_trace_header_is_an_input_error(self, f1, tmp_path, capsys, header):
        trace_file = tmp_path / "run.trace"
        trace_file.write_text(header + "\n")
        assert main(["check-trace", "--trace", str(trace_file), "--format", "cnf", f1]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_a_trace_without_its_header_is_an_input_error(self, f1, tmp_path, capsys):
        trace_file = tmp_path / "run.trace"
        assert main(["solve", "--mode", "clasp", "--format", "cnf",
                     "--trace", str(trace_file), f1]) == 10
        headless = tmp_path / "headless.trace"
        headless.write_text(trace_file.read_text().split("\n", 1)[1])
        capsys.readouterr()
        for strict in ([], ["--strict-strategy"]):
            assert main(["check-trace", "--trace", str(headless), "--format", "cnf",
                         *strict, f1]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: trace line 1: ")
            assert "Traceback" not in captured.err

    def test_deeply_nested_trace_is_an_input_error(self, f1, tmp_path, capsys):
        trace_file = tmp_path / "deep.trace"
        trace_file.write_text("[" * 100_000 + "\n")
        assert main(["check-trace", "--trace", str(trace_file), "--format", "cnf",
                     "--strict-strategy", f1]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["smodels", "cmodels", "clasp", "minisatid"])
    def test_lp_traces_round_trip(self, pi0, tmp_path, capsys, mode):
        trace_file = str(tmp_path / f"{mode}.trace")
        assert main(["solve", "--mode", mode, "--format", "lp",
                     "--trace", trace_file, pi0]) == 10
        capsys.readouterr()
        assert main(["check-trace", "--trace", trace_file, "--format", "lp",
                     "--strict-strategy", pi0]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    @pytest.mark.parametrize("mode", ["smodels", "cmodels", "clasp", "minisatid"])
    def test_pcid_traces_round_trip(self, pcid0, tmp_path, capsys, mode):
        trace_file = str(tmp_path / f"{mode}.trace")
        assert main(["solve", "--mode", mode, "--format", "pcid",
                     "--trace", trace_file, pcid0]) == 10
        capsys.readouterr()
        assert main(["check-trace", "--trace", trace_file, "--format", "pcid",
                     "--strict-strategy", pcid0]) == 0
        assert capsys.readouterr().out.strip() == "valid"


class TestSelfCheck:
    def test_unsat_verdicts_are_cross_validated(self, tmp_path, capsys):
        p = tmp_path / "unsat.lp"
        p.write_text("a :- not a.\n")
        assert main(["solve", "--mode", "clasp", "--format", "lp",
                     "--self-check", str(p)]) == 20

    def test_a_self_checked_pcid_input_is_parsed_once(self, pcid0, monkeypatch, capsys):
        parsed = []
        parse = cli.parse_pcid
        monkeypatch.setattr(cli, "parse_pcid", lambda text: parsed.append(text) or parse(text))
        assert main(["solve", "--mode", "minisatid", "--format", "pcid",
                     "--self-check", pcid0]) == 10
        assert parsed == [PCID0]

    def test_totality_above_desk_scale_is_reported_unchecked(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.oracles, "DESK_CHECK_ATOM_LIMIT", 2)
        p = tmp_path / "three.pcid"
        p.write_text("#theory\n#program\na :- not b.\nb :- not a.\nc.\n")
        assert main(["solve", "--mode", "minisatid", "--format", "pcid",
                     "--self-check", str(p)]) == 10
        assert capsys.readouterr().err == (
            "totality not checked: 3 atoms, above the desk-scale limit of 2\n")
        assert main(["solve", "--mode", "minisatid", "--format", "pcid", str(p)]) == 10
        assert capsys.readouterr().err == ""

    def test_non_total_pcid_is_rejected_by_the_definitional_pipeline(self, tmp_path):
        p = tmp_path / "nontotal.pcid"
        p.write_text("#theory\n#program\na :- not b.\nb :- not a.\n")
        assert main(["solve", "--mode", "minisatid", "--format", "pcid",
                     "--self-check", str(p)]) == 1
        # without the check the pipeline is run as-is
        assert main(["solve", "--mode", "minisatid", "--format", "pcid",
                     str(p)]) in (10, 20)
