import json

import pytest

from positroids.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_dp_to_necklace(self, capsys):
        code, out, _ = run(capsys, "convert", "--from", "dp", "--to", "necklace", "--input", "1c 5 2 3 4")
        assert code == 0
        assert json.loads(out) == {
            "k": 4,
            "entries": [[1, 2, 3, 4], [1, 2, 3, 4], [1, 3, 4, 5], [1, 2, 4, 5], [1, 2, 3, 5]],
        }

    def test_necklace_round_trip(self, capsys):
        _, neck, _ = run(capsys, "convert", "--from", "dp", "--to", "necklace", "--input", "2 6 1 5 3 4")
        code, out, _ = run(capsys, "convert", "--from", "necklace", "--to", "dp", "--input", neck.strip())
        assert code == 0
        assert out.strip() == "2 6 1 5 3 4"

    def test_lpm_to_matroid(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--from", "lpm", "--to", "matroid", "--input", '{"n":7,"U":[1,4],"L":[5,7]}'
        )
        assert code == 0
        bases = json.loads(out)["bases"]
        assert [1, 4] in bases and [5, 7] in bases and [1, 2] not in bases

    def test_matroid_to_lpm(self, capsys):
        _, m_json, _ = run(
            capsys, "convert", "--from", "lpm", "--to", "matroid", "--input", '{"n":7,"U":[1,4],"L":[5,7]}'
        )
        code, out, _ = run(capsys, "convert", "--from", "matroid", "--to", "lpm", "--input", m_json.strip())
        assert code == 0
        assert json.loads(out) == {"n": 7, "U": [1, 4], "L": [5, 7]}

    def test_non_positroid_to_necklace_fails(self, capsys):
        code, out, err = run(
            capsys, "convert", "--from", "matroid", "--to", "necklace", "--input", '{"n":4,"bases":[[1,3],[2,4]]}'
        )
        assert code == 2
        assert "error" in err

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "convert", "--from", "dp", "--to", "matroid", "--input", "1 2 x")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "source, payload, message",
        [
            ("lpm", '{"n":3}', "missing field 'U'"),
            ("matroid", '{"n":3}', "missing field 'bases'"),
            ("dp", '{"perm":[1,2]}', "missing field 'col'"),
            ("necklace", '{"k":1}', "missing field 'entries'"),
            ("matroid", "[1, 2]", "payload must be a JSON object"),
            ("lpm", "[1, 2]", "payload must be a JSON object"),
            ("dp", "[1, 2]", "payload must be a JSON object"),
            ("necklace", "5", "payload must be a JSON object"),
            ("matroid", '{"n":3,"bases":[5]}', "basis 5 is not a list"),
            ("lpm", '{"n":3,"U":5,"L":[2]}', "U 5 is not a list"),
            ("lpm", '{"n":3,"U":[1],"L":"2"}', "L '2' is not a list"),
            ("necklace", '{"k":1,"entries":[1,2,3]}', "entry 1 is not a list"),
            ("matroid", "no-such-m.json", "payload 'no-such-m.json' is neither JSON nor an existing file"),
            ("lpm", '{"n":3,', "payload '{\"n\":3,' is neither JSON nor an existing file"),
        ],
    )
    def test_malformed_payload_is_named(self, capsys, source, payload, message):
        code, out, err = run(capsys, "convert", "--from", source, "--to", "dp", "--input", payload)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "source, payload, message",
        [
            ("matroid", '{"n":3,"bases":[[1,1]]}', "basis [1, 1] repeats an element"),
            ("lpm", '{"n":3,"U":[1,1],"L":[2,3]}', "U [1, 1] repeats an element"),
            ("necklace", '{"k":2,"entries":[[1,2],[2,3],[3,3]]}', "entry [3, 3] repeats an element"),
        ],
    )
    def test_repeated_element_is_named(self, capsys, source, payload, message):
        code, out, err = run(capsys, "convert", "--from", source, "--to", "dp", "--input", payload)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_repeated_basis_is_deduplicated(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--from", "matroid", "--to", "dp", "--input", '{"n":3,"bases":[[1,2],[2,1]]}'
        )
        assert code == 0
        assert out.strip() == "1c 2c 3o"

    def test_invalid_necklace_is_refused(self, capsys):
        # its bases_from_necklace family is the positroid of 1c 2o 3o, whose
        # necklace is [[1], [1], [1]]; the axioms refuse it instead
        code, out, err = run(
            capsys, "convert", "--from", "necklace", "--to", "dp", "--input", '{"k":1,"entries":[[1],[3],[1]]}'
        )
        assert code == 2
        assert out == ""
        assert err == "error: not a Grassmann necklace: 2 is not in entry 2 but entry 3 differs\n"

    @pytest.mark.parametrize(
        "source, payload, message",
        [
            ("matroid", '{"n":4,"bases":[[1,3],[2,4]]}', "matroid is not a positroid; no necklace form exists"),
            ("dp", "3 2o 1", "positroid is not a lattice path matroid"),  # bases {1} and {3}
        ],
    )
    def test_refused_to_lpm(self, capsys, source, payload, message):
        code, out, err = run(capsys, "convert", "--from", source, "--to", "lpm", "--input", payload)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_json_flag_for_dp_output(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--from", "dp", "--to", "dp", "--input", "2 1", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "perm": [2, 1], "col": [0, 0]}


class TestCheckCommands:
    def test_check_quotient_false_with_witness(self, capsys):
        m = '{"n":3,"bases":[[1,2],[1,3]]}'
        n = '{"n":3,"bases":[[1,2],[1,3],[2,3]]}'
        code, out, _ = run(capsys, "check-quotient", "--m", m, "--n", n, "--json")
        assert code == 1
        verdict = json.loads(out)
        assert verdict["is_quotient"] is False
        assert verdict["witness"]["type"] == "rank"

    def test_check_quotient_true(self, capsys):
        m = '{"n":3,"bases":[[1],[2],[3]]}'
        n = '{"n":3,"bases":[[1,2],[1,3],[2,3]]}'
        code, out, _ = run(capsys, "check-quotient", "--m", m, "--n", n)
        assert code == 0
        assert "yes" in out

    def test_check_quotient_from_files(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        n_path = tmp_path / "n.json"
        m_path.write_text('{"n":3,"bases":[[1],[2],[3]]}')
        n_path.write_text('{"n":3,"bases":[[1,2],[1,3],[2,3]]}')
        code, out, _ = run(capsys, "check-quotient", "--m", str(m_path), "--n", str(n_path))
        assert code == 0

    def test_check_quotient_rejects_non_matroid(self, capsys):
        code, _, err = run(
            capsys,
            "check-quotient",
            "--m", '{"n":4,"bases":[[1,2],[3,4]]}',
            "--n", '{"n":4,"bases":[[1,2]]}',
        )
        assert code == 2
        assert "exchange" in err

    def test_check_uniform_true(self, capsys):
        code, _, _ = run(capsys, "check-uniform", "--dp", "1o 5 4 6 2 3", "--k", "4")
        assert code == 0

    def test_check_uniform_false_witness(self, capsys):
        code, out, _ = run(capsys, "check-uniform", "--dp", "6 2o 3o 4o 5o 1", "--k", "4", "--json")
        assert code == 1
        assert json.loads(out)["witness"]["starts"] == [2, 3, 4, 5]

    def test_check_uniform_bad_k(self, capsys):
        code, _, err = run(capsys, "check-uniform", "--dp", "1o 5 4 6 2 3", "--k", "1")
        assert code == 2

    def test_check_lpm_quotient(self, capsys):
        code, _, _ = run(
            capsys,
            "check-lpm-quotient",
            "--sub", '{"n":7,"U":[1,4],"L":[5,7]}',
            "--super", '{"n":7,"U":[1,4,5],"L":[4,6,7]}',
        )
        assert code == 1


class TestShiftCommands:
    def test_shift(self, capsys):
        code, out, _ = run(capsys, "shift", "--dp", "1o 6 5 4o 2 3 7c", "--freeze", "2,4,7")
        assert code == 0
        assert out.strip() == "3 6 1 4o 5o 2 7c"

    def test_shift_empty_freeze(self, capsys):
        code, out, _ = run(capsys, "shift", "--dp", "2 1")
        assert code == 0
        assert out.strip() == "1o 2o"

    def test_recover_shift(self, capsys):
        _, shifted, _ = run(capsys, "shift", "--dp", "5 6 7 8 1 2 3 4", "--freeze", "1,3,5,8")
        code, out, _ = run(
            capsys, "recover-shift", "--pi", "5 6 7 8 1 2 3 4", "--sigma", shifted.strip(), "--json"
        )
        assert code == 0
        assert json.loads(out) == {"A": [1, 3, 5, 8]}

    def test_recover_shift_rejects_non_quotient(self, capsys):
        code, _, err = run(capsys, "recover-shift", "--pi", "4 5 6 1 2 3", "--sigma", "2 4 6 1 5o 3")
        assert code == 2
        assert "quotient" in err


class TestArrows:
    def test_cw_arrow_json(self, capsys):
        code, out, _ = run(capsys, "arrows", "--dp", "6 2o 3o 4o 5o 1")
        assert code == 0
        arrows = json.loads(out)
        assert arrows[0] == {"kind": "arc", "start": 1, "end": 6}
        assert arrows[1] == {"kind": "arc", "start": 2, "end": 2}

    def test_ccw_of_coloop_is_singleton(self, capsys):
        code, out, _ = run(capsys, "arrows", "--dp", "1c 2c", "--kind", "ccw")
        assert json.loads(out) == [
            {"kind": "arc", "start": 1, "end": 1},
            {"kind": "arc", "start": 2, "end": 2},
        ]


class TestEnumerate:
    def test_jsonl_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "census.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "--what", "positroids", "--k", "2", "--n", "5", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["k"] == 2 and r["n"] == 5 for r in records)
        ranks = [dp.rank for dp in __import__("positroids").all_decorated_permutations(5)]
        assert len(records) == ranks.count(2)

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--what", "dps", "--n", "2")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_k_filters_dps(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--what", "dps", "--k", "2", "--n", "3")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        ranks = [dp.rank for dp in __import__("positroids").all_decorated_permutations(3)]
        assert len(records) == ranks.count(2) > 0
        assert all(r["k"] == 2 for r in records)

    @pytest.mark.parametrize("what, n, ranks", [("flag-pairs", 4, range(1, 5)), ("positroids", 4, range(0, 5))])
    def test_omitted_k_concatenates_every_rank(self, capsys, what, n, ranks):
        code, everything, _ = run(capsys, "enumerate", "--what", what, "--n", str(n))
        assert code == 0
        per_rank = ""
        for k in ranks:
            code, out, _ = run(capsys, "enumerate", "--what", what, "--k", str(k), "--n", str(n))
            assert code == 0
            per_rank += out
        assert everything == per_rank
        assert everything

    @pytest.mark.parametrize("what", ["positroids", "dps", "lpms"])
    @pytest.mark.parametrize("k", [9, -1])
    def test_rank_out_of_range_is_two(self, capsys, what, k):
        code, out, err = run(capsys, "enumerate", "--what", what, "--k", str(k), "--n", "3")
        assert code == 2
        assert out == ""
        assert err == f"error: rank {k} out of range 0..3\n"

    def test_flag_pair_rank_out_of_range_is_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "--what", "flag-pairs", "--k", "0", "--n", "3")
        assert code == 2
        assert out == ""
        assert err == "error: rank 0 out of range 1..3\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--what", "positroids", "--k", "9", "--n", "3"),
            ("--what", "positroids", "--n", "9"),
            ("--what", "flag-pairs", "--n", "8"),
        ],
    )
    def test_refusal_creates_no_out_file(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.delenv("POSITROID_MAX_N", raising=False)
        out_path = tmp_path / "e.jsonl"
        code, out, err = run(capsys, "enumerate", *argv, "--out", str(out_path))
        assert code == 2
        assert err.startswith("error: ")
        assert not out_path.exists()

    def test_bound_rejected_without_env(self, capsys, monkeypatch):
        monkeypatch.delenv("POSITROID_MAX_N", raising=False)
        code, _, err = run(capsys, "enumerate", "--what", "dps", "--n", "9")
        assert code == 2

    def test_env_override_warns(self, capsys, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", "9")
        code, out, err = run(capsys, "enumerate", "--what", "flag-pairs", "--k", "1", "--n", "1")
        assert code == 0
        # small n with the override set: no warning needed
        assert err == ""
        monkeypatch.setenv("POSITROID_MAX_N", "10")
        code, out, err = run(capsys, "enumerate", "--what", "lpms", "--k", "1", "--n", "9")
        assert code == 0
        assert "warning" in err
        assert len(out.splitlines()) == 45  # ordered pairs u <= l among singletons

    def test_env_override_refused_without_warning(self, capsys, monkeypatch):
        # the override does not reach n = 9, so nothing may claim to proceed
        monkeypatch.setenv("POSITROID_MAX_N", "7")
        code, out, err = run(capsys, "enumerate", "--what", "flag-pairs", "--n", "9", "--k", "1")
        assert code == 2
        assert out == ""
        assert err == "error: flag pair enumeration supports 1 <= n <= 7, got n=9\n"
        assert "proceeding" not in err

    @pytest.mark.parametrize("value", ["abc", "-3", "0", ""])
    def test_malformed_env_bound_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("POSITROID_MAX_N", value)
        code, out, err = run(capsys, "enumerate", "--what", "dps", "--n", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: POSITROID_MAX_N must be a positive integer, got {value!r}\n"


class TestVerifyPaper:
    def test_exit_zero_and_lines(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 40
        assert all(l.startswith("PASS") for l in lines)

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True


class TestExitCodeDiscipline:
    def test_usage_error_is_two(self, capsys):
        assert main(["check-uniform", "--dp", "2 1"]) == 2  # missing --k
        capsys.readouterr()

    def test_unknown_command_is_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
