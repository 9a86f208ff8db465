import hashlib
import io
import json
import sys

import pytest

from positroids import all_decorated_permutations, all_lpms, uniform_dp
from positroids.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def every_lpm_payload():
    """The LPMs on [1..6] as JSON, in all_lpms order, rank by rank."""
    return (json.dumps(p.to_json()) for n in range(1, 7) for k in range(n + 1) for p in all_lpms(k, n))


def every_dp_text():
    """The decorated permutations on [1..5] as text, in lexicographic order."""
    return (dp.to_text() for n in range(1, 6) for dp in all_decorated_permutations(n))


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

    # (outputs, sha256 of stdout) of ``convert --to matroid`` over every LPM
    # on [1..6] and every decorated permutation on [1..5], each in order
    @pytest.mark.parametrize(
        "source, inputs, pinned",
        [
            (
                "lpm",
                lambda: (json.dumps(p.to_json()) for n in range(1, 7) for k in range(n + 1) for p in all_lpms(k, n)),
                (624, "eaf0e6a86fb2b1f8279ac14d3afdd55e4b028c13eea0aba9475a8bf5da5be876"),
            ),
            (
                "dp",
                lambda: (dp.to_text() for n in range(1, 6) for dp in all_decorated_permutations(n)),
                (414, "180b8e2a92d15cf74f12bd3709d1ddd1e5fce9af7b54a4b1debc5642f6a79d93"),
            ),
        ],
    )
    def test_to_matroid_bytes_are_pinned(self, capsys, source, inputs, pinned):
        digest, count = hashlib.sha256(), 0
        for payload in inputs():
            code, out, _ = run(capsys, "convert", "--from", source, "--to", "matroid", "--input", payload)
            assert code == 0
            digest.update(out.encode())
            count += 1
        assert (count, digest.hexdigest()) == pinned

    # (inputs, sha256 of f"{code}\n{stdout}{stderr}" fed input by input) of
    # ``convert``, pinned from the route that built every basis first
    @pytest.mark.parametrize(
        "source, to, inputs, pinned",
        [
            ("lpm", "dp", every_lpm_payload, (624, "768a9c04bc73f9757288ec17c4a2846aefe73138ad2e5651c854b8330309cdb6")),
            ("lpm", "necklace", every_lpm_payload, (624, "2e8aba1d9741f16b3e6c4c0f70765f8a21c576ed90b1f2eb746c757f509f3eca")),
            ("lpm", "lpm", every_lpm_payload, (624, "b81050fd3c1d0a1318df6210e975425ff758987b84bc5f7878d13b7e975d2d31")),
            ("lpm", "matroid", every_lpm_payload, (624, "77dbc94fc3c4c645fa73fe975c04f2d3fdeba795e697c67d7973341520589a18")),
            ("dp", "lpm", every_dp_text, (414, "62df67f2c344222b0fa036d21207f83dcf197f55dab23ede2413d0d9fdbe0ade")),
        ],
    )
    def test_convert_bytes_are_pinned(self, capsys, source, to, inputs, pinned):
        digest, count = hashlib.sha256(), 0
        for payload in inputs():
            code, out, err = run(capsys, "convert", "--from", source, "--to", to, "--input", payload)
            digest.update(f"{code}\n{out}{err}".encode())
            count += 1
        assert (count, digest.hexdigest()) == pinned

    def test_lpm_on_thirty_elements_converts_both_ways(self, capsys):
        # C(30, 15) = 155 M subsets: a route through the bases would not finish
        lpm, dp = json.dumps({"n": 30, "U": list(range(1, 16)), "L": list(range(16, 31))}), uniform_dp(15, 30)
        assert run(capsys, "convert", "--from", "lpm", "--to", "dp", "--input", lpm) == (0, f"{dp}\n", "")
        necklace = json.dumps(dp.necklace.to_json())
        assert run(capsys, "convert", "--from", "lpm", "--to", "necklace", "--input", lpm) == (0, f"{necklace}\n", "")
        assert run(capsys, "convert", "--from", "dp", "--to", "lpm", "--input", dp.to_text()) == (0, f"{lpm}\n", "")
        assert run(capsys, "convert", "--from", "necklace", "--to", "lpm", "--input", necklace) == (0, f"{lpm}\n", "")

    def test_a_thirty_element_positroid_that_is_no_lpm_is_refused(self, capsys):
        # the positroid of 3 2o 1 (bases {1} and {3}) beside 27 coloops
        dp = "3 2o 1 " + " ".join(f"{i}c" for i in range(4, 31))
        assert run(capsys, "convert", "--from", "dp", "--to", "lpm", "--input", dp) == (
            2, "", "error: positroid is not a lattice path matroid\n"
        )

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
            ("matroid", '{"n":3,"bases":5}', "bases 5 is not a list"),
            ("necklace", '{"k":1,"entries":5}', "entries 5 is not a list"),
            ("dp", '{"perm":5,"col":[0]}', "perm 5 is not a list"),
            ("dp", '{"perm":[1],"col":5}', "col 5 is not a list"),
            ("necklace", '{"k":"1","entries":[[1]]}', "k '1' is not an integer"),
            ("necklace", '{"k":true,"entries":[[1]]}', "k True is not an integer"),
            ("matroid", '{"n":true,"bases":[[1]]}', "ground set size must be an integer in 1..64, got True"),
            ("matroid", '{"n":2,"bases":[[true]]}', "element True out of range 1..2"),
            ("lpm", '{"n":3,"U":[true],"L":[2]}', "element True out of range 1..3"),
            ("necklace", '{"k":1,"entries":[[true]]}', "element True out of range 1..1"),
            ("dp", '{"perm":[true],"col":[-1]}', "element True out of range 1..1"),
            ("dp", '{"perm":[1,2],"col":[true,-1]}', "colour True not in {-1, 0, +1}"),
            ("dp", '{"perm":[1,2],"col":[1.0,-1]}', "colour 1.0 not in {-1, 0, +1}"),
            ("dp", '{"n":true,"perm":[1],"col":[-1]}', "inconsistent n True in decorated permutation payload of length 1"),
            ("dp", '{"perm":[2,2],"col":[0,0]}', "invalid decorated permutation payload"),
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

    def test_large_uniform_converts(self, capsys):
        # U_{8,17}: every one of the C(17, 8) = 24,310 k-subsets is a basis
        dp = uniform_dp(8, 17).to_text()
        code, out, err = run(capsys, "convert", "--from", "dp", "--to", "matroid", "--input", dp)
        assert (code, err) == (0, "")
        bases = json.loads(out)["bases"]
        assert len(bases) == 24310
        assert bases[0] == list(range(1, 9)) and bases[-1] == list(range(10, 18))

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

    @pytest.mark.parametrize("bases", ["[[1],[1.0]]", "[[1.0],[1]]"])
    def test_check_quotient_refuses_a_float_in_a_repeated_basis(self, capsys, bases):
        m = f'{{"n":2,"bases":{bases}}}'
        code, out, err = run(capsys, "check-quotient", "--m", m, "--n", '{"n":2,"bases":[[1],[2]]}')
        assert (code, out) == (2, "")
        assert "element 1.0 out of range 1..2" in err

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

    @pytest.mark.parametrize("dp, token", [("\u00b2 1", "\u00b2"), ("\u0661o", "\u0661o")])
    def test_shift_names_a_non_ascii_token(self, capsys, dp, token):
        code, out, err = run(capsys, "shift", "--dp", dp)
        assert (code, out) == (2, "")
        assert err == f"error: bad decorated permutation token {token!r}\n"

    @pytest.mark.parametrize("digits", ["1" * 5000, "1" * 5000 + "o", "7" * 4400 + "c"])
    def test_shift_names_an_over_long_token(self, capsys, digits):
        code, out, err = run(capsys, "shift", "--dp", f"2 {digits} 1")
        assert (code, out) == (2, "")
        shown = f"{digits[:8]}...{digits[-8:]}"
        assert err == f"error: bad decorated permutation token {shown!r} of {len(digits)} characters\n"

    def test_shift_shortens_a_long_value(self, capsys):
        code, out, err = run(capsys, "shift", "--dp", "1" * 4300)
        assert (code, out) == (2, "")
        assert err == "error: element 11111111...11111111 of 4300 characters out of range 1..1\n"

    def test_shift_reads_the_payload_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1o 6 5 4o 2 3 7c\n"))
        code, out, _ = run(capsys, "shift", "--dp", "-", "--freeze", "2,4,7")
        assert (code, out) == (0, "3 6 1 4o 5o 2 7c\n")

    @pytest.mark.parametrize("freeze, token", [("\u0662,\u0664,\u0667", "\u0662"), ("x", "x"), ("1,,2", ""), ("+1", "+1")])
    def test_shift_names_a_bad_freeze_token(self, capsys, freeze, token):
        code, out, err = run(capsys, "shift", "--dp", "1o 6 5 4o 2 3 7c", "--freeze", freeze)
        assert (code, out) == (2, "")
        assert err == f"error: --freeze takes comma-separated integers, got {token!r}\n"

    def test_shift_reads_a_long_run_of_leading_zeros(self, capsys):
        code, out, _ = run(capsys, "shift", "--dp", "0" * 5000 + "2 " + "0" * 5000 + "1")
        assert (code, out.strip()) == (0, "1o 2o")

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

    # (line count, sha256) of each rank's JSONL, copied from CENSUS_6 in
    # perfbench/spec.py, the outputs the benchmark's census workload pins
    CENSUS_6 = {
        0: (1, "6b50e11e05131cf036ff99e94caa920486cbcd43ff271df41999c66a6bb40d0e"),
        1: (63, "394190220f80d3584a4c5a689b4506955bfa090548876855f7697f4ea2a56fa3"),
        2: (473, "48014635bf5a0520baa1f0a0cb3a4b1d6a6d9c268b25697064ae4e12951de49f"),
        3: (883, "d0d655fe3ee7cda77666758fd98ffe48a6b1c702f00b6f1e313ae004d627402a"),
        4: (473, "2d19abd2062235632666cf7fdad0f287b380dc9a96aeef3f1391831e2f733b3e"),
        5: (63, "b99492c427472e01c7ee083ad328ab6cd80f667a98fc1ad2531501449f67eaf2"),
        6: (1, "cc1733a5bd261cc3ec52f2c2bb166052df0a84a32d4ade95865434066759a198"),
    }

    @pytest.mark.parametrize("k", range(7))
    def test_positroid_census_bytes_are_pinned(self, capsys, k):
        code, out, _ = run(capsys, "enumerate", "--what", "positroids", "--k", str(k), "--n", "6", "--out", "-")
        assert code == 0
        data = out.encode()
        assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == self.CENSUS_6[k]

    def test_flag_pair_census_bytes_are_pinned(self, capsys):
        # every rank of [6]; the flag pair records make each text once
        code, out, _ = run(capsys, "enumerate", "--what", "flag-pairs", "--n", "6")
        assert code == 0
        data = out.encode()
        assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == (
            18076,
            "b67d0a06649488b017ecd9a730b7771856f2fc8c95973c7e402e4fbb7112dc4e",
        )

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
            ("--what", "flag-pairs", "--n", "9"),
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

    @pytest.mark.parametrize("value", ["abc", "-3", "0", "", "\u0669"])
    def test_malformed_env_bound_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("POSITROID_MAX_N", value)
        code, out, err = run(capsys, "enumerate", "--what", "dps", "--n", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: POSITROID_MAX_N must be a positive integer, got {value!r}\n"

    def test_env_bound_too_long_for_int_is_refused(self, capsys, monkeypatch):
        # int() refuses more than 4,300 digits; the option's own refusal names the token, cut short
        monkeypatch.setenv("POSITROID_MAX_N", "9" * 5000)
        code, out, err = run(capsys, "enumerate", "--what", "dps", "--n", "2")
        assert (code, out) == (2, "")
        assert err == "error: POSITROID_MAX_N must be a positive integer, got '99999999...99999999' of 5000 characters\n"


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


class TestNumberOptions:
    """--n, --k, --freeze and POSITROID_MAX_N take an optional minus sign and
    ASCII digits, and name the option and the token otherwise."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("enumerate", "--what", "dps", "--n", "\u0663"), "--n must be an integer, got '\u0663'"),
            (("enumerate", "--what", "dps", "--k", "x", "--n", "3"), "--k must be an integer, got 'x'"),
            (("enumerate", "--what", "dps", "--n", "3.0"), "--n must be an integer, got '3.0'"),
            (("check-uniform", "--dp", "2 1", "--k", "\u0664"), "--k must be an integer, got '\u0664'"),
            (("check-uniform", "--dp", "2 1", "--k", "1_0"), "--k must be an integer, got '1_0'"),
            (("enumerate", "--what", "dps", "--n", "9" * 5000), "--n must be an integer, got '99999999...99999999' of 5000 characters"),
            (("shift", "--dp", "2 1", "--freeze", "1," + "0" * 5000), "--freeze takes comma-separated integers, got '00000000...00000000' of 5000 characters"),
        ],
    )
    def test_non_ascii_or_malformed_number_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_blanks_and_a_minus_sign_still_parse(self, capsys, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", " 9 ")
        code, out, _ = run(capsys, "enumerate", "--what", "dps", "--k", " 1", "--n", "2 ")
        assert (code, [json.loads(line)["dp"] for line in out.splitlines()]) == (0, ["1c 2o", "1o 2c", "2 1"])
        code, _, err = run(capsys, "enumerate", "--what", "dps", "--k", "-1", "--n", "2")
        assert (code, err) == (2, "error: rank -1 out of range 0..2\n")


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
