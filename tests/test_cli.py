import io
import json
import random
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degseq import cli
from degseq.cli import main
from degseq.graphs import from_edge_list_text, from_json_dict
from degseq.rao import RaoWitness
from degseq.sequences import parse_sequence
from oracles import erdos_gallai_every_k, expand_tokens_one_by_one, read_by_expanding


def run_cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin is not None:
        import sys

        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def unreachable(*args, **kwargs):
    raise AssertionError("ran past the ceiling")


class TestCheck:
    def test_not_graphic_with_certificate(self):
        code, out, _ = run_cli("check", "3,3,1,1")
        assert code == 1
        assert out == "not graphic (k=2: 6 > 4)\n"

    def test_graphic(self):
        code, out, _ = run_cli("check", "2,2,2")
        assert code == 0
        assert out == "graphic\n"

    def test_parse_error(self):
        code, _, err = run_cli("check", "2,x")
        assert code == 2
        assert "cannot parse token" in err

    def test_zero_entry_rejected_without_flag(self):
        assert run_cli("check", "2,0,1") == (
            2, "", "error: entries must be >= 1, got 0 at position 3\n")

    def test_bad_token_near_the_end_of_a_long_line(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text(",".join(["2"] * 99_998 + ["x", "2"]) + "\n")
        assert run_cli("check", "--file", str(path)) == (
            2, "", "error: cannot parse token 'x'\n")

    def test_strip_zeros(self):
        code, out, _ = run_cli("check", "--strip-zeros", "2,0,1,1")
        assert code == 0
        assert out == "graphic\n"

    def test_odd_sum_message(self):
        code, out, _ = run_cli("check", "1,1,1")
        assert code == 1
        assert out == "not graphic (odd degree sum)\n"

    def test_prop4_flag(self):
        code, out, _ = run_cli("check", "--prop4", "2,2,2,2")
        assert code == 0
        assert "sufficient-by-length: yes (n=4 >= d1^2=4)" in out
        _, out, _ = run_cli("check", "--prop4", "3,1,1,1")
        assert "sufficient-by-length: no (n=4 < d1^2=9)" in out

    def test_whitespace_separated_entries(self):
        code, out, _ = run_cli("check", "2", "2", "2")
        assert code == 0
        assert out == "graphic\n"

    def test_power_notation(self):
        code, out, _ = run_cli("check", "2^4")
        assert code == 0
        _, out_mixed, _ = run_cli("check", "3,2^4,1")
        assert out_mixed == "graphic\n"

    @pytest.mark.parametrize("text", ["2^100000000000000000000", "1^10000001"])
    def test_power_notation_ceiling(self, text):
        code, out, err = run_cli("check", text)
        assert code == 2
        assert out == ""
        assert err == (f"error: sequence expands past 10000000 entries"
                       f" at token {text!r}\n")

    def test_power_ceiling_counts_the_whole_sequence(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ENTRIES", 6)
        assert run_cli("check", "1^2,2^4") == (0, "graphic\n", "")
        code, _, err = run_cli("check", "1^2,2^4,1^2")
        assert code == 2
        assert err.startswith("error: sequence expands past 6 entries")

    def test_plain_tokens_count_toward_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ENTRIES", 6)
        assert run_cli("check", "1,1,1,1,1,1") == (0, "graphic\n", "")
        assert run_cli("check", "1,1,1,1,1,1,1") == (
            2, "", "error: sequence expands past 6 entries at token '1'\n")
        assert run_cli("check", "1,1,1,1,1,1,1,1") == (
            2, "", "error: sequence expands past 6 entries at token '1'\n")
        assert run_cli("check", "1^6", "1") == (
            2, "", "error: sequence expands past 6 entries at token '1'\n")

    def test_power_ceiling_counts_every_file_line(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_MAX_ENTRIES", 6)
        path = tmp_path / "seqs.txt"
        path.write_text("1^4\n1^4\n")
        assert run_cli("check", "--file", str(path)) == (
            2, "", "error: sequence expands past 6 entries at token '1^4'\n")

    @pytest.mark.parametrize("text", ["1^" + "9" * 5000, "9" * 5000 + "^1", "9" * 5000],
                             ids=["long-count", "long-entry", "long-plain"])
    def test_numbers_past_the_digit_limit(self, text):
        code, out, err = run_cli("check", text)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse token {text!r}\n"

    def test_json_output(self):
        _, out, _ = run_cli("check", "--json", "3,3,1,1")
        data = json.loads(out)
        assert data == {"entries": [3, 3, 1, 1], "graphic": False,
                        "failing_index": 2, "lhs": 6, "rhs": 4}
        _, out, _ = run_cli("check", "--json", "1,1")
        assert json.loads(out) == {"entries": [1, 1], "graphic": True}

    def test_stdin_one_sequence_per_line(self):
        code, out, _ = run_cli("check", "--file", "-", stdin="2,2,2\n3,3,1,1\n")
        assert code == 1
        assert out == "graphic\nnot graphic (k=2: 6 > 4)\n"

    def test_file_input(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("1,1\n2 2 2\n")
        code, out, _ = run_cli("check", "--file", str(path))
        assert code == 0
        assert out == "graphic\ngraphic\n"

    @pytest.mark.parametrize("flags", [(), ("--json",), ("--prop4",)])
    def test_one_erdos_gallai_check_per_line(self, tmp_path, monkeypatch, flags):
        path = tmp_path / "seqs.txt"
        path.write_text("2,2,2\n3,3,1,1\n1,1,1\n")
        calls = []

        def counted(seq):
            calls.append(seq)
            return real(seq)

        real = cli.erdos_gallai_check
        monkeypatch.setattr(cli, "erdos_gallai_check", counted)
        code, _, _ = run_cli("check", *flags, "--file", str(path))
        assert code == 1
        assert [list(seq.entries) for seq in calls] == [[2, 2, 2], [3, 3, 1, 1], [1, 1, 1]]


class TestRealize:
    def test_path_output(self):
        code, out, _ = run_cli("realize", "2,1,1")
        assert code == 0
        assert out == "p 3\n0 1\n0 2\n"

    def test_plain_realize_skips_components(self, monkeypatch):
        monkeypatch.setattr(cli, "components", unreachable)
        code, out, _ = run_cli("realize", "2,1,1")
        assert code == 0
        assert out == "p 3\n0 1\n0 2\n"

    def test_bounded_twelve_twos(self):
        code, out, _ = run_cli("realize", "--bounded", "2^12")
        assert code == 0
        assert "c components: 4 4 4" in out
        assert "c bound: 12" in out
        graph = from_edge_list_text(out)
        assert graph.vertex_count == 12

    def test_realize_bounded_alias(self):
        code_a, out_a, _ = run_cli("realize", "--bounded", "2^12")
        code_b, out_b, _ = run_cli("realize-bounded", "2^12")
        assert (code_a, out_a) == (code_b, out_b)

    def test_non_graphic_exit_one_with_certificate(self):
        code, _, err = run_cli("realize", "3,1")
        assert code == 1
        assert "k=1" in err

    def test_json_round_trip(self):
        _, out, _ = run_cli("realize", "--json", "3,3,3,3")
        data = json.loads(out)
        graph = from_json_dict(data)
        assert graph.vertex_count == 4
        assert graph.edge_count == 6

    def test_bounded_json_extras(self):
        _, out, _ = run_cli("realize", "--bounded", "--json", "2^12")
        data = json.loads(out)
        assert data["component_sizes"] == [4, 4, 4]
        assert data["bound"] == 12


class TestRegularity:
    def test_encode_defaults_to_max_degree(self):
        code, out, _ = run_cli("regularity", "3,2,2,1")
        assert code == 0
        assert out == "1,2,1\n"

    def test_encode_with_explicit_bound(self):
        _, out, _ = run_cli("regularity", "-N", "3", "1,1")
        assert out == "0,0,2\n"

    def test_encode_bound_too_small(self):
        code, _, err = run_cli("regularity", "-N", "3", "4,1")
        assert code == 2
        assert "bound" in err

    def test_decode(self):
        code, out, _ = run_cli("regularity", "--decode", "0,0,2")
        assert code == 0
        assert out == "1,1\n"

    def test_decode_all_zero_rejected(self):
        code, _, _ = run_cli("regularity", "--decode", "0,0,0")
        assert code == 2

    def test_cli_round_trip(self):
        _, counts, _ = run_cli("regularity", "-N", "4", "3,2,2,1")
        _, seq, _ = run_cli("regularity", "--decode", counts.strip())
        assert seq == "3,2,2,1\n"

    def test_json(self):
        _, out, _ = run_cli("regularity", "--json", "-N", "3", "3,2,2,1")
        assert json.loads(out) == {"bound": 3, "counts_descending": [1, 2, 1]}

    def test_bound_ceiling(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ENTRIES", 6)
        assert run_cli("regularity", "-N", "6", "1,1") == (0, "0,0,0,0,0,2\n", "")
        monkeypatch.setattr(cli, "to_regularity", unreachable)
        refusal = "error: degree bound 7 is above the ceiling of 6 entries\n"
        assert run_cli("regularity", "-N", "7", "1,1") == (2, "", refusal)
        # without -N the bound is the largest entry
        assert run_cli("regularity", "7,1") == (2, "", refusal)

    def test_decode_total_ceiling(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ENTRIES", 6)
        assert run_cli("regularity", "--decode", "0,2,4") == (0, "2,2,1,1,1,1\n", "")
        monkeypatch.setattr(cli, "from_regularity", unreachable)
        assert run_cli("regularity", "--decode", "0,3,4") == (
            2, "", "error: count vector total 7 is above the ceiling of 6 entries\n")


class TestCompare:
    def test_holds_sufficient(self):
        code, out, _ = run_cli("compare", "1,1", "1,1,1,1")
        assert code == 0
        assert out == "holds (sufficient)\n"

    def test_oracle_refutes(self):
        code, out, _ = run_cli("compare", "2,2,2", "2,2,2,2", "--method", "oracle")
        assert code == 1
        assert out == "does not hold (oracle)\n"

    def test_oracle_cap_exceeded(self):
        code, _, err = run_cli("compare", "2,2,2", "2^12", "--method", "oracle")
        assert code == 2
        assert "cap" in err

    def test_oracle_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("DEGSEQ_ORACLE_CAP", "10")
        code, out, _ = run_cli("compare", "1,1", "1^10", "--method", "oracle")
        assert code == 0
        assert out == "holds (oracle)\n"

    def test_auto_falls_back_to_inconclusive(self):
        # auto on a large incomparable-under-the-cheap-tests pair where the
        # oracle cannot run stays inconclusive
        code, out, _ = run_cli("compare", "3,3,3,3", "2^12")
        assert code == 1
        assert out == "inconclusive\n"

    def test_non_graphic_input(self):
        code, _, err = run_cli("compare", "3,1", "2,2,2")
        assert code == 1
        assert "not graphic" in err

    @pytest.mark.parametrize("method", ["auto", "sufficient", "components", "oracle"])
    def test_non_graphic_input_under_every_method(self, method):
        # graphicality is checked before any size guard, so the oracle's cap
        # (12 > 8 vertices) does not mask the verdict
        code, out, err = run_cli("compare", "3,1", "2^12", "--method", method)
        assert code == 1
        assert out == ""
        assert err == "error: sequence 3,1 is not graphic (k=1: 3 > 1)\n"

    def test_json_witness_revalidates(self):
        _, out, _ = run_cli("compare", "--json", "1,1", "1,1,1,1")
        data = json.loads(out)
        assert data["result"] == "holds"
        witness = RaoWitness(
            from_json_dict(data["witness"]["g_small"]),
            from_json_dict(data["witness"]["g_large"]),
            tuple(data["witness"]["embedding"]))
        assert witness.validates(parse_sequence(data["witness"]["d1"]),
                                 parse_sequence(data["witness"]["d2"]))

    def test_bound_ceiling(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ENTRIES", 6)
        assert run_cli("compare", "-N", "6", "1,1", "1^4") == (0, "holds (sufficient)\n", "")
        monkeypatch.setattr(cli, "compare", unreachable)
        assert run_cli("compare", "-N", "7", "1,1", "1^4") == (
            2, "", "error: degree bound 7 is above the ceiling of 6 entries\n")

    def test_json_refutation(self):
        _, out, _ = run_cli("compare", "--json", "2,2,2", "2,2,2,2",
                            "--method", "oracle")
        data = json.loads(out)
        assert data == {"result": "does_not_hold", "method": "oracle",
                        "witness": None}


class TestHarnessCommand:
    def test_deterministic_report(self):
        args = ("harness", "-N", "2", "--count", "50", "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[0] == 0
        assert first[1].startswith("good pair i=")

    def test_impossible_config(self):
        code, _, err = run_cli("harness", "-N", "1", "--max-length", "1")
        assert code == 2
        assert "no graphic sequence" in err

    def test_json_witness_revalidates(self):
        _, out, _ = run_cli("harness", "-N", "3", "--count", "30",
                            "--seed", "11", "--json")
        data = json.loads(out)
        assert data["i"] < data["j"]
        witness = RaoWitness(
            from_json_dict(data["witness"]["g_small"]),
            from_json_dict(data["witness"]["g_large"]),
            tuple(data["witness"]["embedding"]))
        assert witness.validates(parse_sequence(data["witness"]["d1"]),
                                 parse_sequence(data["witness"]["d2"]))
        assert "elapsed_ms" not in data

    def test_size_ceilings(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ENTRIES", 20)
        code, out, _ = run_cli("harness", "-N", "2", "--count", "10", "--max-length", "2")
        assert (code, out) == (0, "good pair i=0 j=1 (method=sufficient, prefix=2): 1,1 <= 1,1\n")
        monkeypatch.setattr(cli, "generate_stream", unreachable)
        assert run_cli("harness", "-N", "21", "--count", "2", "--max-length", "2") == (
            2, "", "error: degree bound 21 is above the ceiling of 20 entries\n")
        assert run_cli("harness", "-N", "2", "--count", "7", "--max-length", "3") == (
            2, "", "error: --count * --max-length 21 is above the ceiling of 20 entries\n")

    def test_timing_flag_adds_field(self):
        _, out, _ = run_cli("harness", "-N", "2", "--count", "20",
                            "--seed", "3", "--json", "--timing")
        assert "elapsed_ms" in json.loads(out)


class TestUsage:
    def test_missing_subcommand(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_missing_sequence(self):
        code, _, err = run_cli("check")
        assert code == 2
        assert "no sequence" in err

    @pytest.mark.parametrize("value", ["abc", "0"])
    @pytest.mark.parametrize("argv", [
        ("compare", "1,1", "2,2,2"),
        ("harness", "-N", "2", "--count", "20"),
        ("compare", "1,1", "2,2,2", "--method", "oracle"),
    ])
    def test_bad_oracle_cap_env(self, monkeypatch, value, argv):
        monkeypatch.setenv("DEGSEQ_ORACLE_CAP", value)
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err == (f"error: DEGSEQ_ORACLE_CAP must be a positive integer,"
                       f" got {value!r}\n")

    @pytest.mark.parametrize("argv", [
        ("check",), ("realize",), ("realize-bounded",), ("regularity",),
        ("regularity", "--decode"), ("compare",),
    ])
    def test_unreadable_file(self, tmp_path, argv):
        for path in (tmp_path / "missing.txt", tmp_path):
            code, out, err = run_cli(*argv, "--file", str(path))
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize("argv", [("check", "3,1"), ("compare", "1,1", "2,2,2")])
    def test_entries_and_file_refused_together(self, tmp_path, argv):
        path = tmp_path / "seqs.txt"
        path.write_text("2,2,2\n2,2,2\n")
        code, out, err = run_cli(*argv, "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: pass sequence entries or --file, not both\n"

    def test_compare_needs_two_sequences(self):
        code, _, _ = run_cli("compare", "1,1")
        assert code == 2

    @pytest.mark.parametrize("argv, needed", [
        (("realize",), 1), (("realize-bounded",), 1), (("regularity",), 1),
        (("regularity", "--decode"), 1), (("compare",), 2),
    ])
    def test_file_needs_exactly_the_sequences_taken(self, tmp_path, argv, needed):
        path = tmp_path / "seqs.txt"
        for count in range(needed + 3):
            path.write_text("1,1\n\n" * count)  # blank lines do not count
            code, out, err = run_cli(*argv, "--file", str(path))
            if count == needed:
                assert (code, err) == (0, "")
            else:
                assert (code, out) == (2, "")
                assert err == f"error: expected {needed} sequence line(s), got {count}\n"

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-only"])
    def test_check_refuses_a_file_without_sequences(self, tmp_path, text):
        path = tmp_path / "seqs.txt"
        path.write_text(text)
        assert run_cli("check", "--file", str(path)) == (
            2, "", "error: no sequence given (pass entries or --file)\n")


_OVER = str(10 ** 7 + 1)


class TestExitCodes:
    """main alone turns an error into its exit code and one stderr line."""

    @pytest.mark.parametrize("argv, cap, code", [
        # parse error, or input the library rejects as a ValueError
        (("check", "2,x"), None, 2),
        (("realize", "2,x"), None, 2),
        (("realize-bounded", "2,x"), None, 2),
        (("regularity", "2,x"), None, 2),
        (("regularity", "--decode", "2,x"), None, 2),
        (("compare", "1,1", "2,x"), None, 2),
        (("harness", "-N", "0"), None, 2),
        # non-graphic input
        (("realize", "3,1"), None, 1),
        (("realize-bounded", "3,1"), None, 1),
        (("compare", "3,1", "2,2,2"), None, 1),
        # ceiling
        (("check", "1^" + _OVER), None, 2),
        (("realize", "1^" + _OVER), None, 2),
        (("realize-bounded", "1^" + _OVER), None, 2),
        (("regularity", "-N", _OVER, "1,1"), None, 2),
        (("regularity", "--decode", "0," + _OVER), None, 2),
        (("compare", "-N", _OVER, "1,1", "1,1"), None, 2),
        (("harness", "-N", _OVER), None, 2),
        # bad DEGSEQ_ORACLE_CAP
        (("compare", "1,1", "2,2,2"), "0", 2),
        (("harness", "-N", "2", "--count", "10"), "x", 2),
        # a single method refused by its guard
        (("compare", "2,2,2", "2^12", "--method", "oracle"), None, 2),
        (("compare", "3^10", "3^28", "--method", "components"), None, 2),
        # no good pair
        (("harness", "-N", "2", "--count", "2", "--max-length", "4", "--seed", "5"),
         None, 1),
    ])
    def test_exit_code_and_one_error_line(self, monkeypatch, argv, cap, code):
        if cap is None:
            monkeypatch.delenv("DEGSEQ_ORACLE_CAP", raising=False)
        else:
            monkeypatch.setenv("DEGSEQ_ORACLE_CAP", cap)
        got, out, err = run_cli(*argv)
        assert (got, out) == (code, "")
        [line] = err.splitlines()
        assert line.startswith("error: ")

    def test_internal_fault_escapes_main(self, monkeypatch):
        def faulty(*args, **kwargs):
            raise RuntimeError("method sufficient produced an invalid witness")

        monkeypatch.setattr(cli, "find_good_pair", faulty)
        with pytest.raises(RuntimeError, match="invalid witness"):
            main(["harness", "-N", "2", "--count", "10"])


_TOKENS = st.one_of(
    st.integers(-1, 12).map(str),
    st.builds("{}^{}".format, st.integers(0, 12), st.integers(0, 12)),
    st.sampled_from(["^", "1^", "2^-1", "1e2", "x", ",", ""]),
)
_TEXTS = st.lists(_TOKENS, max_size=8).map(",".join)
_COMMANDS = st.sampled_from([
    ("check",), ("realize",), ("realize-bounded",), ("regularity",),
    ("regularity", "--decode"), ("compare", "--method", "sufficient"),
])


class TestFuzz:
    @settings(max_examples=300)
    @given(command=_COMMANDS, texts=st.lists(_TEXTS, min_size=1, max_size=2))
    @example(command=("check",), texts=["2^100000000000000000000"])
    def test_no_traceback_and_a_known_exit_code(self, command, texts):
        code, _, _ = run_cli(*command, *texts)
        assert code in (0, 1, 2)


class TestExpandTokens:
    @settings(max_examples=300)
    @given(tokens=st.one_of(
               st.lists(_TOKENS, max_size=12),
               # no power notation at all, as most input lines are
               st.lists(st.one_of(st.integers(-1, 12).map(str),
                                  st.sampled_from(["x", "1e2", "", "+4", "1_0", "3.0"])),
                        max_size=12)),
           separator=st.sampled_from([",", " ", " , "]),
           room=st.integers(0, 15))
    def test_same_entries_or_message_as_the_per_token_loop(self, tokens, separator, room):
        text = separator.join(tokens)

        def outcome(expand, *args):
            try:
                return expand(text, room, *args)
            except ValueError as exc:
                return str(exc)

        assert outcome(cli._expand_tokens) == outcome(expand_tokens_one_by_one,
                                                      cli._MAX_ENTRIES)


_ENTRY_TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.builds("{}^{}".format, st.integers(-1, 6), st.integers(0, 4)),
    st.sampled_from(["+4", "03", "1_0", "-0", "02^2"]),
)
_BAD_TOKENS = st.sampled_from(["x", "3.0", "1e2", "^", "1^", "2^-1", "+4^2", "2^^2"])
_SEPARATED = st.lists(st.tuples(st.one_of(_ENTRY_TOKENS, _ENTRY_TOKENS, _BAD_TOKENS),
                                st.sampled_from([",", " ", " , ", "\t"])),
                      max_size=10).map(lambda pairs: "".join(t + sep for t, sep in pairs))


def outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


class TestReadSequences:
    """The count-vector reader against expanding every token and sorting."""

    @settings(max_examples=500)
    @given(texts=st.lists(_SEPARATED, min_size=1, max_size=2), strip_zeros=st.booleans(),
           ceiling=st.integers(0, 20))
    @example(texts=["2,x,1^30", "1"], strip_zeros=False, ceiling=20)
    @example(texts=["0,2^3,0", "1,0,-1"], strip_zeros=True, ceiling=20)
    @example(texts=["1^4,3", "1^4"], strip_zeros=False, ceiling=6)
    def test_same_sequences_or_message_as_expanding_and_sorting(self, texts, strip_zeros,
                                                                ceiling):
        # two texts are the two arguments of compare, which share one ceiling
        args = Namespace(file=None, sequence=texts, strip_zeros=strip_zeros)
        with patch.object(cli, "_MAX_ENTRIES", ceiling):
            got = outcome(cli._read_sequences, args, len(texts))
        assert got == outcome(read_by_expanding, texts, ceiling, strip_zeros)

    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        scanned = []

        def recording(tokens, room):
            tokens = list(tokens)
            scanned.append(tokens)
            return real(tokens, room)

        real = cli._scan_tokens
        monkeypatch.setattr(cli, "_scan_tokens", recording)
        args = Namespace(file=None, sequence=["3 1,3^2 1 03"] * 1000, strip_zeros=False)
        [seq] = cli._read_sequences(args, 1)
        assert scanned == [["3", "1", "3^2", "03"]]
        assert seq.entries == (3,) * 4000 + (1,) * 2000


def expand_sort_and_check(path, ceiling: int, strip_zeros: bool) -> tuple[int, str, str]:
    """What check --file prints when every line is expanded, sorted and checked on its own."""
    with open(path) as handle:
        texts = [line.strip() for line in handle.read().splitlines() if line.strip()]
    try:
        sequences = read_by_expanding(texts, ceiling, strip_zeros)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    out, status = [], 0
    for seq in sequences:
        verdict = erdos_gallai_every_k(seq)
        if verdict.graphic:
            out.append("graphic\n")
            continue
        status = 1
        if verdict.failing_index is None:
            out.append("not graphic (odd degree sum)\n")
        else:
            out.append(f"not graphic (k={verdict.failing_index}:"
                       f" {verdict.lhs} > {verdict.rhs})\n")
    return status, "".join(out), ""


def shuffled_lines(rng: random.Random, count: int, zeros: bool) -> list[str]:
    """Graphic, odd-sum and Erdos-Gallai-failing lines, tokens shuffled, separators mixed."""
    lines = []
    for index in range(count):
        n = rng.randint(1, 300)
        if index % 3 == 2:  # a few entries too large for the rest to absorb
            k0 = rng.randint(1, 5)
            entries = [k0 + 1 + n] * k0 + [rng.randint(1, 2) for _ in range(n)]
        else:
            entries = [rng.randint(1, rng.randint(1, 12)) for _ in range(n)]
        if index % 3 == 0 and sum(entries) % 2:
            entries.append(1)
        entries += [0] * (rng.randint(0, 3) if zeros else 0)
        tokens = [str(e) for e in entries]
        for value in set(entries):  # some equal entries as one power token
            if rng.random() < 0.3:
                copies = entries.count(value)
                tokens = [t for t in tokens if t != str(value)] + [f"{value}^{copies}"]
        rng.shuffle(tokens)
        lines.append("".join(t + rng.choice([",", " ", ", ", "\t"]) for t in tokens))
    return lines


class TestCheckFileMatchesExpandingAndSorting:
    @pytest.mark.parametrize("fault, flags", [
        (None, ()), ("zeros", ("--strip-zeros",)), ("zeros", ()),
        ("bad token", ()), ("ceiling", ()),
    ])
    def test_same_bytes_and_exit_code(self, tmp_path, monkeypatch, fault, flags):
        rng = random.Random(f"check-file/{fault}")
        lines = shuffled_lines(rng, 40, zeros=fault == "zeros")
        if fault == "bad token":
            lines[25] = lines[25].replace(",", ",x,", 1) + " 2"
        ceiling = cli._MAX_ENTRIES
        if fault == "ceiling":
            ceiling = sum(len(expand_tokens_one_by_one(line, 10 ** 9, 10 ** 9))
                          for line in lines[:30])
            monkeypatch.setattr(cli, "_MAX_ENTRIES", ceiling)
        path = tmp_path / "lines.txt"
        path.write_text("\n  \n".join(lines) + "\n\n")
        got = run_cli("check", *flags, "--file", str(path))
        assert got == expand_sort_and_check(path, ceiling, "--strip-zeros" in flags)
        assert got[0] == {None: 1, "zeros": 1 if flags else 2}.get(fault, 2)
