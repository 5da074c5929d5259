"""CLI subcommands, output formats, and exit codes."""
import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from importlib import resources

from dymatch.ccghc import ccghc
from dymatch.cli import _parse_alphabet, main
from dymatch.codes import parse_code_table
from dymatch.facade import matcher_code

PHRASE = "shannon the fu"

# sha256 of `match --block k --alphabet lrm` stdout on the facade, taken
# for 4 <= k <= 8 before ghc merged runs of equal weight, for k = 9 and 10
# before ccghc probed type classes, and for k <= 3 when its bisection
# began to stop at a width relative to the multiplier (lambda_star, the
# iteration count and the bracket's upper end moved there): a changed
# length or codeword shows here
MATCH_SHA256 = {
    1: "a13572a14dbe8c90c7513dd11e44115af2acfdf1706bbdf809fb4b81f453c105",
    2: "909c2a380a8078fdc46bcb7baec874ae4992caa4906d4634b7e436542e780f72",
    3: "31660c7ee8c1deb2cadc01b104df8bb12921554725fa72213e03707610ffae6b",
    4: "0e7ee6692468d64478d5312b817862325d3604855caae12c1e8fc7e3ca4f7983",
    5: "a61248aecd9e53509193948ee343b16617d1b2cf373d776408b6858da119d2b2",
    6: "1a59939e3d51d6c0f31f43b11d1c31e6c3a7acde9aec38bdfe5a7ba8285a4767",
    7: "c63f5bd050f02ba61e3c48731f8ddbf2a9aae4c6de2cc8d6fceeb6aff7fca956",
    8: "a388bc72633dcc8e32445cd1e6eb186797acb2d9e71af2eda4c4c2f7df474b61",
    9: "350e041abc3a29658725921c61fe552176881417299e2620f880a05433b07cca",
    10: "5fbdfce7bdcf51e49646692c582942402e76f16f51ea84925e2422c903f92cc6",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "target": root / "target.json",
        "costs": root / "costs.json",
        "text": root / "text.txt",
        "source": root / "source.tsv",
        "matcher": root / "matcher.tsv",
    }
    paths["target"].write_text(json.dumps([1 / 3, 1 / 3, 1 / 3]))
    paths["costs"].write_text(json.dumps(["0.18", "0.18", "0.31"]))
    paths["text"].write_text(PHRASE + "\n")
    data = resources.files("dymatch").joinpath("data")
    for name, key in (("facade_source_code.tsv", "source"),
                      ("facade_matcher_k3.tsv", "matcher")):
        paths[key].write_text(data.joinpath(name).read_text())
    return {k: str(v) for k, v in paths.items()}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    out = {}
    for line in text.strip().splitlines():
        sym, bits = line.split("\t")
        out[sym] = bits
    return out


class TestMatch:
    def test_slack_budget(self, files, capsys):
        code, out, _ = run(["match", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.2233"], capsys)
        assert code == 0
        payload_text, table_text = out.split("\n\n", 1)
        payload = json.loads(payload_text)
        assert payload["lengths"] == [2, 1, 2]
        assert payload["lambda_star"] < 1e-8
        assert payload["cost"] == pytest.approx(0.2125)
        assert payload["block"] == 1
        table = parse_table(table_text)
        assert table == {"a": "10", "b": "0", "c": "11"}

    def test_block_three_reproduces_fixture(self, files, capsys):
        code, out, _ = run(["match", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.2063", "--block", "3",
                            "--alphabet", "l,r,m"], capsys)
        assert code == 0
        payload_text, table_text = out.split("\n\n", 1)
        payload = json.loads(payload_text)
        assert payload["block"] == 3
        assert payload["per_symbol"]["cost"] == pytest.approx(0.206068,
                                                              abs=1e-6)
        # the canonical assignment differs bit-for-bit from the shipped
        # table, but the length of every block's codeword must agree
        got = {s: len(b) for s, b in parse_table(table_text).items()}
        want = {s: len(b) for s, b in matcher_code().entries}
        assert got == want

    @pytest.mark.parametrize("k", sorted(MATCH_SHA256))
    def test_facade_output_pinned(self, files, capsys, k):
        code, out, _ = run(["match", "--target", files["target"],
                            "--costs", files["costs"], "--budget", "0.2063",
                            "--block", str(k), "--alphabet", "lrm"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MATCH_SHA256[k]

    def test_infeasible_exits_2(self, files, capsys):
        code, _, err = run(["match", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.17"], capsys)
        assert code == 2
        assert "error:" in err

    def test_size_cap_exits_4(self, files, capsys):
        code, _, err = run(["match", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.2063", "--block", "15"], capsys)
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize("block", [9100, 10_000_000])
    def test_huge_block_exits_4_at_once(self, files, capsys, block):
        # the cap is decided without computing 3^block, and the message
        # does not print that power
        start = time.perf_counter()
        code, out, err = run(["match", "--target", files["target"],
                              "--costs", files["costs"], "--budget", "0.2063",
                              "--block", str(block)], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert out == ""
        assert f"3^{block} entries exceeds cap 10000000" in err
        assert len(err) < 100

    def test_nan_eps_exits_3(self, files, capsys):
        # the bisection's stopping rule has no parameter, so there is no
        # --eps flag to take any value
        for eps in ("nan", "1e-9"):
            code, out, err = run(["match", "--target", files["target"],
                                  "--costs", files["costs"], "--budget",
                                  "0.2063", "--eps", eps], capsys)
            assert code == 3
            assert out == ""
            assert "unrecognized arguments: --eps" in err

    def test_infinite_cost_exits_3(self, files, tmp_path, capsys):
        costs = tmp_path / "costs.json"
        costs.write_text('["0.18", Infinity, "0.31"]')
        code, out, err = run(["match", "--target", files["target"],
                              "--costs", str(costs), "--budget", "0.2063"],
                             capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "not finite" in err

    def test_one_symbol_result_prints_nothing(self, tmp_path, files,
                                               capsys):
        # at a budget equal to the cheapest cost the result is one symbol
        # of probability 1, which has no codeword
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps(["0.1", "0.2", "0.35"]))
        code, out, err = run(["match", "--target", files["target"],
                              "--costs", str(costs), "--budget", "0.1"],
                             capsys)
        assert code == 3
        assert out == ""
        assert "empty codeword" in err and "all its mass on 'a'" in err

    def test_space_token_in_alphabet_exits_3(self, files, capsys):
        # "_" spells space in a code table, so a literal "_" symbol would
        # read back as a space
        code, out, err = run(["match", "--target", files["target"],
                              "--costs", files["costs"], "--budget", "0.2063",
                              "--alphabet", "_,a,b"], capsys)
        assert code == 3
        assert out == ""
        assert "collides with the space token" in err

    @pytest.mark.parametrize("block, alphabet, message", [
        (3, "l,l,m", "distinct"),
        (1, "l,,m", "non-empty"),
        (1, "#a,r,m", "'#'"),
        (3, "l,r,#", "'#'"),
        (3, "_,r,m", "space token"),
        (1, "aa,bb,c_c", "space token"),
        (1, "a\tb,r,m", "whitespace"),
        (2, "l,\u00a0,m", "whitespace"),
        (1000, "l,r,#", "'#'")])
    def test_bad_alphabet_refused_before_solving(self, files, capsys,
                                                 monkeypatch, block, alphabet,
                                                 message):
        # the costliest symbol gets no codeword at block 1 (see below), so
        # only a check before the solve refuses "c_c"; a bad alphabet is
        # refused before the size cap too
        def fail(*args, **kwargs):
            raise AssertionError("ccghc ran")
        monkeypatch.setattr("dymatch.cli.ccghc", fail)
        code, out, err = run(["match", "--target", files["target"],
                              "--costs", files["costs"], "--budget", "0.2063",
                              "--block", str(block), "--alphabet", alphabet],
                             capsys)
        assert (code, out) == (3, "")
        assert message in err

    def test_block_one_multichar_tokens(self, files, capsys):
        code, out, _ = run(["match", "--target", files["target"],
                            "--costs", files["costs"], "--budget", "0.2063",
                            "--alphabet", "aa,bb,cc"], capsys)
        assert code == 0
        # the result is (1, 1, None): the costliest symbol is dropped
        assert parse_table(out.split("\n\n", 1)[1]) == {"aa": "0",
                                                         "bb": "1"}

    def test_multichar_tokens_reject_blocks(self, files, capsys):
        code, _, err = run(["match", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.2063", "--block", "2",
                            "--alphabet", "aa,bb,cc"], capsys)
        assert code == 3
        assert "single-character" in err

    @pytest.mark.parametrize("block, alphabet", [
        (1, "a b,a#,c"), (1, " a ,b,c"), (2, " ,r,m"), (3, "l,r, ")])
    def test_spelled_alphabet_reads_back(self, files, capsys, block,
                                         alphabet):
        # a token holding a space or, past its start, # is spelled, and
        # the table reads back as the blocks of the JSON lengths
        code, out, _ = run(["match", "--target", files["target"],
                            "--costs", files["costs"], "--budget", "0.2063",
                            "--block", str(block), "--alphabet", alphabet],
                           capsys)
        assert code == 0
        payload, table = out.split("\n\n", 1)
        blocks = map("".join, itertools.product(alphabet.split(","),
                                                repeat=block))
        assert {s: len(b) for s, b in parse_code_table(table)} == {
            s: l for s, l in zip(blocks, json.loads(payload)["lengths"])
            if l is not None}

    @given(st.lists(st.text("ab _#\t\u00a0", max_size=3), min_size=3,
                    max_size=3), st.sampled_from([1, 2]))
    @example([" a", "a#", "b b"], 1)
    @example(["a", " ", "b"], 2)
    @example(["a", "b", "#"], 1)
    def test_alphabet_refused_or_read_back(self, files, tokens, block):
        # match refuses before the solve exactly when the spelling rule
        # or, past block 1, the one-character rule does; otherwise its
        # table reads back as the blocks of finite length
        spec = ",".join(tokens)
        try:
            _parse_alphabet(spec, 3)
            refused = block > 1 and any(len(s) != 1 for s in tokens)
        except ValueError:
            refused = True
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("dymatch.cli.ccghc", wraps=ccghc) as solve, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(["match", "--target", files["target"],
                         "--costs", files["costs"], "--budget", "0.2063",
                         "--block", str(block), "--alphabet", spec])
        if refused:
            assert (code, out.getvalue(), solve.called) == (3, "", False)
            return
        assert code == 0, err.getvalue()
        payload, table = out.getvalue().split("\n\n", 1)
        blocks = map("".join, itertools.product(tokens, repeat=block))
        assert [s for s, _ in parse_code_table(table)] == [
            s for s, l in zip(blocks, json.loads(payload)["lengths"])
            if l is not None]


class TestOptimal:
    def test_facade_instance(self, files, capsys):
        code, out, _ = run(["optimal", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.2063"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["p_star"][0] == pytest.approx(0.39884615, abs=5e-4)
        assert payload["p_star"][2] == pytest.approx(0.20230769, abs=5e-4)
        assert payload["lambda"] == pytest.approx(7.532932, abs=1e-5)
        assert payload["E"] == pytest.approx(0.2063, abs=1e-12)
        assert payload["D"] == pytest.approx(0.06075, abs=1e-4)

    def test_large_costs_exit_0(self, files, tmp_path, capsys):
        # 1e-12 is finer than the float spacing of E here; the bisection
        # ends at float resolution instead
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps(["10000", "20000", "31000"]))
        budget = "11851.855815652343"
        code, out, err = run(["optimal", "--target", files["target"],
                              "--costs", str(costs), "--budget", budget],
                             capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["E"] == pytest.approx(float(budget),
                                                     rel=1e-15)

    def test_infeasible_exits_2(self, files, capsys):
        code, _, _ = run(["optimal", "--target", files["target"],
                          "--costs", files["costs"],
                          "--budget", "0.17"], capsys)
        assert code == 2


class TestCurve:
    def test_csv_shape(self, files, capsys):
        code, out, _ = run(["curve", "--target", files["target"],
                            "--costs", files["costs"],
                            "--grid", "0.19:0.22:7"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,D,lambda"
        assert len(lines) == 8
        ds = [float(line.split(",")[1]) for line in lines[1:]]
        assert ds == sorted(ds, reverse=True)

    def test_bad_grid_exits_3(self, files, capsys):
        code, _, _ = run(["curve", "--target", files["target"],
                          "--costs", files["costs"],
                          "--grid", "0.22:0.19:7"], capsys)
        assert code == 3

    @pytest.mark.parametrize("grid", ["0.181:inf:3", "-inf:0.2:3",
                                      "nan:0.2:3", "0.181:nan:3"])
    def test_grid_end_not_finite(self, files, grid):
        # one error line and nothing else: no numpy warning before it
        proc = subprocess.run(
            [sys.executable, "-m", "dymatch", "curve",
             "--target", files["target"], "--costs", files["costs"],
             f"--grid={grid}"], capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


class TestSweep:
    def test_csv_shape(self, files, capsys):
        code, out, _ = run(["sweep", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.2063", "--kmax", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,")
        assert len(lines) == 4
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_size_cap_exits_4_before_solving(self, files, capsys):
        start = time.perf_counter()
        code, out, err = run(["sweep", "--target", files["target"],
                              "--costs", files["costs"],
                              "--budget", "0.2063", "--kmax", "15"], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert out == ""
        assert "3^15 entries exceeds cap" in err

    def test_eps_flag_exits_3(self, files, capsys):
        code, out, err = run(["sweep", "--target", files["target"],
                              "--costs", files["costs"], "--budget", "0.2063",
                              "--kmax", "3", "--eps", "1e-9"], capsys)
        assert code == 3
        assert out == ""
        assert "unrecognized arguments: --eps" in err


class TestEncodeDecode:
    def test_encode(self, files, capsys):
        code, out, err = run(["encode", "--text", files["text"],
                              "--source-code", files["source"],
                              "--matcher", files["matcher"],
                              "--costs", files["costs"]], capsys)
        assert code == 0
        symbols = out.strip()
        assert len(symbols) == 39
        stats = json.loads(err)
        assert stats["bit_count"] == 57
        assert stats["pad_bits"] == 2
        assert stats["effective_cost"] == pytest.approx(
            sum(f * c for f, c in zip(stats["effective_freqs"],
                                      (0.18, 0.18, 0.31))))

    def test_encode_with_budget(self, files, capsys):
        code, out, err = run(["encode", "--text", files["text"],
                              "--source-code", files["source"],
                              "--matcher", files["matcher"],
                              "--costs", files["costs"],
                              "--slats", "60"], capsys)
        assert code == 0
        assert len(out.strip()) == 60
        assert json.loads(err)["symbols"] == 60

    @pytest.mark.parametrize("alphabet, message", [
        ("aa,bb,cc", "single-character"), ("l,r,mm", "single-character"),
        ("_,r,m", "space token"), ("l,r,#", "'#'")])
    def test_bad_alphabet_refused_before_encoding(self, files, capsys,
                                                  monkeypatch, alphabet,
                                                  message):
        # the stream is counted one character per symbol, so a longer
        # token is refused up front, not after the stream is built
        def fail(*args, **kwargs):
            raise AssertionError("run_facade ran")
        monkeypatch.setattr("dymatch.cli.run_facade", fail)
        code, out, err = run(["encode", "--text", files["text"],
                              "--source-code", files["source"],
                              "--matcher", files["matcher"],
                              "--costs", files["costs"],
                              "--alphabet", alphabet], capsys)
        assert (code, out) == (3, "")
        assert message in err

    @pytest.mark.parametrize("costs, extra", [
        (["0.18", "0.18", "0.31"], ["--alphabet", "xyz", "--slats", "4264"]),
        (["0.18", "0.18", "0.31", "0.5"], [])])
    def test_matcher_outside_alphabet_refused_before_encoding(
            self, files, tmp_path, capsys, monkeypatch, costs, extra):
        # the matcher's blocks spell l, r and m; an alphabet without them,
        # given or the default a, b, c, d of 4 costs, is refused before
        # the text is compressed, matched and fitted to the wall
        def fail(*args, **kwargs):
            raise AssertionError("run_facade ran")
        monkeypatch.setattr("dymatch.cli.run_facade", fail)
        path = tmp_path / "costs.json"
        path.write_text(json.dumps(costs))
        code, out, err = run(["encode", "--text", files["text"],
                              "--source-code", files["source"],
                              "--matcher", files["matcher"],
                              "--costs", str(path), *extra], capsys)
        assert (code, out) == (3, "")
        assert "symbols outside the alphabet: ['l', 'm', 'r']" in err

    def test_alphabet_names_the_symbols(self, files, capsys):
        # the matcher's blocks use l, r and m, so the alphabet must too;
        # given in another order, the frequencies follow it
        code, out, err = run(["encode", "--text", files["text"],
                              "--source-code", files["source"],
                              "--matcher", files["matcher"],
                              "--costs", files["costs"],
                              "--alphabet", "m,r,l"], capsys)
        assert code == 0
        freqs = json.loads(err)["effective_freqs"]
        symbols = out.strip()
        assert freqs == [symbols.count(c) / len(symbols) for c in "mrl"]

    def test_empty_text_with_budget_exits_3(self, files, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        code, out, err = run(["encode", "--text", str(empty),
                              "--source-code", files["source"],
                              "--matcher", files["matcher"],
                              "--costs", files["costs"],
                              "--slats", "60"], capsys)
        assert code == 3
        assert out == ""
        assert "nothing to repeat" in err

    def test_round_trip(self, files, tmp_path, capsys):
        _, out, err = run(["encode", "--text", files["text"],
                           "--source-code", files["source"],
                           "--matcher", files["matcher"],
                           "--costs", files["costs"]], capsys)
        slats = tmp_path / "slats.txt"
        slats.write_text(out)
        bits = json.loads(err)["bit_count"]
        code, out2, _ = run(["decode", "--slats", str(slats),
                             "--matcher", files["matcher"],
                             "--source-code", files["source"],
                             "--bits", str(bits)], capsys)
        assert code == 0
        assert out2.strip() == PHRASE

    def test_round_trip_through_filled_wall(self, files, tmp_path, capsys):
        # the README's example: 4264 slats is not a whole number of blocks
        code, out, err = run(["encode", "--text", files["text"],
                              "--source-code", files["source"],
                              "--matcher", files["matcher"],
                              "--costs", files["costs"],
                              "--slats", "4264"], capsys)
        assert code == 0
        wall = tmp_path / "wall.txt"
        wall.write_text(out)
        assert json.loads(err)["bit_count"] == 57
        code, out2, _ = run(["decode", "--slats", str(wall),
                             "--matcher", files["matcher"],
                             "--source-code", files["source"],
                             "--bits", "57"], capsys)
        assert code == 0
        assert out2 == PHRASE + "\n"

    def test_decode_bad_block_exits_3(self, files, tmp_path, capsys):
        slats = tmp_path / "bad.txt"
        slats.write_text("xyz\n")
        code, _, err = run(["decode", "--slats", str(slats),
                            "--matcher", files["matcher"],
                            "--source-code", files["source"],
                            "--bits", "4"], capsys)
        assert code == 3
        assert "error:" in err


class TestVerify:
    def test_complete_table(self, files, capsys):
        code, out, _ = run(["verify", "--code", files["matcher"]], capsys)
        assert code == 0
        assert "entries:     27" in out
        assert "complete" in out
        assert "prefix-free: yes" in out

    def test_incomplete_table(self, tmp_path, capsys):
        table = tmp_path / "partial.tsv"
        table.write_text("a\t0\nb\t10\n")
        code, out, _ = run(["verify", "--code", str(table)], capsys)
        assert code == 0
        assert "incomplete, deficit 1/4" in out

    def test_prefix_violation(self, tmp_path, capsys):
        table = tmp_path / "broken.tsv"
        table.write_text("a\t0\nb\t01\nc\t1\n")
        code, out, _ = run(["verify", "--code", str(table)], capsys)
        assert code == 3
        assert "prefix-free: no" in out
        assert "0 (a) is a prefix of 01 (b)" in out

    def test_every_violating_pair_listed(self, tmp_path, capsys):
        # 0 (a) comes right before 00 (d) in sorted order, not before
        # 01 (b), and is a prefix of both
        table = tmp_path / "broken.tsv"
        table.write_text("a\t0\nb\t01\nc\t1\nd\t00\n")
        code, out, _ = run(["verify", "--code", str(table)], capsys)
        assert code == 3
        assert out.endswith("prefix-free: no\n"
                            "  0 (a) is a prefix of 00 (d)\n"
                            "  0 (a) is a prefix of 01 (b)\n")

    def test_malformed_table_exits_3(self, tmp_path, capsys):
        table = tmp_path / "garbled.tsv"
        table.write_text("a 0\n")  # space, not tab
        code, _, err = run(["verify", "--code", str(table)], capsys)
        assert code == 3
        assert "error:" in err


class TestUsageErrors:
    def test_unknown_flag(self, files, capsys):
        code, _, err = run(["match", "--target", files["target"],
                            "--costs", files["costs"],
                            "--budget", "0.22", "--bogus"], capsys)
        assert code == 3
        assert "error:" in err

    def test_missing_subcommand(self, capsys):
        assert run([], capsys)[0] == 3

    def test_bad_json_exits_3(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, _ = run(["match", "--target", str(bad),
                          "--costs", files["costs"],
                          "--budget", "0.22"], capsys)
        assert code == 3

    @pytest.mark.parametrize("entry", ["null", "[0.5]", '{"a": 1}', "true",
                                       "false"],
                             ids=["null", "list", "object", "true", "false"])
    @pytest.mark.parametrize("which", ["target", "costs"])
    def test_non_number_entry_exits_3(self, files, tmp_path, capsys, which,
                                      entry):
        # an entry must be a number or a decimal string; any other JSON
        # value, booleans included, is named in the error
        bad = tmp_path / "bad.json"
        bad.write_text({"target": f"[0.5, {entry}, 0.5]",
                        "costs": f'["0.18", {entry}, "0.31"]'}[which])
        argv = {"target": files["target"], "costs": files["costs"],
                which: str(bad)}
        code, out, err = run(["match", "--target", argv["target"],
                              "--costs", argv["costs"],
                              "--budget", "0.22"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and f"entry 1 is {entry}," in err

    @pytest.mark.parametrize("command, budget, name", [
        ("match", "1e400", "budget"), ("optimal", "1e400", "budget"),
        ("sweep", "1e400", "budget"), ("match", "0.2063", "cost")])
    def test_past_float_range_exits_3(self, files, tmp_path, capsys,
                                      command, budget, name):
        # a budget or a cost past the float range is named in one error
        # line, not raised as an OverflowError
        costs = files["costs"]
        if name == "cost":
            costs = tmp_path / "costs.json"
            costs.write_text('["0.18", "1e400", "0.31"]')
        argv = [command, "--target", files["target"], "--costs", str(costs),
                "--budget", budget]
        code, out, err = run(argv + ["--kmax", "2"] * (command == "sweep"),
                             capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: {name} 1e+400 is past the float range\n"

    def test_missing_file_exits_3(self, files, capsys):
        code, _, _ = run(["match", "--target", "/nonexistent.json",
                          "--costs", files["costs"],
                          "--budget", "0.22"], capsys)
        assert code == 3


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "dymatch", "verify", "--code",
         files["source"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "complete" in proc.stdout
