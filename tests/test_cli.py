"""CLI subcommands, output formats, and exit codes."""
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from importlib import resources

from dymatch.cli import main
from dymatch.facade import matcher_code

PHRASE = "shannon the fu"


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
        code, out, err = run(["match", "--target", files["target"],
                              "--costs", files["costs"], "--budget", "0.2063",
                              "--eps", "nan"], capsys)
        assert code == 3
        assert out == ""
        assert "eps must be positive" in err

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

    def test_eps_below_float_spacing_exits_0(self, files, capsys):
        argv = ["match", "--target", files["target"], "--costs",
                files["costs"], "--budget", "0.2063", "--block", "3"]
        code, out, _ = run(argv + ["--eps", "1e-20"], capsys)
        assert code == 0
        payload = json.loads(out.split("\n\n", 1)[0])
        lo, u = payload["bracket"]
        assert u == np.nextafter(lo, np.inf)
        _, default_out, _ = run(argv, capsys)
        default = json.loads(default_out.split("\n\n", 1)[0])
        assert payload["lengths"] == default["lengths"]

    def test_space_token_in_alphabet_exits_3(self, files, capsys):
        # "_" spells space in a code table, so a literal "_" symbol would
        # read back as a space
        code, out, err = run(["match", "--target", files["target"],
                              "--costs", files["costs"], "--budget", "0.2063",
                              "--alphabet", "_,a,b"], capsys)
        assert code == 3
        assert out == ""
        assert "collides with the space token" in err

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
