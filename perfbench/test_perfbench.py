"""Tests of the benchmark itself: every check rejects a broken output, the
workloads run end to end, and BENCHMARK.json names what run.py prints.

    python3 -m pytest perfbench
"""
import copy
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
from checks import (CheckError, DesignRef, _kraft_multisets, check_design,
                    check_freqs, check_lagrangian_optimal, check_match_output,
                    check_round_trip, check_wall, kraft_exact, prefix_free,
                    relaxed_distance)

run.import_program()
import workloads  # noqa: E402  (needs the program on the path)
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def facade_k2(tmp_path_factory):
    """A real `dymatch match --block 2` output and its reference."""
    wl = workloads.FacadeK7(0, tmp_path_factory.mktemp("facade"))
    wl.argv[wl.argv.index("--block") + 1] = "2"
    blocks = ["".join(b) for b in itertools.product("lrm", repeat=2)]
    ref = DesignRef(workloads.FACADE_T, workloads.FACADE_W,
                    workloads.FACADE_S, 2)
    return wl.op(None), blocks, ref


def _rewrite(out, edit_payload=None, edit_table=None):
    head, _, tail = out.partition("\n\n")
    payload = json.loads(head)
    table = [line.split("\t") for line in tail.splitlines()]
    if edit_payload:
        edit_payload(payload)
    if edit_table:
        edit_table(table)
    return (json.dumps(payload, indent=2) + "\n\n"
            + "".join(f"{s}\t{b}\n" for s, b in table))


def test_match_output_passes(facade_k2):
    out, blocks, ref = facade_k2
    kl = check_match_output(out, blocks, ref)
    assert kl >= ref.D


def test_kraft_sum_not_one_rejected(facade_k2):
    out, blocks, ref = facade_k2
    first = out.partition("\n\n")[2].split("\t")[0]

    def longer_codeword(table):
        table[0][1] += "0"

    def longer_length(payload):
        payload["lengths"][blocks.index(first)] += 1
    broken = _rewrite(out, longer_length, longer_codeword)
    with pytest.raises(CheckError, match="Kraft"):
        check_match_output(broken, blocks, ref)
    with pytest.raises(CheckError, match="Kraft"):
        kraft_exact([1, 2])
    with pytest.raises(CheckError, match="Kraft"):
        kraft_exact([1, 1, 1])
    kraft_exact([0])
    kraft_exact([1, 2, 3, 3, None])


def test_table_disagreeing_with_json_rejected(facade_k2):
    out, blocks, ref = facade_k2

    def drop(table):
        table.pop()
    with pytest.raises(CheckError, match="table"):
        check_match_output(_rewrite(out, edit_table=drop), blocks, ref)


def test_prefix_clash_rejected(facade_k2):
    out, blocks, ref = facade_k2

    def clash(table):
        table[1][1] = table[0][1] + table[1][1][len(table[0][1]):] + "1"
    with pytest.raises(CheckError, match="prefix"):
        check_match_output(_rewrite(out, edit_table=clash), blocks, ref)
    with pytest.raises(CheckError, match="prefix"):
        prefix_free(["0", "10", "101"])
    prefix_free(["0", "10", "11"])


def test_over_budget_rejected():
    ref = DesignRef(workloads.FACADE_T, workloads.FACADE_W, "0.2063", 1)
    check_design([1, 1, None], ref)  # l and r, cost 0.18
    with pytest.raises(CheckError, match="exceeds budget"):
        check_design([1, 2, 2], ref)  # cost 0.2125
    tight = DesignRef(workloads.FACADE_T, workloads.FACADE_W, "0.2125", 1)
    check_design([1, 2, 2], tight)  # exactly on budget passes


def test_kl_below_bound_rejected():
    ref = DesignRef(workloads.FACADE_T, workloads.FACADE_W, "0.2063", 1)
    kl = check_design([1, 1, None], ref)
    broken = copy.copy(ref)
    broken.D = kl + 1e-6
    with pytest.raises(CheckError, match="below D"):
        check_design([1, 1, None], broken)


def test_relaxed_distance_matches_program():
    from dymatch.facade import SLAT_COSTS, TARGET
    from dymatch.simplex import solve_simplex
    D = relaxed_distance(workloads.FACADE_T, [0.18, 0.18, 0.31], 0.2063)
    assert abs(D - solve_simplex(TARGET, SLAT_COSTS, 0.2063).D) < 1e-9
    assert relaxed_distance([0.5, 0.5], [0.1, 0.2], 0.2) == 0.0


def test_kraft_multisets():
    assert _kraft_multisets(1) == ((0,),)
    assert set(_kraft_multisets(3)) == {(1, 2, 2)}
    assert set(_kraft_multisets(4)) == {(2, 2, 2, 2), (1, 2, 3, 3)}
    for n in range(1, 9):
        for ms in _kraft_multisets(n):
            assert sum(Fraction(1, 2 ** l) for l in ms) == 1


def test_non_lagrangian_pmf_rejected():
    t, w = [0.7, 0.2, 0.1], [0.1, 0.2, 0.3]
    check_lagrangian_optimal([1, 2, 2], t, w, 0.0)
    with pytest.raises(CheckError, match="below the result"):
        check_lagrangian_optimal([2, 2, 1], t, w, 0.0)
    with pytest.raises(CheckError, match="below the result"):
        check_lagrangian_optimal([1, 2, 2], [0.1, 0.2, 0.7], w, 0.0)


def test_text_and_wall_checks_reject_broken_outputs():
    check_round_trip("abc de", "abc de")
    with pytest.raises(CheckError, match="differs"):
        check_round_trip("abc de", "abc df")
    with pytest.raises(CheckError, match="differs"):
        check_round_trip("abc de", "abc d")
    check_wall("lrm", "lrmlll", 6)
    check_wall("lrmlrm", "lrml", 4)
    with pytest.raises(CheckError, match="slats"):
        check_wall("lrm", "lrmll", 6)
    with pytest.raises(CheckError, match="natural"):
        check_wall("lrm", "lrllll", 6)
    check_freqs([0.5, 0.25, 0.25], [2, 1, 1])
    with pytest.raises(CheckError, match="recounted"):
        check_freqs([0.5, 0.5, 0.0], [2, 1, 1])


@pytest.mark.parametrize("name,size", [("facade-k7", 1),
                                       ("random-small", 40),
                                       ("text-walls", 6)])
def test_smoke_every_workload(name, size, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path, round_size=size)
    untraced = run.Run(wl)
    untraced.until(0.0)
    assert untraced.correct and untraced.failed == 0
    assert untraced.attempted == size
    values = run.end_to_end(untraced, [0.1])
    assert set(values) == {m for m, _ in run.END_TO_END}
    assert all(v > 0 for v in values.values())

    tracer = Tracer()
    run.trace_setups(tracer)
    traced = run.Run(wl, tracer)
    traced.until(0.0)
    assert traced.correct and traced.rounds == 2
    values, absent, info = run.per_layer(traced, tracer)
    assert set(values) == {m[0] for m in run.PER_LAYER}
    assert absent == []
    assert 0.9 < info["named_self_share"] <= 1.0
    assert tracer._saved == []  # the program is restored


def test_absent_function_reported_not_fatal(tmp_path, monkeypatch):
    import importlib
    monkeypatch.delattr(importlib.import_module("dymatch.ccghc"), "ghc")
    wl = workloads.TextWalls(5, tmp_path, round_size=2)
    tracer = Tracer()
    run.trace_setups(tracer)
    r = run.Run(wl, tracer)
    r.until(0.0)
    values, absent, _ = run.per_layer(r, tracer)
    assert {"ghc.calls", "ghc.self_ms", "ghc.leaves_per_s"} <= set(absent)
    assert values["ghc.calls"] == 0.0
    assert values["pipeline.match_bits.ms"] > 0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "facade-k7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
