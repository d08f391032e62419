import argparse
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import child_env, descending_subsets, fresh_peak, scaled_suitable_set
from lonely_runner import cli, dyadic, enumeration, model, oracle, polyhedron
from lonely_runner.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text_output(capsys):
    code, out, _ = run_cli(capsys, "check", "4", "3", "2")
    assert code == 0
    assert out == (
        "vector: (4,3,2)\n"
        "instance: true\n"
        "earliest_time: 1/8\n"
        "half_period_witness: 1/8\n"
        "lattice_witness: (0,0,0)\n"
        "suitable_set: [1/8, 3/16] [13/16, 7/8]\n"
    )


def test_check_json_output(capsys):
    code, out, _ = run_cli(capsys, "check", "4", "3", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "vector": [4, 3, 2],
        "instance": True,
        "earliest_time": "1/8",
        "half_period_witness": "1/8",
        "lattice_witness": [0, 0, 0],
        "suitable_set": [["1/8", "3/16"], ["13/16", "7/8"]],
    }


def test_speeds_accepted_in_any_order_with_duplicates(capsys):
    code, out, _ = run_cli(capsys, "check", "2", "3", "4", "4", "--json")
    assert code == 0
    assert json.loads(out)["vector"] == [4, 3, 2]


def test_normalize_flag(capsys):
    code, out, _ = run_cli(capsys, "check", "6", "3", "--normalize", "--json")
    assert code == 0
    assert json.loads(out)["vector"] == [2, 1]


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "17", "16", "7", "6", "5", "4", "2", "--with-oracle", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["thm1"] is True and obj["thm2"] is False and obj["slow_fast"] is False
    assert obj["witness_time"] == "9/128"
    assert obj["witness_point"] == [1, 1, 0, 0, 0, 0, 0]
    assert obj["oracle_verdict"] is True


def test_classify_text_without_oracle(capsys):
    code, out, _ = run_cli(capsys, "classify", "4", "3", "2")
    assert code == 0
    assert "slow_fast: true" in out
    assert "witness_time: 3/16" in out
    assert "oracle_verdict: none" in out


def test_polytope_json(capsys):
    code, out, _ = run_cli(capsys, "polytope", "17", "16", "7", "6", "5", "4", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["landmarks"] == {
        "alpha": "9/8",
        "beta": "49/136",
        "gamma": "223/136",
        "delta": "7/8",
        "zeta": "9/8",
        "kappa": "19/16",
    }
    assert obj["lemma_widths"] == {"wq_e1": "29/16", "wq_e2": "7/4", "wq2_e2": "3/4", "wq5_e2": "87/68"}
    assert len(obj["halfplanes"]) == 6
    assert obj["vertices"][0] == ["3/16", "1/8"]


def test_polytope_text(capsys):
    code, out, _ = run_cli(capsys, "polytope", "17", "16", "7", "6", "5", "4", "2")
    assert code == 0
    assert "wq2_e2: 3/4" in out
    assert out.count("halfplane:") == 6


def test_dyadic_json(capsys):
    code, out, _ = run_cli(capsys, "dyadic", "4", "3", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "vector": [4, 3, 2],
        "exponent": 3,
        "denominator": 128,
        "m": 16,
        "time": "1/8",
    }


def test_enumerate_json_matches_library(capsys):
    code, out, err = run_cli(capsys, "enumerate", "8", "--json")
    assert code == 0
    assert json.loads(out) == enumeration.sweep(8)._asdict()
    assert "elapsed_ms=" in err


def test_enumerate_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "9", "--json")
    _, second, _ = run_cli(capsys, "enumerate", "9", "--json")
    assert first == second


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    _, first, _ = run_cli(capsys, "enumerate", "6", "--with-oracle")
    code, out, err = run_cli(capsys, "enumerate", "4", "--bogus")
    assert (code, out) == (1, "")
    assert "--bogus" in err
    _, second, _ = run_cli(capsys, "enumerate", "6", "--with-oracle")
    assert second == first
    assert cli._build_parser.cache_info().misses == 1


def test_shards_option_is_gone(capsys):
    code, out, err = run_cli(capsys, "enumerate", "4", "--shards", "3")
    assert (code, out) == (1, "")
    assert "--shards" in err


def test_enumerate_text_output(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4")
    assert code == 0
    assert "total_vectors: 15" in out
    assert "oracle_instance_count: none" in out
    assert "elapsed" not in out


def test_enumerate_out_csv(tmp_path, capsys):
    out_file = tmp_path / "records.csv"
    code, _, _ = run_cli(capsys, "enumerate", "5", "--out", str(out_file), "--format", "csv")
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "speeds,k,coprime,thm1,thm2,slow_fast,any_rule,is_instance,earliest_time,dyadic_m"
    assert len(lines) == 1 + 31


def test_enumerate_out_json_with_oracle(tmp_path, capsys):
    out_file = tmp_path / "records.json"
    code, _, _ = run_cli(
        capsys, "enumerate", "4", "--require-coprime", "--with-oracle", "--out", str(out_file), "--format", "json"
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data) == 11
    assert all(r["is_instance"] for r in data)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ("check", "10", "3", "1"),
            "vector: (10,3,1)\n"
            "instance: true\n"
            "earliest_time: 1/4\n"
            "half_period_witness: 1/4\n"
            "lattice_witness: (2,0,0)\n"
            "suitable_set: [1/4, 1/4] [17/40, 19/40] [21/40, 23/40] [3/4, 3/4]\n",
        ),
        (
            # slow_fast does not fire, so the witness time is the oracle's
            ("classify", "10", "3", "1", "--with-oracle"),
            "vector: (10,3,1)\n"
            "thm1: false\n"
            "thm2: true\n"
            "slow_fast: false\n"
            "any_rule: true\n"
            "witness_time: 1/4\n"
            "witness_point: (2,0,0)\n"
            "oracle_verdict: true\n",
        ),
        (
            ("dyadic", "10", "3", "1"),
            "vector: (10,3,1)\n"
            "exponent: 5\n"
            "denominator: 1280\n"
            "m: 320\n"
            "time: 1/4\n",
        ),
    ],
    ids=["check", "classify", "dyadic"],
)
def test_vector_commands_build_the_suitable_set_once(monkeypatch, capsys, argv, expected):
    builds = counting(monkeypatch, oracle, "_sweep")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
    assert len(builds) == 1


def test_polytope_builds_q_once(monkeypatch, capsys):
    # Q's bounds, landmarks, vertices and widths all come from one call.
    builds = counting(monkeypatch, polyhedron, "q_geometry")
    code, _, _ = run_cli(capsys, "polytope", "17", "16", "7", "6", "5", "4", "2")
    assert code == 0
    assert len(builds) == 1


def test_polytope_clips_q_once(monkeypatch, capsys):
    # The vertices come from one clip of the box by six half-planes.
    halfplanes = counting(monkeypatch, polyhedron, "HalfPlane")
    cells = counting(monkeypatch, polyhedron, "QGeometry")
    code, out, _ = run_cli(capsys, "polytope", "17", "16", "7", "6", "5", "4", "2")
    assert code == 0
    assert "vertices: (" in out
    assert len(halfplanes) == 6
    assert len(cells) == 1


def test_polytope_builds_the_box_and_landmarks_once(monkeypatch, capsys):
    # The landmarks and the lemma widths, read off the box, are built once.
    landmarks = counting(monkeypatch, polyhedron, "QLandmarks")
    widths = counting(monkeypatch, polyhedron, "LemmaWidths")
    code, out, _ = run_cli(capsys, "polytope", "17", "16", "7", "6", "5", "4", "2")
    assert code == 0
    assert "wq_e1: None" not in out
    assert len(landmarks) == 1
    assert len(widths) == 1


def test_check_keeps_the_reflection_guard(monkeypatch, capsys):
    # A suitable set that starts after 1/2 cannot be symmetric; check
    # reports it as an internal error instead of printing a witness.
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: iter([(40, 48, 41, 48)]))
    code, out, err = run_cli(capsys, "check", "4", "3", "2")
    assert code == 2
    assert out == ""
    assert "reflection symmetry" in err


def test_check_guards_the_interval_that_holds_one_half(monkeypatch, capsys):
    # The set is printed from its lower half and the mirror image of it,
    # so the interval holding 1/2 must be its own mirror; 7/16 + 5/8 != 1.
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: iter([(1, 8, 3, 16), (7, 16, 10, 16), (13, 16, 7, 8)]))
    code, _, err = run_cli(capsys, "check", "4", "3", "2")
    assert code == 2
    assert "reflection symmetry" in err


def test_json_output_refuses_a_value_it_cannot_serialize(monkeypatch, capsys):
    # Only fractions need a JSON default; anything else is a
    # bug in a command, which main reports as an internal error.
    with pytest.raises(TypeError, match="^cannot serialize set$"):
        cli._plain({1})
    monkeypatch.setattr(enumeration, "coprime_count_moebius", lambda max_speed: {1})
    code, _, err = run_cli(capsys, "count-coprime", "3", "--json")
    assert code == 2
    assert err == "internal error: cannot serialize set\n"


def expected_check_stdout(speeds, as_json):
    """check's stdout, built from the arc-list oracle in tests/helpers."""
    n = model.SpeedVector(speeds)
    den, arcs = scaled_suitable_set(n)

    def rational(num):
        q = Fraction(num, den)
        return f"{q.numerator}/{q.denominator}"

    pairs = [(rational(lo), rational(hi)) for lo, hi in arcs]
    earliest = pairs[0][0] if pairs else None
    point = None if earliest is None else [math.floor(s * Fraction(earliest)) for s in n]
    if as_json:
        obj = {
            "vector": list(n),
            "instance": bool(pairs),
            "earliest_time": earliest,
            "half_period_witness": earliest,
            "lattice_witness": point,
            "suitable_set": [list(pair) for pair in pairs],
        }
        return json.dumps(obj) + "\n"
    earliest = earliest or "none"
    return (
        f"vector: ({','.join(map(str, n))})\n"
        f"instance: {'true' if pairs else 'false'}\n"
        f"earliest_time: {earliest}\n"
        f"half_period_witness: {earliest}\n"
        f"lattice_witness: {'none' if point is None else '(' + ','.join(map(str, point)) + ')'}\n"
        f"suitable_set: {' '.join(f'[{lo}, {hi}]' for lo, hi in pairs)}\n"
    )


def seeded_vectors(k, tier, count):
    rng = random.Random(tier * 10 + k)
    return [tuple(rng.sample(range(tier - tier // 10, tier + 1), k)) for _ in range(count)]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_check_stdout_matches_the_arc_lists(capsys, as_json):
    # Every subset of {1..10}, then seeded vectors near 10^3.
    flags = ("--json",) if as_json else ()
    cases = list(descending_subsets(10)) + seeded_vectors(3, 10**3, 3) + seeded_vectors(7, 10**3, 2)
    for speeds in cases:
        code, out, err = run_cli(capsys, "check", *map(str, speeds), *flags)
        assert (code, err) == (0, ""), speeds
        assert out == expected_check_stdout(speeds, as_json), speeds


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_check_streams_in_bounded_memory(flags):
    # About 73k intervals near 10^5.  Holding them, as Fraction pairs or as
    # one output document, takes over 20 MB; the kept lower half is about
    # 1.2 MB of integers.  (Tracing allocations slows the sweep about
    # twentyfold.)
    argv = ["check", *map(str, seeded_vectors(3, 10**5, 1)[0]), *flags]
    setup = "import os\nfrom contextlib import redirect_stdout\nfrom lonely_runner.cli import main"
    call = f"with open(os.devnull, 'w') as sink, redirect_stdout(sink):\n    assert main({argv!r}) == 0"
    assert fresh_peak(setup, call) < 4 * 2**20


def test_check_into_a_closed_pipe_exits_0():
    # A reader that stops early (``| head``) is not an error.
    proc = subprocess.Popen(
        [sys.executable, "-m", "lonely_runner", "check", "9973", "9949", "9941"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head.startswith(b"vector: (9973,9949,9941)\n")
    assert proc.returncode == 0
    assert err == b""


def test_check_refuses_huge_speeds_before_any_work(monkeypatch, capsys):
    # The set could hold sum(n) intervals.  The limit is checked before
    # the sweep starts; a sweep started here would fail the test, not fill memory.
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: pytest.fail("the limit is checked first"))
    code, out, err = run_cli(capsys, "check", "1000000000000", "1")
    assert code == 1
    assert out == ""
    assert "limit" in err


def test_check_accepts_many_runners_under_the_limit(capsys):
    # 1..1000 has k = 1000 and a sum of 500500, under the limit: the sweep
    # makes at most sum(n)/2 pops however many runners share the heap.
    speeds = range(1, 1001)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", *map(str, speeds))
    assert time.perf_counter() - start < 60
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    # (1..k) is tight: its suitable set is the points j/(k+1) with j prime to k+1.
    points = [t for t in (Fraction(j, 1001) for j in range(1, 1001)) if t.denominator == 1001]
    assert fields["suitable_set"] == " ".join(f"[{t}, {t}]" for t in points)
    # is_suitable costs 1000 Fraction products a time; every tenth point keeps the test short.
    assert all(oracle.is_suitable(speeds, t) for t in points[::10])


@pytest.mark.parametrize("argv", [("dyadic",), ("classify", "--with-oracle")])
def test_large_speed_verdicts(capsys, argv):
    speeds = ("999999937", "617283945", "212345678")
    code, out, _ = run_cli(capsys, argv[0], *speeds, *argv[1:])
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    n = model.SpeedVector(int(s) for s in speeds)
    if argv[0] == "dyadic":
        t = Fraction(fields["time"])
        assert t == Fraction(int(fields["m"]), int(fields["denominator"]))
    else:
        # slow_fast does not fire (n_1 > 3 n_3), so the witness is the oracle's
        assert fields["slow_fast"] == "false" and fields["oracle_verdict"] == "true"
        t = Fraction(fields["witness_time"])
        assert t == oracle.earliest_suitable_time(n)
    assert oracle.is_suitable(n, t)


def test_enumerate_out_is_one_pass(tmp_path, monkeypatch, capsys):
    rules = counting(monkeypatch, enumeration, "_rules")
    tables = counting(monkeypatch, enumeration, "_witnesses")
    sweeps = counting(monkeypatch, oracle, "_sweep")
    out_file = tmp_path / "records.csv"
    code, out, _ = run_cli(capsys, "enumerate", "6", "--with-oracle", "--with-dyadic", "--out", str(out_file))
    assert code == 0
    assert "total_vectors: 63" in out
    # One witness table per k decides every vector; no vector at N = 6 needs the sweep.
    assert sorted(tables) == [(6, k) for k in range(1, 7)]
    assert sweeps == []
    # The records call the rules once per vector; the closed-form summary
    # counts them from their thresholds and never calls them.
    assert len(rules) == 63
    rules.clear()
    enumeration.sweep(6)
    assert rules == []


@pytest.mark.parametrize("coprime", [False, True])
@pytest.mark.parametrize("with_oracle", [False, True])
@pytest.mark.parametrize("with_dyadic", [False, True])
def test_enumerate_out_matches_library(tmp_path, capsys, coprime, with_oracle, with_dyadic):
    options = {"require_coprime": coprime, "with_oracle": with_oracle, "with_dyadic": with_dyadic}
    flags = [f"--{name.replace('_', '-')}" for name, on in options.items() if on]
    for fmt in ("csv", "json"):
        out_file = tmp_path / f"records.{fmt}"
        argv = ["enumerate", "6", *flags, "--out", str(out_file), "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        expected = tmp_path / f"expected.{fmt}"
        enumeration.sweep(6, **options, out=expected, fmt=fmt)
        assert out_file.read_bytes() == expected.read_bytes()
        _, plain, _ = run_cli(capsys, "enumerate", "6", *flags)
        assert out == plain


# Exact --out bytes at N = 4, frozen so that a change to the record
# writer cannot pass by changing the library and the CLI together.  csv
# rows end in \r\n, as csv.writer writes them.
OUT_GOLDEN = {
    "oracle-dyadic-csv": (
        ("--with-oracle", "--with-dyadic", "--format", "csv"),
        "speeds,k,coprime,thm1,thm2,slow_fast,any_rule,is_instance,earliest_time,dyadic_m\r\n"
        "1,1,1,0,0,1,1,1,1/2,2\r\n"
        "2,1,0,0,0,1,1,1,1/4,4\r\n"
        "2;1,2,1,0,1,1,1,1,1/3,8\r\n"
        "3,1,0,0,0,1,1,1,1/6,8\r\n"
        "3;1,2,1,0,0,0,0,1,4/9,32\r\n"
        "3;2,2,1,0,1,1,1,1,1/6,12\r\n"
        "3;2;1,3,1,0,1,1,1,1,1/4,24\r\n"
        "4,1,0,0,0,1,1,1,1/8,8\r\n"
        "4;1,2,1,0,1,0,1,1,1/3,32\r\n"
        "4;2,2,0,0,1,1,1,1,1/6,16\r\n"
        "4;2;1,3,1,0,0,0,0,1,5/16,40\r\n"
        "4;3,2,1,0,1,1,1,1,1/9,11\r\n"
        "4;3;1,3,1,0,0,0,0,1,5/12,54\r\n"
        "4;3;2,3,1,0,1,1,1,1,1/8,16\r\n"
        "4;3;2;1,4,1,0,1,1,1,1,1/5,32\r\n",
    ),
    "oracle-dyadic-json": (
        ("--with-oracle", "--with-dyadic", "--format", "json"),
        '[{"speeds": [1], "k": 1, "coprime": true, "thm1": false, "thm2": false, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/2", "dyadic_m": 2},\n'
        '{"speeds": [2], "k": 1, "coprime": false, "thm1": false, "thm2": false, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/4", "dyadic_m": 4},\n'
        '{"speeds": [2, 1], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/3", "dyadic_m": 8},\n'
        '{"speeds": [3], "k": 1, "coprime": false, "thm1": false, "thm2": false, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/6", "dyadic_m": 8},\n'
        '{"speeds": [3, 1], "k": 2, "coprime": true, "thm1": false, "thm2": false, "slow_fast": false, '
        '"any_rule": false, "is_instance": true, "earliest_time": "4/9", "dyadic_m": 32},\n'
        '{"speeds": [3, 2], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/6", "dyadic_m": 12},\n'
        '{"speeds": [3, 2, 1], "k": 3, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/4", "dyadic_m": 24},\n'
        '{"speeds": [4], "k": 1, "coprime": false, "thm1": false, "thm2": false, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/8", "dyadic_m": 8},\n'
        '{"speeds": [4, 1], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": false, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/3", "dyadic_m": 32},\n'
        '{"speeds": [4, 2], "k": 2, "coprime": false, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/6", "dyadic_m": 16},\n'
        '{"speeds": [4, 2, 1], "k": 3, "coprime": true, "thm1": false, "thm2": false, "slow_fast": false, '
        '"any_rule": false, "is_instance": true, "earliest_time": "5/16", "dyadic_m": 40},\n'
        '{"speeds": [4, 3], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/9", "dyadic_m": 11},\n'
        '{"speeds": [4, 3, 1], "k": 3, "coprime": true, "thm1": false, "thm2": false, "slow_fast": false, '
        '"any_rule": false, "is_instance": true, "earliest_time": "5/12", "dyadic_m": 54},\n'
        '{"speeds": [4, 3, 2], "k": 3, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/8", "dyadic_m": 16},\n'
        '{"speeds": [4, 3, 2, 1], "k": 4, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": true, "earliest_time": "1/5", "dyadic_m": 32}]\n',
    ),
    "dyadic-csv": (
        ("--with-dyadic", "--format", "csv"),
        "speeds,k,coprime,thm1,thm2,slow_fast,any_rule,is_instance,earliest_time,dyadic_m\r\n"
        "1,1,1,0,0,1,1,,,2\r\n"
        "2,1,0,0,0,1,1,,,4\r\n"
        "2;1,2,1,0,1,1,1,,,8\r\n"
        "3,1,0,0,0,1,1,,,8\r\n"
        "3;1,2,1,0,0,0,0,,,32\r\n"
        "3;2,2,1,0,1,1,1,,,12\r\n"
        "3;2;1,3,1,0,1,1,1,,,24\r\n"
        "4,1,0,0,0,1,1,,,8\r\n"
        "4;1,2,1,0,1,0,1,,,32\r\n"
        "4;2,2,0,0,1,1,1,,,16\r\n"
        "4;2;1,3,1,0,0,0,0,,,40\r\n"
        "4;3,2,1,0,1,1,1,,,11\r\n"
        "4;3;1,3,1,0,0,0,0,,,54\r\n"
        "4;3;2,3,1,0,1,1,1,,,16\r\n"
        "4;3;2;1,4,1,0,1,1,1,,,32\r\n",
    ),
    "oracle-csv": (
        ("--with-oracle", "--format", "csv"),
        "speeds,k,coprime,thm1,thm2,slow_fast,any_rule,is_instance,earliest_time,dyadic_m\r\n"
        "1,1,1,0,0,1,1,1,1/2,\r\n"
        "2,1,0,0,0,1,1,1,1/4,\r\n"
        "2;1,2,1,0,1,1,1,1,1/3,\r\n"
        "3,1,0,0,0,1,1,1,1/6,\r\n"
        "3;1,2,1,0,0,0,0,1,4/9,\r\n"
        "3;2,2,1,0,1,1,1,1,1/6,\r\n"
        "3;2;1,3,1,0,1,1,1,1,1/4,\r\n"
        "4,1,0,0,0,1,1,1,1/8,\r\n"
        "4;1,2,1,0,1,0,1,1,1/3,\r\n"
        "4;2,2,0,0,1,1,1,1,1/6,\r\n"
        "4;2;1,3,1,0,0,0,0,1,5/16,\r\n"
        "4;3,2,1,0,1,1,1,1,1/9,\r\n"
        "4;3;1,3,1,0,0,0,0,1,5/12,\r\n"
        "4;3;2,3,1,0,1,1,1,1,1/8,\r\n"
        "4;3;2;1,4,1,0,1,1,1,1,1/5,\r\n",
    ),
    "rules-coprime-csv": (
        ("--require-coprime",),
        "speeds,k,coprime,thm1,thm2,slow_fast,any_rule,is_instance,earliest_time,dyadic_m\r\n"
        "1,1,1,0,0,1,1,,,\r\n"
        "2;1,2,1,0,1,1,1,,,\r\n"
        "3;1,2,1,0,0,0,0,,,\r\n"
        "3;2,2,1,0,1,1,1,,,\r\n"
        "3;2;1,3,1,0,1,1,1,,,\r\n"
        "4;1,2,1,0,1,0,1,,,\r\n"
        "4;2;1,3,1,0,0,0,0,,,\r\n"
        "4;3,2,1,0,1,1,1,,,\r\n"
        "4;3;1,3,1,0,0,0,0,,,\r\n"
        "4;3;2,3,1,0,1,1,1,,,\r\n"
        "4;3;2;1,4,1,0,1,1,1,,,\r\n",
    ),
    "rules-coprime-json": (
        ("--require-coprime", "--format", "json"),
        '[{"speeds": [1], "k": 1, "coprime": true, "thm1": false, "thm2": false, "slow_fast": true, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [2, 1], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [3, 1], "k": 2, "coprime": true, "thm1": false, "thm2": false, "slow_fast": false, '
        '"any_rule": false, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [3, 2], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [3, 2, 1], "k": 3, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [4, 1], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": false, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [4, 2, 1], "k": 3, "coprime": true, "thm1": false, "thm2": false, "slow_fast": false, '
        '"any_rule": false, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [4, 3], "k": 2, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [4, 3, 1], "k": 3, "coprime": true, "thm1": false, "thm2": false, "slow_fast": false, '
        '"any_rule": false, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [4, 3, 2], "k": 3, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null},\n'
        '{"speeds": [4, 3, 2, 1], "k": 4, "coprime": true, "thm1": false, "thm2": true, "slow_fast": true, '
        '"any_rule": true, "is_instance": null, "earliest_time": null, "dyadic_m": null}]\n',
    ),
}


@pytest.mark.parametrize("flags,expected", OUT_GOLDEN.values(), ids=OUT_GOLDEN.keys())
def test_enumerate_out_golden(tmp_path, capsys, flags, expected):
    out_file = tmp_path / "records"
    code, _, _ = run_cli(capsys, "enumerate", "4", *flags, "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == expected.encode()


def test_count_coprime_text(capsys):
    code, out, _ = run_cli(capsys, "count-coprime", "32")
    assert code == 0
    assert out == "4294900694\n"


def test_count_coprime_json(capsys):
    code, out, _ = run_cli(capsys, "count-coprime", "32", "--json")
    assert code == 0
    assert json.loads(out) == {
        "max_speed": 32,
        "total_vectors": 4294967295,
        "coprime_vectors": 4294900694,
    }


def test_invalid_speed_exits_1(capsys):
    code, _, err = run_cli(capsys, "check", "0")
    assert code == 1
    assert "positive" in err
    # --normalize divides out the gcd of valid speeds; it drops no bad one.
    code, out, err = run_cli(capsys, "check", "0", "4", "6", "--normalize")
    assert (code, out) == (1, "")
    assert "positive" in err


@pytest.mark.parametrize("command,longest", [("dyadic", 2802), ("polytope", 4201)])
def test_speeds_too_large_to_print_exit_1(monkeypatch, capsys, command, longest):
    # At the bound the dyadic denominator has 2,802 digits and the widths of
    # Q, products of three speeds, 4,201: under the 4,300 that Python prints.
    # One digit more is refused before any work.
    at_bound = [str(10**cli._MAX_SPEED_DIGITS - d) for d in (1, 3, 5, 7)]
    code, out, _ = run_cli(capsys, command, *at_bound)
    assert code == 0
    assert max(map(len, re.findall(r"\d+", out))) == longest
    monkeypatch.setattr(dyadic, "find_dyadic_time", lambda n: pytest.fail("the bound is checked first"))
    monkeypatch.setattr(polyhedron, "q_geometry", lambda n: pytest.fail("the bound is checked first"))
    over = [str(10**cli._MAX_SPEED_DIGITS + d) for d in (1, 3, 5, 7)]
    code, out, err = run_cli(capsys, command, *over)
    assert (code, out) == (1, "")
    assert err == f"error: speeds must have at most {cli._MAX_SPEED_DIGITS} digits, got {cli._MAX_SPEED_DIGITS + 1}\n"


def test_duplicate_after_normalize_ok_but_bad_vector_exits_1(capsys):
    code, _, err = run_cli(capsys, "check", "-3", "2")
    assert code == 1
    assert "positive" in err


def test_out_of_range_enumerate_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "enumerate", "63")
    assert code == 1
    assert "max_speed" in err
    out_file = tmp_path / "records.csv"
    code, _, err = run_cli(capsys, "enumerate", "40", "--out", str(out_file))
    assert code == 1
    assert "max_speed" in err
    assert not out_file.exists()


def test_enumerate_out_refuses_more_than_2_24_records(tmp_path, monkeypatch, capsys):
    # The census is stubbed by the closed-form summary, so a looser bound fails here without writing a file of GBs.
    calls = []

    def census(*args):
        calls.append(args[:4])
        return enumeration.sweep(args[0], require_coprime=args[1])

    monkeypatch.setattr(enumeration, "_census", census)
    # At N = 25 both the records and the coprime ones are over the budget of 2^24,
    # so N is refused before the file is opened.
    out_file = tmp_path / "records.csv"
    for flags in ([], ["--require-coprime"]):
        code, out, err = run_cli(capsys, "enumerate", "25", *flags, "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err == "error: max_speed must be in [1, 24], got 25\n"
        assert not out_file.exists()
    assert calls == []
    # At N = 24 the 2^24 - 1 records and the coprime ones are accepted: the check passes and the census is called.
    for flags, total in (([], "total_vectors: 16777215\n"), (["--require-coprime"], "coprime_vectors: 16772858\n")):
        calls.clear()
        code, out, _ = run_cli(capsys, "enumerate", "24", *flags, "--out", str(out_file))
        assert code == 0
        assert calls == [(24, bool(flags), False, False)]
        assert total in out


def test_rules_only_enumerate_checks_arguments_first(monkeypatch, capsys):
    # sweep rejects max_speed before the closed form starts.
    monkeypatch.setattr(enumeration, "_rule_census", lambda *args: pytest.fail("arguments are checked first"))
    code, out, err = run_cli(capsys, "enumerate", "63")
    assert (code, out) == (1, "")
    assert "max_speed" in err
    for max_speed in (0, 63):
        with pytest.raises(ValueError, match="max_speed"):
            enumeration.sweep(max_speed)


def test_rules_only_enumerate_visits_no_mask(monkeypatch, capsys):
    masks = counting(monkeypatch, enumeration, "_census")
    code, out, err = run_cli(capsys, "enumerate", "20", "--require-coprime")
    assert code == 0
    assert masks == []
    assert "any_rule_count: 437288\n" in out
    assert re.fullmatch(r"elapsed_ms=\d+\n", err)


ENUMERATE_32 = {
    "max_speed": 32,
    "total_vectors": 4294967295,
    "coprime_vectors": 4294900694,
    "oracle_instance_count": None,
    "dyadic_verified_count": None,
}


@pytest.mark.parametrize(
    "flags,counts",
    [
        (["--require-coprime"], (454092, 1753364770, 1730994914, 1753402168)),
        ([], (454686, 1753393237, 1731022402, 1753430977)),
    ],
)
def test_enumerate_32_in_closed_form(capsys, flags, counts):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "enumerate", "32", *flags, "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    thm1, thm2, slow_fast, any_rule = counts
    assert json.loads(out) == dict(
        ENUMERATE_32, thm1_count=thm1, thm2_count=thm2, slow_fast_count=slow_fast, any_rule_count=any_rule
    )
    assert elapsed < 2.0


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run_cli(capsys, "bogus")
    assert code == 1
    assert "invalid choice" in err


def test_missing_arguments_exit_1(capsys):
    assert run_cli(capsys, "check")[0] == 1
    assert run_cli(capsys)[0] == 1


# Python 3.13's argparse keeps " ..." on the line of the subcommand choices; 3.10-3.12 wrap it.
TOP_USAGE = (
    "usage: lonely-runner [-h]\n"
    "                     {check,classify,polytope,dyadic,enumerate,count-coprime} ...\n"
    if sys.version_info >= (3, 13)
    else "usage: lonely-runner [-h]\n"
    "                     {check,classify,polytope,dyadic,enumerate,count-coprime}\n"
    "                     ...\n"
)
CHECK_USAGE = "usage: lonely-runner check [-h] [--normalize] [--json] speeds [speeds ...]\n"

# argparse's own bytes at 80 columns, as Python 3.10 to 3.13 print them:
# bad usage is the usage line and one error line on stderr, exit 1.
USAGE_ERRORS = {
    "check-without-speeds": (
        ("check",),
        CHECK_USAGE + "lonely-runner check: error: the following arguments are required: speeds\n",
    ),
    "no-command": ((), TOP_USAGE + "lonely-runner: error: the following arguments are required: command\n"),
    "unknown-command": (
        ("bogus",),
        TOP_USAGE + "lonely-runner: error: argument command: invalid choice: 'bogus' "
        "(choose from 'check', 'classify', 'polytope', 'dyadic', 'enumerate', 'count-coprime')\n",
    ),
}


@pytest.mark.parametrize("argv, expected", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_bytes(monkeypatch, capsys, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (1, "", expected)


HELP = {
    "top": (
        ("--help",),
        TOP_USAGE + "\n"
        "Command-line interface.\n"
        "\n"
        "positional arguments:\n"
        "  {check,classify,polytope,dyadic,enumerate,count-coprime}\n"
        "    check               exact oracle verdict and witnesses\n"
        "    classify            sufficient-condition rule triple\n"
        "    polytope            half-planes, vertices, landmarks, widths of the planar\n"
        "                        cell Q\n"
        "    dyadic              minimal suitable time on the dyadic grid\n"
        "    enumerate           census sweep over all subsets of {1..N}\n"
        "    count-coprime       closed-form count of coprime subsets of {1..N}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
    ),
    "check": (
        ("check", "--help"),
        CHECK_USAGE + "\n"
        "positional arguments:\n"
        "  speeds       integer speeds, any order\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --normalize  divide speeds by their gcd first\n"
        "  --json       emit one JSON document\n",
    ),
}


@pytest.mark.parametrize("argv, expected", HELP.values(), ids=HELP.keys())
def test_help_bytes(monkeypatch, capsys, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_unwritable_out_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "enumerate", "4", "--out", str(tmp_path / "no-dir" / "x.csv"))
    assert code == 2
    assert "cannot write" in err
    if os.path.exists("/dev/full"):  # it opens, and then every write fails: a full disk must not exit 0
        code, out, err = run_cli(capsys, "enumerate", "10", "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert "cannot write /dev/full" in err


def test_broken_pipe_exits_0(monkeypatch, capsys):
    def boom(n):
        raise BrokenPipeError()

    monkeypatch.setattr(oracle, "_suitable_quads", boom)
    assert main(["check", "2", "1"]) == 0


def test_internal_error_exits_2(monkeypatch, capsys):
    def boom(n):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(oracle, "_suitable_quads", boom)
    code = main(["check", "2", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "internal error" in captured.err


def test_every_subcommand_carries_a_handler():
    parser = cli._build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert set(sub.choices) == {"check", "classify", "polytope", "dyadic", "enumerate", "count-coprime"}
    for name, subparser in sub.choices.items():
        assert callable(subparser.get_default("run")), name


def test_format_choices_are_the_record_formats():
    parser = cli._build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    (fmt,) = [action for action in sub.choices["enumerate"]._actions if action.dest == "format"]
    assert tuple(fmt.choices) == tuple(enumeration._FORMATS)


def assert_forms_agree(argv):
    """The --json keys, in order, are the text form's ``key:`` prefixes; returns both documents.

    Stdout is captured without capsys, which hypothesis refuses.
    """
    text, document = io.StringIO(), io.StringIO()
    for out, extra in ((text, ()), (document, ("--json",))):
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert main([*argv, *extra]) == 0, (argv, extra)
    text, document = text.getvalue(), document.getvalue()
    assert text.endswith("\n") and document.endswith("}\n"), argv
    lines = dict(line.split(": ", 1) for line in text[:-1].split("\n"))
    obj = json.loads(document)
    assert list(obj) == list(lines), argv
    return lines, obj


speed_lists = st.lists(st.integers(1, 40), min_size=1, max_size=5).map(lambda speeds: [str(s) for s in speeds])


@settings(max_examples=60, deadline=None)
@given(speeds=speed_lists, normalize=st.booleans())
def test_check_forms_agree(speeds, normalize):
    lines, obj = assert_forms_agree(["check", *speeds, *(["--normalize"] if normalize else [])])
    assert lines["suitable_set"].count("[") == len(obj["suitable_set"])


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from([["classify", "--with-oracle"], ["dyadic"]]), speeds=speed_lists)
def test_vector_command_forms_agree(command, speeds):
    assert_forms_agree([command[0], *speeds, *command[1:]])


@settings(max_examples=30, deadline=None)
@given(
    max_speed=st.integers(1, 10),
    flags=st.sets(st.sampled_from(["--require-coprime", "--with-oracle", "--with-dyadic"])),
)
def test_enumerate_forms_agree(max_speed, flags):
    assert_forms_agree(["enumerate", str(max_speed), *sorted(flags)])


def console_script_target(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lonely_runner", "check", "4", "3", "2", "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["instance"] is True


def test_console_script_subprocess():
    # Do what the wrapper generated at install time does, so that the
    # declared entry point runs from a checkout as well as from an install.
    module, _, attr = console_script_target("lonely-runner").partition(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.argv[0] = 'lonely-runner'\nsys.exit({attr}())\n"
    # main's return value is the exit code, for a usage error as for success.
    for args, code, out, err in (
        (["count-coprime", "12"], 0, "4016\n", ""),
        (["check"], 1, "", "usage: lonely-runner check"),
    ):
        proc = subprocess.run([sys.executable, "-c", wrapper, *args], capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert proc.stderr.startswith(err), proc.stderr


def test_cli_import_leaves_out_multiprocessing_dataclasses_and_inspect():
    # Start-up cost: none of these is needed on the path of any command.
    # typing is not checked, since site imports it before the CLI does.
    heavy = ["multiprocessing", "dataclasses", "inspect"]
    code = f"import sys, lonely_runner.cli; print([name for name in {heavy!r} if name in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Frozen stdout of every subcommand, in text and --json, byte for byte.
GOLDEN = {
    "check-normalize": (
        ("check", "12", "8", "4", "--normalize"),
        "vector: (3,2,1)\n"
        "instance: true\n"
        "earliest_time: 1/4\n"
        "half_period_witness: 1/4\n"
        "lattice_witness: (0,0,0)\n"
        "suitable_set: [1/4, 1/4] [3/4, 3/4]\n",
    ),
    "check-normalize-json": (
        ("check", "12", "8", "4", "--normalize", "--json"),
        '{"vector": [3, 2, 1], "instance": true, "earliest_time": "1/4", "half_period_witness": "1/4", '
        '"lattice_witness": [0, 0, 0], "suitable_set": [["1/4", "1/4"], ["3/4", "3/4"]]}\n',
    ),
    "classify": (
        ("classify", "17", "16", "7", "6", "5", "4", "2"),
        "vector: (17,16,7,6,5,4,2)\n"
        "thm1: true\n"
        "thm2: false\n"
        "slow_fast: false\n"
        "any_rule: true\n"
        "witness_time: none\n"
        "witness_point: none\n"
        "oracle_verdict: none\n",
    ),
    "classify-json": (
        ("classify", "17", "16", "7", "6", "5", "4", "2", "--json"),
        '{"vector": [17, 16, 7, 6, 5, 4, 2], "thm1": true, "thm2": false, "slow_fast": false, "any_rule": true, '
        '"witness_time": null, "witness_point": null, "oracle_verdict": null}\n',
    ),
    "classify-oracle-json": (
        ("classify", "4", "3", "2", "--with-oracle", "--json"),
        '{"vector": [4, 3, 2], "thm1": false, "thm2": true, "slow_fast": true, "any_rule": true, '
        '"witness_time": "3/16", "witness_point": [0, 0, 0], "oracle_verdict": true}\n',
    ),
    "polytope": (
        ("polytope", "17", "16", "7", "6", "5", "4", "2"),
        "vector: (17,16,7,6,5,4,2)\n"
        "halfplane: -1/1*x1 + 0/1*x2 <= -3/16\n"
        "halfplane: 1/1*x1 + 0/1*x2 <= 2/1\n"
        "halfplane: 0/1*x1 + -1/1*x2 <= -1/8\n"
        "halfplane: 0/1*x1 + 1/1*x2 <= 15/8\n"
        "halfplane: -16/1*x1 + 17/1*x2 <= 95/8\n"
        "halfplane: 16/1*x1 + -17/1*x2 <= 103/8\n"
        "vertices: (3/16, 1/8) (15/16, 1/8) (2/1, 9/8) (2/1, 15/8) (5/4, 15/8) (3/16, 7/8)\n"
        "landmarks: alpha=9/8 beta=49/136 gamma=223/136 delta=7/8 zeta=9/8 kappa=19/16\n"
        "wq_e1: 29/16\n"
        "wq_e2: 7/4\n"
        "wq2_e2: 3/4\n"
        "wq5_e2: 87/68\n",
    ),
    "polytope-json": (
        ("polytope", "17", "16", "7", "6", "5", "4", "2", "--json"),
        '{"vector": [17, 16, 7, 6, 5, 4, 2], "halfplanes": [{"a1": "-1/1", "a2": "0/1", "b": "-3/16"}, '
        '{"a1": "1/1", "a2": "0/1", "b": "2/1"}, {"a1": "0/1", "a2": "-1/1", "b": "-1/8"}, '
        '{"a1": "0/1", "a2": "1/1", "b": "15/8"}, {"a1": "-16/1", "a2": "17/1", "b": "95/8"}, '
        '{"a1": "16/1", "a2": "-17/1", "b": "103/8"}], "vertices": [["3/16", "1/8"], ["15/16", "1/8"], '
        '["2/1", "9/8"], ["2/1", "15/8"], ["5/4", "15/8"], ["3/16", "7/8"]], "landmarks": {"alpha": "9/8", '
        '"beta": "49/136", "gamma": "223/136", "delta": "7/8", "zeta": "9/8", "kappa": "19/16"}, '
        '"lemma_widths": {"wq_e1": "29/16", "wq_e2": "7/4", "wq2_e2": "3/4", "wq5_e2": "87/68"}}\n',
    ),
    "polytope-partial-widths": (
        ("polytope", "6", "5", "4", "1"),
        "vector: (6,5,4,1)\n"
        "halfplane: -1/1*x1 + 0/1*x2 <= -2/5\n"
        "halfplane: 1/1*x1 + 0/1*x2 <= 1/1\n"
        "halfplane: 0/1*x1 + -1/1*x2 <= -1/5\n"
        "halfplane: 0/1*x1 + 1/1*x2 <= 4/5\n"
        "halfplane: -5/1*x1 + 6/1*x2 <= 14/5\n"
        "halfplane: 5/1*x1 + -6/1*x2 <= 19/5\n"
        "vertices: (2/5, 1/5) (1/1, 1/5) (1/1, 4/5) (2/5, 4/5)\n"
        "landmarks: alpha=6/5 beta=8/15 gamma=7/15 delta=4/5 zeta=1/5 kappa=7/5\n"
        "wq_e1: 3/5\n"
        "wq_e2: 3/5\n"
        "wq2_e2: none\n"
        "wq5_e2: none\n",
    ),
    "polytope-partial-widths-json": (
        ("polytope", "6", "5", "4", "1", "--json"),
        '{"vector": [6, 5, 4, 1], "halfplanes": [{"a1": "-1/1", "a2": "0/1", "b": "-2/5"}, '
        '{"a1": "1/1", "a2": "0/1", "b": "1/1"}, {"a1": "0/1", "a2": "-1/1", "b": "-1/5"}, '
        '{"a1": "0/1", "a2": "1/1", "b": "4/5"}, {"a1": "-5/1", "a2": "6/1", "b": "14/5"}, '
        '{"a1": "5/1", "a2": "-6/1", "b": "19/5"}], "vertices": [["2/5", "1/5"], ["1/1", "1/5"], '
        '["1/1", "4/5"], ["2/5", "4/5"]], "landmarks": {"alpha": "6/5", "beta": "8/15", "gamma": "7/15", '
        '"delta": "4/5", "zeta": "1/5", "kappa": "7/5"}, '
        '"lemma_widths": {"wq_e1": "3/5", "wq_e2": "3/5", "wq2_e2": null, "wq5_e2": null}}\n',
    ),
    "polytope-empty-q": (
        ("polytope", "10", "7", "6", "1"),
        "vector: (10,7,6,1)\n"
        "halfplane: -1/1*x1 + 0/1*x2 <= -6/5\n"
        "halfplane: 1/1*x1 + 0/1*x2 <= 17/15\n"
        "halfplane: 0/1*x1 + -1/1*x2 <= -3/5\n"
        "halfplane: 0/1*x1 + 1/1*x2 <= 11/15\n"
        "halfplane: -7/1*x1 + 10/1*x2 <= 18/5\n"
        "halfplane: 7/1*x1 + -10/1*x2 <= 33/5\n"
        "vertices: \n"
        "landmarks: alpha=8/5 beta=22/25 gamma=34/75 delta=6/5 zeta=2/15 kappa=11/5\n"
        "wq_e1: none\n"
        "wq_e2: none\n"
        "wq2_e2: none\n"
        "wq5_e2: none\n",
    ),
    "polytope-empty-q-json": (
        ("polytope", "10", "7", "6", "1", "--json"),
        '{"vector": [10, 7, 6, 1], "halfplanes": [{"a1": "-1/1", "a2": "0/1", "b": "-6/5"}, '
        '{"a1": "1/1", "a2": "0/1", "b": "17/15"}, {"a1": "0/1", "a2": "-1/1", "b": "-3/5"}, '
        '{"a1": "0/1", "a2": "1/1", "b": "11/15"}, {"a1": "-7/1", "a2": "10/1", "b": "18/5"}, '
        '{"a1": "7/1", "a2": "-10/1", "b": "33/5"}], "vertices": [], "landmarks": {"alpha": "8/5", '
        '"beta": "22/25", "gamma": "34/75", "delta": "6/5", "zeta": "2/15", "kappa": "11/5"}, '
        '"lemma_widths": {"wq_e1": null, "wq_e2": null, "wq2_e2": null, "wq5_e2": null}}\n',
    ),
    "dyadic": (
        ("dyadic", "4", "3", "2"),
        "vector: (4,3,2)\nexponent: 3\ndenominator: 128\nm: 16\ntime: 1/8\n",
    ),
    "dyadic-normalize-json": (
        ("dyadic", "12", "8", "4", "--normalize", "--json"),
        '{"vector": [3, 2, 1], "exponent": 3, "denominator": 96, "m": 24, "time": "1/4"}\n',
    ),
    "enumerate": (
        ("enumerate", "4"),
        "max_speed: 4\n"
        "total_vectors: 15\n"
        "coprime_vectors: 11\n"
        "thm1_count: 0\n"
        "thm2_count: 8\n"
        "slow_fast_count: 11\n"
        "any_rule_count: 12\n"
        "oracle_instance_count: none\n"
        "dyadic_verified_count: none\n",
    ),
    "enumerate-json": (
        ("enumerate", "4", "--require-coprime", "--with-oracle", "--with-dyadic", "--json"),
        '{"max_speed": 4, "total_vectors": 15, "coprime_vectors": 11, "thm1_count": 0, "thm2_count": 7, '
        '"slow_fast_count": 7, "any_rule_count": 8, "oracle_instance_count": 11, "dyadic_verified_count": 11}\n',
    ),
    "count-coprime": (("count-coprime", "12"), "4016\n"),
    "count-coprime-json": (
        ("count-coprime", "12", "--json"),
        '{"max_speed": 12, "total_vectors": 4095, "coprime_vectors": 4016}\n',
    ),
}


@pytest.mark.parametrize("argv,expected", GOLDEN.values(), ids=GOLDEN.keys())
def test_golden_stdout(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
    if argv[0] != "enumerate":
        assert err == ""


# A vector the oracle finds no suitable time for: every theorem-backed
# vector is an instance, so the sweep is patched to yield nothing.
NON_INSTANCE = {
    "check": (
        ("check", "4", "3", "2"),
        "vector: (4,3,2)\n"
        "instance: false\n"
        "earliest_time: none\n"
        "half_period_witness: none\n"
        "lattice_witness: none\n"
        "suitable_set: \n",
    ),
    "check-json": (
        ("check", "4", "3", "2", "--json"),
        '{"vector": [4, 3, 2], "instance": false, "earliest_time": null, "half_period_witness": null, '
        '"lattice_witness": null, "suitable_set": []}\n',
    ),
    "classify": (
        ("classify", "17", "16", "7", "6", "5", "4", "2", "--with-oracle"),
        "vector: (17,16,7,6,5,4,2)\n"
        "thm1: true\n"
        "thm2: false\n"
        "slow_fast: false\n"
        "any_rule: true\n"
        "witness_time: none\n"
        "witness_point: none\n"
        "oracle_verdict: false\n",
    ),
    "classify-json": (
        ("classify", "4", "3", "2", "--with-oracle", "--json"),
        '{"vector": [4, 3, 2], "thm1": false, "thm2": true, "slow_fast": true, "any_rule": true, '
        '"witness_time": "3/16", "witness_point": [0, 0, 0], "oracle_verdict": false}\n',
    ),
    "dyadic": (
        ("dyadic", "4", "3", "2"),
        "vector: (4,3,2)\nexponent: 3\ndenominator: 128\nm: none\ntime: none\n",
    ),
    "dyadic-json": (
        ("dyadic", "4", "3", "2", "--json"),
        '{"vector": [4, 3, 2], "exponent": 3, "denominator": 128, "m": null, "time": null}\n',
    ),
}


@pytest.mark.parametrize("argv,expected", NON_INSTANCE.values(), ids=NON_INSTANCE.keys())
def test_golden_stdout_non_instance(monkeypatch, capsys, argv, expected):
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: iter([]))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
    assert err == ""
