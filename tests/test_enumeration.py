import csv
import hashlib
import itertools
import json
import os
import time
from fractions import Fraction

import pytest

from helpers import (
    brute_dyadic_m,
    census_records,
    coprime_count_brute,
    descending_subsets,
    fresh_peak,
    record_tally,
    reference_record_file,
    reference_witnesses,
    scaled_suitable_set,
)
from lonely_runner import enumeration, oracle
from lonely_runner.classify import _rules, classify
from lonely_runner.dyadic import dyadic_denominator, find_dyadic_time
from lonely_runner.enumeration import (
    EnumerationSummary,
    coprime_count_moebius,
    sweep,
)
from lonely_runner.model import SpeedVector

MOEBIUS_PREFIX = [1, 2, 5, 11, 26, 53, 116, 236, 488, 983, 2006, 4016]


def test_moebius_count_frozen_prefix():
    assert [coprime_count_moebius(i) for i in range(1, 13)] == MOEBIUS_PREFIX


def test_moebius_count_desk_scale():
    assert coprime_count_moebius(32) == 4294900694


@pytest.mark.parametrize("max_speed", range(1, 11))
def test_moebius_count_matches_brute(max_speed):
    assert coprime_count_moebius(max_speed) == coprime_count_brute(max_speed)


def test_moebius_count_sums_to_all_subsets():
    # A nonempty subset of {1..N} with gcd d is d times a coprime subset
    # of {1..N // d}, so the coprime counts sum back to every subset.
    for max_speed in range(1, 63):
        total = sum(coprime_count_moebius(max_speed // d) for d in range(1, max_speed + 1))
        assert total == (1 << max_speed) - 1, max_speed


def test_record_budget_is_the_bound_n_at_most_24():
    # sweep checks the budget of 2^24 records as max_speed <= 24, with or
    # without require_coprime; this is the count fact that bound rests on.
    for max_speed in range(1, 63):
        assert ((1 << max_speed) - 1 <= 1 << 24) == (max_speed <= 24), max_speed
        assert (coprime_count_moebius(max_speed) <= 1 << 24) == (max_speed <= 24), max_speed


def test_coprime_rule_counts_sum_to_all_rule_counts():
    # The rules are homogeneous in the speeds, so each rule count over all
    # subsets of {1..N} sums the coprime counts at N // d over every d.
    columns = ("thm1_count", "thm2_count", "slow_fast_count", "any_rule_count")
    for max_speed in [*range(1, 25), 32, 40, 48, 56, 62]:
        coprime = [sweep(max_speed // d, require_coprime=True) for d in range(1, max_speed + 1)]
        everything = sweep(max_speed)
        for column in columns:
            assert getattr(everything, column) == sum(getattr(c, column) for c in coprime), (max_speed, column)


def test_moebius_count_domain():
    with pytest.raises(ValueError):
        coprime_count_moebius(0)
    with pytest.raises(ValueError):
        coprime_count_moebius(63)


def test_sweep_frozen_small():
    assert sweep(4)._asdict() == {
        "max_speed": 4,
        "total_vectors": 15,
        "coprime_vectors": 11,
        "thm1_count": 0,
        "thm2_count": 8,
        "slow_fast_count": 11,
        "any_rule_count": 12,
        "oracle_instance_count": None,
        "dyadic_verified_count": None,
    }
    assert sweep(6)._asdict() == {
        "max_speed": 6,
        "total_vectors": 63,
        "coprime_vectors": 53,
        "thm1_count": 1,
        "thm2_count": 38,
        "slow_fast_count": 35,
        "any_rule_count": 45,
        "oracle_instance_count": None,
        "dyadic_verified_count": None,
    }


def test_sweep_matches_independent_recount():
    summary = sweep(7)
    thm1 = thm2 = slow = any_rule = 0
    for speeds in descending_subsets(7):
        report = classify(speeds)
        a, b, c = report.thm1, report.thm2, report.slow_fast
        thm1 += a
        thm2 += b
        slow += c
        any_rule += a or b or c
    assert summary.total_vectors == 127
    assert summary.coprime_vectors == coprime_count_brute(7)
    assert (summary.thm1_count, summary.thm2_count, summary.slow_fast_count) == (thm1, thm2, slow)
    assert summary.any_rule_count == any_rule


def test_sweep_domain_checks(monkeypatch, tmp_path):
    with pytest.raises(ValueError):
        sweep(0)
    with pytest.raises(ValueError):
        sweep(63)
    # A looser bound would start a loop of 2^33 or 2^25 masks: the census fails the test instead.
    monkeypatch.setattr(enumeration, "_census", lambda *args: pytest.fail("max_speed is checked first"))
    with pytest.raises(ValueError):
        sweep(33, with_oracle=True)
    out = tmp_path / "r.csv"
    with pytest.raises(ValueError):
        sweep(25, out=out)
    assert not out.exists()


@pytest.mark.parametrize("require_coprime", [False, True])
@pytest.mark.parametrize("max_speed", range(1, 17))
def test_closed_form_sweep_matches_mask_loop(max_speed, require_coprime):
    assert record_tally(max_speed, require_coprime) == sweep(max_speed, require_coprime=require_coprime)


def test_closed_form_gives_the_n20_coprime_census():
    # The census_rules workload of the benchmark prints these counts.
    closed = sweep(20, require_coprime=True)
    assert closed.total_vectors == 1048575
    assert closed.coprime_vectors == 1047479
    counts = (closed.thm1_count, closed.thm2_count, closed.slow_fast_count, closed.any_rule_count)
    assert counts == (2686, 436220, 428275, 437288)
    # The bench's oracle census stops at N = 14; this runs the witness tables on 2^20 - 1 masks,
    # and the dyadic fallback through find_dyadic_time on 1,247 of them.
    start = time.perf_counter()
    census = sweep(20, require_coprime=True, with_oracle=True, with_dyadic=True)
    assert time.perf_counter() - start < 120
    assert census == closed._replace(oracle_instance_count=1047479, dyadic_verified_count=1047479)


def test_closed_form_gives_the_n62_census():
    # Frozen from the earlier census, which counted each pattern of extremes by calling the rules.
    start = time.perf_counter()
    closed = sweep(62, require_coprime=True)
    assert closed.total_vectors == (1 << 62) - 1
    assert closed.coprime_vectors == 4611686016278852387
    counts = (closed.thm1_count, closed.thm2_count, closed.slow_fast_count, closed.any_rule_count)
    assert counts == (3165720747385, 1843783819799845093, 1827095605651328488, 1843783820235711460)
    everything = sweep(62)
    assert time.perf_counter() - start < 10
    counts = (everything.thm1_count, everything.thm2_count, everything.slow_fast_count, everything.any_rule_count)
    assert counts == (3165721037468, 1843783820662627937, 1827095606504829732, 1843783821098524160)


def extremes_patterns(max_top):
    """(n1, n2, n3, nk, k) for every subset of {1..max_top}, as _rules reads it.

    A missing n_2 or n_3 repeats n_k, and the test hands _rules only the
    first k of n1, n2, n3; k >= 4 ranges over every size that
    fits k - 4 speeds strictly between n_3 and n_k.
    """
    for n1 in range(1, max_top + 1):
        yield n1, n1, n1, n1, 1
        for n2 in range(1, n1):
            yield n1, n2, n2, n2, 2
            for n3 in range(1, n2):
                yield n1, n2, n3, n3, 3
                for nk in range(1, n3):
                    for k in range(4, n3 - nk + 4):
                        yield n1, n2, n3, nk, k


def test_rule_thresholds_match_the_rules():
    # The closed-form census counts each rule as a threshold in one speed;
    # _rules, which the records call, is the definition they must agree with.
    for n1, n2, n3, nk, k in extremes_patterns(24):
        modular = nk <= n1 % ((k + 1) * nk) <= k * nk
        thresholds = (
            k >= 4 and n3 <= k * nk * n2 // (n2 + (k + 1) * nk),
            k >= 2 and n2 <= k * nk and modular,
            n1 <= k * nk,
        )
        assert _rules((n1, n2, n3)[:k], nk, k)[:3] == thresholds, (n1, n2, n3, nk, k)


def test_sweep_require_coprime_counts():
    for max_speed in (6, 9, 12):
        summary = sweep(max_speed, require_coprime=True)
        assert summary.coprime_vectors == coprime_count_moebius(max_speed)
        assert summary.total_vectors == (1 << max_speed) - 1
        assert summary.any_rule_count <= summary.coprime_vectors


def test_sweep_oracle_and_dyadic_counts():
    # Every vector at this scale is an instance and every instance here
    # has a dyadic witness, so the optional counts equal the number of
    # classified vectors.
    summary = sweep(6, with_oracle=True, with_dyadic=True)
    assert summary.oracle_instance_count == 63
    assert summary.dyadic_verified_count == 63
    summary = sweep(6, require_coprime=True, with_oracle=True, with_dyadic=True)
    assert summary.oracle_instance_count == 53
    assert summary.dyadic_verified_count == 53


def test_summary_holds_only_the_counts():
    assert list(sweep(5)._asdict()) == [
        "max_speed",
        "total_vectors",
        "coprime_vectors",
        "thm1_count",
        "thm2_count",
        "slow_fast_count",
        "any_rule_count",
        "oracle_instance_count",
        "dyadic_verified_count",
    ]


def test_census_records_order_and_fields():
    records = census_records(3)
    assert [r["speeds"] for r in records] == [[1], [2], [2, 1], [3], [3, 1], [3, 2], [3, 2, 1]]
    assert [r["coprime"] for r in records] == [True, False, True, False, True, True, True]
    assert all(r["is_instance"] is None and r["earliest_time"] is None and r["dyadic_m"] is None for r in records)
    coprime_only = census_records(3, require_coprime=True)
    assert [r["speeds"] for r in coprime_only] == [[1], [2, 1], [3, 1], [3, 2], [3, 2, 1]]


def test_census_records_with_oracle_and_dyadic():
    records = census_records(4, with_oracle=True, with_dyadic=True)
    assert all(r["is_instance"] for r in records)
    assert all(r["dyadic_m"] is not None for r in records)
    by_speeds = {tuple(r["speeds"]): r for r in records}
    assert by_speeds[(4, 3, 2)]["earliest_time"] == "1/8"
    assert by_speeds[(4, 3, 2)]["dyadic_m"] == 16


def test_shared_sweep_matches_separate_paths():
    # The census reads the earliest time and the dyadic hit off its witness
    # tables, and calls find_dyadic_time only for a single-point first
    # interval off the grid.  The independent arc intersection gives the
    # earliest time, find_dyadic_time gives the hit, and on N = 7 so does
    # the literal grid loop.
    records = census_records(10, with_oracle=True, with_dyadic=True)
    assert len(records) == 1023
    for record in records:
        n = SpeedVector(record["speeds"])
        den, arcs = scaled_suitable_set(n)
        assert record["is_instance"] and Fraction(record["earliest_time"]) == Fraction(arcs[0][0], den)
        assert record["dyadic_m"] == find_dyadic_time(n)
        if n[0] <= 7:
            grid = dyadic_denominator(n)
            assert record["dyadic_m"] == brute_dyadic_m(n, grid, grid)


@pytest.mark.parametrize("max_speed", range(1, 13))
def test_witness_tables_hold_suitable_times(max_speed):
    # Each entry is a reduced time in (0, 1/2], ascending; a speed in fit is
    # suitable there beside k - 1 others from fit, a speed outside it is not,
    # and a tight speed sits at the top of its good window.
    for k in range(1, max_speed + 1):
        table = enumeration._witnesses(max_speed, k)
        times = [Fraction(a, b) for a, b, _, _ in table]
        assert [(t.numerator, t.denominator) for t in times] == [(a, b) for a, b, _, _ in table]
        assert times == sorted(set(times)) and 0 < times[0] and times[-1] <= Fraction(1, 2)
        for t, (_, _, fit, tight) in zip(times, table):
            fitting = [s for s in range(1, max_speed + 1) if fit >> (s - 1) & 1]
            assert len(fitting) >= k and tight & fit == tight
            for s in range(1, max_speed + 1):
                others = [x for x in fitting if x != s][: k - 1]
                assert oracle.is_suitable([s, *others], t) == (s in fitting), (k, t, s)
                assert (tight >> (s - 1) & 1) == (s * t * (k + 1) % (k + 1) == k), (k, t, s)


@pytest.mark.parametrize("max_speed", range(1, 21))
def test_witness_tables_match_the_fraction_reference(max_speed):
    # The tables rank their ends by an integer key over a common denominator;
    # the reference sorts Fractions and tests each speed by the definition.
    for k in range(1, max_speed + 1):
        assert enumeration._witnesses(max_speed, k) == reference_witnesses(max_speed, k), k


@pytest.mark.parametrize("max_speed", [*range(1, 13), 16])
def test_witness_census_matches_the_oracle(max_speed):
    # Every mask: the table's first match is the sweep's earliest time and
    # gives the dyadic search's hit, and the coprime census is its sub-list.
    records = census_records(max_speed, with_oracle=True, with_dyadic=True)
    assert len(records) == (1 << max_speed) - 1
    for record in records:
        n = record["speeds"]
        assert record["is_instance"] and Fraction(record["earliest_time"]) == oracle.earliest_suitable_time(n)
        assert record["dyadic_m"] == find_dyadic_time(n)
    coprime = census_records(max_speed, require_coprime=True, with_oracle=True, with_dyadic=True)
    assert coprime == [record for record in records if record["coprime"]]


@pytest.mark.parametrize("max_speed", [10, 14])
def test_witness_census_falls_back_to_the_sweep(monkeypatch, max_speed):
    # The census searches the grid from scratch only when the first suitable
    # interval is a single point a/b off the grid, a D / b not an integer:
    # 1 vector at N = 10 and 43 at N = 14, derived here from the sweep alone.
    # At N = 10 it is (10, 9, 6, 2), [2/15, 2/15] off its grid of denominator
    # 1600, whose search runs on to m = 392.
    expected = []
    for mask in range(1, 1 << max_speed):
        speeds = tuple(s for s in range(max_speed, 0, -1) if mask >> (s - 1) & 1)
        first = next(oracle._sweep(speeds), None)
        if first is not None:
            lo_num, lo_den, hi_num, hi_den = first
            if lo_num * hi_den == hi_num * lo_den and lo_num * dyadic_denominator(speeds) % lo_den:
                expected.append(speeds)
    assert len(expected) == {10: 1, 14: 43}[max_speed]
    sweeps = []
    original = oracle._sweep
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: sweeps.append(tuple(speeds)) or original(speeds))
    records = census_records(max_speed, with_oracle=True, with_dyadic=True)
    assert sweeps == expected
    (record,) = [r for r in records if r["speeds"] == [10, 9, 6, 2]]
    assert (record["earliest_time"], record["dyadic_m"]) == ("2/15", 392)
    assert find_dyadic_time((10, 9, 6, 2)) == 392 and dyadic_denominator((10, 9, 6, 2)) == 1600


def test_record_serialization(tmp_path):
    # (4, 3, 2) is mask 0b1110, the second-to-last of the 15 records at N = 4.
    path = tmp_path / "records.csv"
    sweep(4, out=path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[-2] == ["4;3;2", "3", "1", "0", "1", "1", "1", "", "", ""]
    path = tmp_path / "records.json"
    sweep(4, out=path, fmt="json")
    assert json.loads(path.read_text())[-2] == {
        "speeds": [4, 3, 2],
        "k": 3,
        "coprime": True,
        "thm1": False,
        "thm2": True,
        "slow_fast": True,
        "any_rule": True,
        "is_instance": None,
        "earliest_time": None,
        "dyadic_m": None,
    }


def test_export_summary_json_roundtrip():
    summary = sweep(6, with_oracle=True)
    assert EnumerationSummary(**json.loads(json.dumps(summary._asdict()))) == summary


def test_export_records_csv(tmp_path):
    path = tmp_path / "records.csv"
    sweep(4, out=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "speeds,k,coprime,thm1,thm2,slow_fast,any_rule,is_instance,earliest_time,dyadic_m"
    assert len(lines) == 1 + 15


def test_export_records_json_stream(tmp_path):
    path = tmp_path / "records.json"
    sweep(3, out=path, fmt="json")
    data = json.loads(path.read_text())
    assert len(data) == 7
    assert data[0]["speeds"] == [1]


FLAG_SETS = [
    dict(zip(("require_coprime", "with_oracle", "with_dyadic"), bits))
    for bits in itertools.product((False, True), repeat=3)
]
COLUMN_COUNTS = {
    "coprime": "coprime_vectors",
    "thm1": "thm1_count",
    "thm2": "thm2_count",
    "slow_fast": "slow_fast_count",
    "any_rule": "any_rule_count",
    "is_instance": "oracle_instance_count",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda flags: "-".join(k for k, on in flags.items() if on) or "rules")
def test_export_returns_the_summary_of_its_pass(tmp_path, fmt, flags):
    path = tmp_path / f"records.{fmt}"
    summary = sweep(6, **flags, out=path, fmt=fmt)
    assert summary == sweep(6, **flags)
    if fmt == "csv":
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        on, found = (lambda value: value == "1"), (lambda value: value != "")
    else:
        rows = json.loads(path.read_text())
        on, found = (lambda value: value is True), (lambda value: value is not None)
    assert len(rows) == (summary.coprime_vectors if flags["require_coprime"] else summary.total_vectors)
    for column, key in COLUMN_COUNTS.items():
        assert sum(on(row[column]) for row in rows) == (getattr(summary, key) or 0), column
    assert sum(found(row["dyadic_m"]) for row in rows) == (summary.dyadic_verified_count or 0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda flags: "-".join(k for k, on in flags.items() if on) or "rules")
def test_export_matches_the_reference_writer(tmp_path, fmt, flags):
    # A second route for the bytes: csv.writer or json.dumps over the public verdict functions.
    path = tmp_path / f"records.{fmt}"
    for max_speed in range(1, 9):
        sweep(max_speed, **flags, out=path, fmt=fmt)
        assert path.read_bytes() == reference_record_file(max_speed, fmt=fmt, **flags), max_speed


# sha256 of the N = 14 record files with the oracle and dyadic passes on, and their sizes in bytes.
N14_RECORD_FILES = {
    "csv": (665_284, "b31ac38a5a2b0b2eae07e99107f2b9af356b28047ccf91fd7d6e0426e7363a17"),
    "json": (3_166_748, "9674f89d2efc2a0ecd55689b7269475c29e8160e73ec9070af257254a1386090"),
}
# The same at N = 15, where the low half of the mask (speeds 1..7) is the smaller one: the coprime
# census with both passes as CSV, and the rules-only records as JSON.
N15_RECORD_FILES = {
    "csv": (1_379_120, "fdb5edff71affc1424235479667813d80e428db49094d933ff9c479a7b4174d1"),
    "json": (6_369_421, "7661043c095d81e3a8ce3a953a561a1de1800b939ec06216fc44028f5438c763"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_n14_record_file_frozen(tmp_path, fmt):
    # The reference writer stops at N = 8; these bytes pin every N = 14 record.
    path = tmp_path / f"records.{fmt}"
    sweep(14, with_oracle=True, with_dyadic=True, out=path, fmt=fmt)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == N14_RECORD_FILES[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_n15_record_file_frozen(tmp_path, fmt):
    path = tmp_path / f"records.{fmt}"
    if fmt == "csv":
        sweep(15, require_coprime=True, with_oracle=True, with_dyadic=True, out=path, fmt=fmt)
    else:
        sweep(15, out=path, fmt=fmt)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == N15_RECORD_FILES[fmt]


def test_census_loop_holds_no_vector_past_its_turn():
    # The loop keeps the witness tables (about 44 KB at N = 14), a few
    # tables over the 128 low halves and, per high half, the witness
    # entries it scans, as references.  Without a record file a row builds
    # no tuple, and what a high half builds is freed by reference counting
    # as the loop moves on; tuples left to the cyclic collector would pile
    # up to about 1 MB.  The warm-up call fills the caches that the first
    # call of a process allocates.
    setup = "from lonely_runner.enumeration import sweep\nsweep(6, with_oracle=True)"
    assert fresh_peak(setup, "sweep(14, with_oracle=True)") < 64 * 2**10


def test_record_file_is_written_one_high_half_at_a_time(tmp_path):
    # The N = 16 CSV file is about 2.9 MB.  The loop holds its tables and
    # the rows of one high half, 256 of them, and writes them as one chunk,
    # so the peak reads about 175 KB on Python 3.10 to 3.13, the witness
    # tables 67 KB of it; a writer that buffered the file would pass 3 MB.
    args = f"with_oracle=True, with_dyadic=True, out={str(tmp_path / 'records.csv')!r}"
    setup = f"from lonely_runner.enumeration import sweep\nsweep(6, {args})"
    assert fresh_peak(setup, f"sweep(16, {args})") < 256 * 2**10


def test_json_record_file_is_written_one_high_half_at_a_time(tmp_path):
    # The N = 16 JSON file is about 13 MB, and its rows are about four
    # times as long as the CSV ones, so one high half's chunk is too.  The
    # peak reads about 300 KB on Python 3.10 to 3.13; a writer that
    # buffered the file would pass 13 MB.
    args = f"with_oracle=True, with_dyadic=True, out={str(tmp_path / 'records.json')!r}, fmt='json'"
    setup = f"from lonely_runner.enumeration import sweep\nsweep(6, {args})"
    assert fresh_peak(setup, f"sweep(16, {args})") < 384 * 2**10


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_writes_non_instance_records(tmp_path, monkeypatch, fmt):
    # Every small vector is an instance, so the witness tables are patched
    # to hold no entry and the sweep to yield nothing.
    monkeypatch.setattr(enumeration, "_witnesses", lambda max_speed, k: [])
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: iter([]))
    path = tmp_path / f"records.{fmt}"
    summary = sweep(4, with_oracle=True, with_dyadic=True, out=path, fmt=fmt)
    assert (summary.oracle_instance_count, summary.dyadic_verified_count) == (0, 0)
    data = path.read_bytes()
    assert data == reference_record_file(4, False, True, True, fmt)
    if fmt == "csv":
        rows = data.splitlines(keepends=True)[1:]
        assert len(rows) == 15 and all(row.endswith(b",0,,\r\n") for row in rows)
    else:
        assert data.count(b'"is_instance": false, "earliest_time": null, "dyadic_m": null}') == 15


def test_export_rejects_bad_format(tmp_path):
    # A format that is no string, hashable or not, gets the same error as a bad name.
    path = tmp_path / "records.xml"
    for fmt in ["xml", [], {}, 1]:
        with pytest.raises(ValueError, match="format must be 'csv' or 'json'"):
            sweep(4, out=path, fmt=fmt)
        assert not path.exists()


def test_export_wraps_os_errors(tmp_path):
    with pytest.raises(OSError, match="cannot write"):
        sweep(3, out=tmp_path / "missing-dir" / "out.json", fmt="json")
    if os.path.exists("/dev/full"):  # it opens, and then every write fails, as on a full disk
        with pytest.raises(OSError, match="cannot write"):
            sweep(10, out="/dev/full")


def test_sweep_checks_max_speed(tmp_path):
    path = tmp_path / "records.csv"
    with pytest.raises(ValueError, match="max_speed"):
        sweep(0, out=path)
    assert not path.exists()


@pytest.mark.parametrize("max_speed", [True, False, 3.0, 5.0, Fraction(4), "4", None], ids=repr)
def test_census_refuses_a_max_speed_that_is_not_an_int(tmp_path, max_speed):
    path = tmp_path / "records.csv"
    with pytest.raises(ValueError, match="max_speed must be an int"):
        sweep(max_speed, out=path)
    assert not path.exists()
    with pytest.raises(ValueError, match="max_speed must be an int"):
        sweep(max_speed)
    with pytest.raises(ValueError, match="max_speed must be an int"):
        coprime_count_moebius(max_speed)


def test_sweep_checks_max_speed_at_the_call(tmp_path):
    # max_speed is checked first, then the format, before the file is opened.
    path = tmp_path / "records.csv"
    with pytest.raises(ValueError, match="max_speed"):
        sweep(40, out=path, fmt="xml")
    assert not path.exists()
