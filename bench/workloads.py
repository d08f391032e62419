"""The benchmark's workloads: the CLI operations each one runs, and output checks.

An operation (``Op``) is one ``lonely_runner.cli.main(argv)`` call.  A
pass runs a workload's operations once, in order.  Census inputs are the
full subset space of {1..N} and do not depend on the seed; the
``vectors_large`` speed vectors are drawn from the seed.

Checks run outside the timed region.  Each returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

# Bound by name at import, so the checks keep calling the original
# functions while the tracer has wrapped the module attributes.
from lonely_runner.enumeration import coprime_count_moebius
from lonely_runner.model import SpeedVector
from lonely_runner.oracle import is_suitable
from lonely_runner.polyhedron import contains

WORKLOADS = ("census_rules", "census_oracle", "vectors_large")

# Summaries printed by the seed code.  They are facts about {1..N}, so
# every correct version of the program prints them for every seed.
CENSUS = {
    "census_rules": (
        ["enumerate", "20", "--require-coprime"],
        {
            "max_speed": 20,
            "total_vectors": 1048575,
            "coprime_vectors": 1047479,
            "thm1_count": 2686,
            "thm2_count": 436220,
            "slow_fast_count": 428275,
            "any_rule_count": 437288,
            "oracle_instance_count": None,
            "dyadic_verified_count": None,
        },
    ),
    "census_oracle": (
        ["enumerate", "14", "--with-oracle", "--with-dyadic"],
        {
            "max_speed": 14,
            "total_vectors": 16383,
            "coprime_vectors": 16238,
            "thm1_count": 239,
            "thm2_count": 7193,
            "slow_fast_count": 6812,
            "any_rule_count": 7345,
            "oracle_instance_count": 16383,
            "dyadic_verified_count": 16383,
        },
    ),
}

# (k, speed tier, vectors per pass).  Every speed of a vector is drawn
# from [0.9 * tier, tier], so ops of one kind and tier cost about the
# same whatever the seed.  Op latencies form clusters by kind and tier;
# the 1e3 counts put the median op inside the cluster of k=7 1e3
# dyadic/classify and k=3 1e3 check ops (~6-18 ms), and the 90th
# percentile inside the cluster of k=7 1e3 checks (~25-45 ms), not on
# the edge between two clusters, where it would jump from seed to seed.
# The 1e9 vector cannot be decided by the seed's materialised-arc
# oracle: its oracle-backed ops are expected to fail against the budget.
# Ops on vectors of ISOLATED_TIER or above run in a forked child, so that
# one that fills the memory cap does not set the measured memory peak.
ISOLATED_TIER = 10**9
VECTOR_TIERS = (
    (3, 10**3, 16),
    (7, 10**3, 40),
    (3, 10**4, 2),
    (7, 10**4, 2),
    (3, 10**5, 1),
    (7, 10**5, 1),
    (3, 10**9, 1),
)
VECTOR_COMMANDS = (("check",), ("dyadic",), ("classify", "--with-oracle"), ("polytope",))


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``key`` identifies it in expected.json."""

    argv: tuple[str, ...]
    key: str
    vector: int  # index into Workload.vectors, or -1 for a census op
    out_path: str | None = None
    isolated: bool = False  # run in a forked child (see ISOLATED_TIER)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    vectors: tuple[SpeedVector, ...]
    vectors_per_pass: int  # vectors a pass decides when every op succeeds


def build(name: str, seed: int, tmp_dir: str) -> Workload:
    """Generate a workload's operations; the same seed gives the same ops."""
    if name in CENSUS:
        argv, summary = CENSUS[name]
        out_path = None
        if name == "census_oracle":
            out_path = f"{tmp_dir}/census_oracle.csv"
            argv = argv + ["--out", out_path]
        key = " ".join(CENSUS[name][0])
        return Workload(name, (Op(tuple(argv), key, -1, out_path),), (), summary["total_vectors"])
    if name != "vectors_large":
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    vectors, tiers = [], []
    for k, tier, count in VECTOR_TIERS:
        for _ in range(count):
            speeds = rng.sample(range(tier - tier // 10, tier + 1), k)
            vectors.append(SpeedVector(tuple(sorted(speeds, reverse=True))))
            tiers.append(tier)
    ops = []
    for index, (n, tier) in enumerate(zip(vectors, tiers)):
        speeds = [str(s) for s in n]
        for command in VECTOR_COMMANDS:
            argv = (command[0], *speeds, *command[1:])
            ops.append(Op(argv, " ".join(argv), index, isolated=tier >= ISOLATED_TIER))
    return Workload(name, tuple(ops), tuple(vectors), len(vectors))


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines())


def _opt_fraction(text: str) -> Fraction | None:
    return None if text == "none" else Fraction(text)


def _opt_point(text: str) -> tuple[int, ...] | None:
    return None if text == "none" else tuple(int(c) for c in text.strip("()").split(","))


def _census_problems(workload: Workload, op: Op, stdout: str) -> list[str]:
    expected = CENSUS[workload.name][1]
    got = {key: None if value == "none" else int(value) for key, value in _fields(stdout).items()}
    problems = [f"{key}: got {got.get(key)}, expected {value}" for key, value in expected.items() if got.get(key) != value]
    moebius = coprime_count_moebius(expected["max_speed"])
    if got.get("coprime_vectors") != moebius:
        problems.append(f"coprime_vectors {got.get('coprime_vectors')} != coprime_count_moebius {moebius}")
    if op.out_path is None:
        return problems
    with open(op.out_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    column_sums = {
        "coprime_vectors": "coprime",
        "thm1_count": "thm1",
        "thm2_count": "thm2",
        "slow_fast_count": "slow_fast",
        "any_rule_count": "any_rule",
        "oracle_instance_count": "is_instance",
    }
    if len(rows) != got.get("total_vectors"):
        problems.append(f"csv has {len(rows)} rows, summary says {got.get('total_vectors')}")
    for key, column in column_sums.items():
        total = sum(row[column] == "1" for row in rows)
        if total != got.get(key):
            problems.append(f"csv column {column} sums to {total}, summary {key} is {got.get(key)}")
    dyadic_found = sum(row["dyadic_m"] != "" for row in rows)
    if dyadic_found != got.get("dyadic_verified_count"):
        problems.append(f"csv has {dyadic_found} dyadic_m values, summary says {got.get('dyadic_verified_count')}")
    return problems


def _witness_problems(n: SpeedVector, label: str, t: Fraction | None, point: tuple[int, ...] | None) -> list[str]:
    problems = []
    if t is not None and not is_suitable(n, t):
        problems.append(f"{label} time {t} is not suitable")
    if point is not None:
        if not contains(n, point):
            problems.append(f"{label} point {point} is not in P(n)")
        if t is not None and point != tuple(math.floor(s * t) for s in n):
            problems.append(f"{label} point {point} is not floor(n * {t})")
    return problems


_HALFPLANE = re.compile(r"halfplane: (\S+)\*x1 \+ (\S+)\*x2 <= (\S+)")
_VERTEX = re.compile(r"\(([^,]+), ([^)]+)\)")


def op_problems(workload: Workload, op: Op, stdout: str) -> tuple[list[str], dict]:
    """Problems with one op's output, and the facts later cross-checks need."""
    if op.vector < 0:
        return _census_problems(workload, op, stdout), {}
    n = workload.vectors[op.vector]
    command = op.argv[0]
    if command == "polytope":
        lines = stdout.splitlines()
        planes = [tuple(Fraction(x) for x in m.groups()) for m in map(_HALFPLANE.match, lines) if m]
        vertex_line = next((line for line in lines if line.startswith("vertices: ")), "")
        vertices = [(Fraction(a), Fraction(b)) for a, b in _VERTEX.findall(vertex_line)]
        problems = [] if lines and lines[0] == f"vector: {n}" else [f"polytope prints {lines[:1]}"]
        if len(planes) != 6:
            problems.append(f"polytope prints {len(planes)} half-planes, expected 6")
        for x1, x2 in vertices:
            if not all(a1 * x1 + a2 * x2 <= b for a1, a2, b in planes):
                problems.append(f"vertex ({x1}, {x2}) violates a half-plane")
            elif sum(a1 * x1 + a2 * x2 == b for a1, a2, b in planes) < 2:
                problems.append(f"vertex ({x1}, {x2}) lies on fewer than two half-planes")
        return problems, {}
    f = _fields(stdout)
    if f.get("vector") != str(n):
        return [f"{command} prints vector {f.get('vector')}, expected {n}"], {}
    if command == "check":
        instance = f["instance"] == "true"
        earliest = _opt_fraction(f["earliest_time"])
        half = _opt_fraction(f["half_period_witness"])
        point = _opt_point(f["lattice_witness"])
        problems = _witness_problems(n, "earliest", earliest, point)
        problems += _witness_problems(n, "half_period", half, None)
        if instance:
            if earliest is None or half is None or point is None or half > Fraction(1, 2):
                problems.append("instance without earliest time, half-period witness <= 1/2 and lattice witness")
            elif not f["suitable_set"].startswith(f"[{f['earliest_time']}, "):
                problems.append("suitable set does not start at the earliest time")
        elif (earliest, half, point, f["suitable_set"]) != (None, None, None, ""):
            problems.append("non-instance reports a witness or a suitable time")
        return problems, {"instance": instance, "earliest": earliest}
    if command == "dyadic":
        exponent = (n[0] - 1).bit_length() + 1
        denominator = (1 << exponent) * (n.k + 1) * n[0]
        problems = []
        if (int(f["exponent"]), int(f["denominator"])) != (exponent, denominator):
            problems.append(f"dyadic grid {f['exponent']}, {f['denominator']}; expected {exponent}, {denominator}")
        t = _opt_fraction(f["time"])
        if (f["m"] == "none") != (t is None) or (t is not None and (int(f["m"]) < 1 or t != Fraction(int(f["m"]), denominator))):
            problems.append(f"dyadic m {f['m']} does not give time {f['time']}")
        problems += _witness_problems(n, "dyadic", t, None)
        return problems, {"dyadic": t}
    # classify --with-oracle
    rules = {name: f[name] == "true" for name in ("thm1", "thm2", "slow_fast", "any_rule")}
    verdict = f["oracle_verdict"] == "true"
    t = _opt_fraction(f["witness_time"])
    point = _opt_point(f["witness_point"])
    problems = _witness_problems(n, "classify witness", t, point)
    if rules["any_rule"] != (rules["thm1"] or rules["thm2"] or rules["slow_fast"]):
        problems.append("any_rule is not the disjunction of the three rules")
    if rules["any_rule"] and not verdict:
        problems.append("a rule certifies the vector but the oracle rejects it")
    if rules["slow_fast"] and t != Fraction(n.k, (n.k + 1) * n[0]):
        problems.append(f"slow_fast witness time {t} is not k/((k+1) n_1)")
    return problems, {"verdict": verdict, "witness": t, "slow_fast": rules["slow_fast"]}


def vector_problems(facts: dict[str, dict]) -> list[str]:
    """Cross-checks between the ops of one vector that all succeeded."""
    problems = []
    check, dyadic, classify = facts.get("check"), facts.get("dyadic"), facts.get("classify")
    if check and classify:
        if classify["verdict"] != check["instance"]:
            problems.append("classify oracle_verdict disagrees with check instance")
        if check["instance"] and not classify["slow_fast"] and classify["witness"] != check["earliest"]:
            problems.append("classify witness time is not the earliest suitable time")
    if check and dyadic and dyadic["dyadic"] is not None and not check["instance"]:
        problems.append("dyadic finds a suitable time for a non-instance")
    return problems
