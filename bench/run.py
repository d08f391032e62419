"""Seeded benchmark of the lonely-runner CLI, end to end and per layer.

    python3 bench/run.py --workload census_rules --seed 1 --seconds 30 --trace 0

Runs one workload (see bench/README.md) in a fresh worker process, as a
closed loop with one operation in flight, for about ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs once untraced and then with every layer's public functions wrapped
in spans, and reports the per-layer metrics.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller run record (environment, input sizes, sample counts, quartiles
of every metric, failure reasons) goes to ``.bench_out/``.

Every time the benchmark reports is in reference seconds: each measured
time is scaled by how fast the machine ran a fixed probe inside and
right after it (``PROBE_REF_S`` over the probes' mean time; see
bench/README.md).  On a shared host the machine's speed moves by tens
of percent within a second and from minute to minute, and the probe
moves with it.

Exit codes: 0 when every output is correct, 1 when an output is wrong,
2 when the benchmark itself cannot run (no ``src/lonely_runner``, or a
worker that crashes or overruns).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("census_rules", "census_oracle", "vectors_large")
DEFAULT_SEED = 1
SETUP_SAMPLES = 15  # setup-only workers, plus the measuring worker's own setup
TOTAL_LIMIT_S = 170.0  # the whole run, set-up workers included
# Reported times are scaled to a machine on which worker.speed_probe()
# takes this long (about its mean on the baseline's 2-vCPU VM).
PROBE_REF_S = 0.005

END_TO_END = {
    "wall_s": "s",
    "vectors_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "enumeration.calls": "count",
    "enumeration.self_s": "s",
    "enumeration.vectors_visited": "count",
    "enumeration.visits_per_vector": "visits/vector",
    "enumeration.export_s": "s",
    "classify.calls": "count",
    "classify.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.calls_per_vector": "calls/vector",
    "dyadic.calls": "count",
    "dyadic.self_s": "s",
    "polyhedron.calls": "count",
    "polyhedron.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.correction_s": "s",
    "trace.attributed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _worker(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        mode,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the worker")
    # A session of its own, so that on timeout the worker and any child it
    # forked are stopped together.
    worker = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = worker.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise BenchError(f"worker ({mode}) did not finish within {remaining:.0f} s") from None
    if worker.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {worker.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker ({mode}) printed nothing")
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    """Sample count, median and quartiles (linear interpolation)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the speed probe took ``probe_s``, in reference seconds."""
    return seconds * PROBE_REF_S / probe_s


def _end_to_end(result: dict, setup: list[float]) -> dict:
    ops = [op for p in result["passes"] for op in p["ops"]]
    completed_ms = [_scaled(op[0], op[3]) * 1000 for op in ops if op[1] == "ok"]
    attempted = len(ops)
    ok = len(completed_ms)
    # Completed ops only, as in worker.py's _Harness.run_pass.
    walls = [sum(_scaled(op[0], op[3]) for op in p["ops"] if op[1] == "ok") for p in result["passes"]]
    rates = [p["decided"] / wall if wall else 0.0 for p, wall in zip(result["passes"], walls)]
    op_stats = _summary(completed_ms) if completed_ms else {"n": 0, "q1": 0.0, "median": 0.0, "q3": 0.0}
    p90 = _p90(completed_ms) if completed_ms else 0.0
    rss_mb = result["peak_rss_kb"] / 1024
    metrics = {
        "wall_s": _summary(walls),
        "vectors_per_s": _summary(rates),
        "op_p50_ms": op_stats,
        "op_p90_ms": {"n": op_stats["n"], "q1": p90, "median": p90, "q3": p90},
        "peak_rss_mb": {"n": 1, "q1": rss_mb, "median": rss_mb, "q3": rss_mb},
        "ok_frac": {"n": attempted, "q1": ok / attempted, "median": ok / attempted, "q3": ok / attempted},
        "setup_s": _summary(setup),
    }
    return metrics


def _per_layer(result: dict, scale: float) -> dict:
    passes = result["layer_passes"]
    return {
        name: _summary([p[name] * scale if name.endswith("_s") else p[name] for p in passes]) for name in passes[0]
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lonely_runner" / "cli.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'lonely_runner'} is missing", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + TOTAL_LIMIT_S
    try:
        setup_workers = [_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = _worker(args, "run", deadline)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setup = [_scaled(w["setup_s"], statistics.fmean(w["setup_probes"])) for w in setup_workers + [result]]
    probes = result["probes"]
    # Per-layer times come from whole passes; they are scaled by the run's mean probe.
    scale = _scaled(1.0, statistics.fmean(probes))

    ops = [op for p in result["passes"] for op in p["ops"]]
    failures = Counter(op[1] for op in ops if op[1] != "ok")
    attempted, failed = len(ops), sum(failures.values())
    correct = failures["wrong"] == 0 and not result["problems"]
    stats = _per_layer(result, scale) if args.trace else _end_to_end(result, setup)
    declared = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "inputs": result["inputs"],
        "samples": {
            "setup": len(setup),
            "passes": len(result["passes"]),
            "ops_attempted": attempted,
            "ops_completed": attempted - failed,
        },
        "probe_s": {**_summary(probes), "values": probes},
        "unscaled_pass_s": [p["wall_s"] for p in result["passes"]],
        "failed_frac": failed / attempted,
        "failures": dict(failures),
        "metrics": {name: {"unit": declared[name], **s} for name, s in stats.items()},
        "problems": result["problems"][:50],
    }
    for key in ("functions", "spans", "span_file", "wrapper_cost_ns"):
        if key in result:
            record[key] = result[key]
    record_path = OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in result["problems"][:20]:
        print(f"bench: WRONG {problem}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed "
        f"{dict(failures)}, {len(result['passes'])} passes; record in {record_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
