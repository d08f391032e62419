"""Measuring worker: one process that runs one workload against the library.

Started by run.py, never by hand:

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE MODE

MODE ``setup`` imports the library, builds the inputs and reports how
long that took.  MODE ``run`` then runs passes over the workload's
operations, one operation in flight, until SECONDS have passed, and
prints one JSON document of raw samples on stdout.

The process caps its own address space (RLIMIT_AS) and arms a timer
per operation, so an operation that would need more than the budget
fails fast at a repeatable memory level instead of exhausting the
machine.  A MemoryError inside the CLI surfaces as exit code 2.
Operations marked ``isolated`` (those expected to hit the cap) run in a
forked child under the same caps, so that a failed one leaves neither
its memory peak nor its spans in the measuring process.

After every operation, and every PROBE_EVERY_S of CPU time inside a
long one, the worker times a fixed piece of pure-Python work
(:func:`speed_probe`).  It reports each operation's time without the
probes inside it, together with the mean time of the probes inside and
right after it: run.py scales the operation's time by how fast the
machine ran those probes.
"""

# Only these modules load before the set-up clock starts: the harness's
# own, which the library does not import.  The others are imported where
# they are first used, so that setup_s counts every module the library
# itself pulls in.
import gc
import hashlib
import io
import os
import random  # noqa: F401  (loaded here for workloads.build, off the set-up clock)
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

MEMORY_CAP_BYTES = 256 << 20  # legitimate 1e5-speed ops peak near 120 MB of address space
OP_BUDGET_S = 30.0
# Traced runs stop adding passes beyond this many spans (22 bytes each),
# so the span arrays stay well inside the memory cap.
MAX_SPANS = 5_000_000
PROBE_EVERY_S = 0.2  # CPU time of an operation between two probes inside it
SETUP_PROBES = 3  # probes right after the set-up clock stops


class OverBudget(BaseException):
    """Raised by the per-op timer; not an Exception, so the CLI cannot swallow it."""


def _alarm(signum, frame):
    raise OverBudget


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, mode = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_dir = os.path.join(root, ".bench_out")

    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    try:
        started = time.perf_counter()
        sys.path.insert(0, os.path.join(root, "src"))
        from lonely_runner import cli

        import workloads

        workload = workloads.build(name, seed, tmp_dir)
        setup_s = time.perf_counter() - started
        result = {"setup_s": setup_s, "setup_probes": [speed_probe() for _ in range(SETUP_PROBES)]}
        if mode != "setup":
            result.update(_measure(cli, workloads, workload, seconds, trace, root, out_dir))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    import json

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def speed_probe() -> float:
    """Seconds that one fixed piece of pure-Python work takes right now.

    The work resembles the library's own: decoding bitmasks, gcd, tuples
    and dicts, exact fractions, a sort and string formatting.  It never
    calls the library, so a change to the program leaves it alone, while
    a machine that is busier or slower makes it slower with the program.
    About 5 ms on a 2-vCPU Xeon VM.  The garbage collector is paused
    while it runs, so that it neither pays for collecting the library's
    objects nor moves that work out of the operation it interrupts.
    """
    import math
    from fractions import Fraction

    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    counts: dict[int, int] = {}
    arcs = []
    total = Fraction(0)
    for mask in range(1, 120):
        speeds = []
        rest = mask
        while rest:
            low = rest & -rest
            speeds.append(low.bit_length())
            rest ^= low
        g = math.gcd(*speeds)
        counts[g] = counts.get(g, 0) + 1
        arcs.extend((Fraction(mask % 97, s + 1), s) for s in speeds)
        if mask % 16 == 0:
            total += Fraction(g, len(speeds) + 1)
    arcs.sort()
    ",".join(f"{a}/{b}" for a, b in arcs[:180])
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


class _Harness:
    """Runs ops, checks their outputs and compares stdout digests."""

    def __init__(self, cli, workloads, workload, expected: dict[str, str]) -> None:
        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.expected = expected
        self.first_digest: dict[int, str] = {}
        self.problems: list[str] = []
        self.tracer = None  # set while a traced pass runs
        self.child_peak_kb = 0  # memory peak of completed isolated ops
        self.probes: list[float] = []  # speed_probe() times, in run order
        self.probe_inside = True  # probe inside long ops too (off while tracing)

    def run_pass(self, label: str) -> dict:
        ops = []
        facts: dict[int, dict] = {}
        outcomes: dict[int, list[str]] = {}
        for index, op in enumerate(self.workload.ops):
            outcome, elapsed, stdout, probes = self._call_isolated(op) if op.isolated else self._call(op)
            probes.append(speed_probe())
            self.probes += probes
            if outcome == "ok":
                try:
                    problems, op_facts = self.workloads.op_problems(self.workload, op, stdout)
                except (ValueError, KeyError, IndexError) as exc:
                    problems, op_facts = [f"output does not parse: {exc!r}"], {}
                problems += self._digest_problems(index, op, stdout)
                if problems:
                    outcome = "wrong"
                    self.problems += [f"{label} `{op.key}`: {p}" for p in problems]
                facts.setdefault(op.vector, {})[op.argv[0]] = op_facts
            outcomes.setdefault(op.vector, []).append(outcome)
            ops.append([elapsed, outcome, len(stdout.encode()), statistics.fmean(probes)])
        decided = 0
        for vector, vector_outcomes in outcomes.items():
            if vector < 0:
                decided += self.workload.vectors_per_pass if vector_outcomes == ["ok"] else 0
                continue
            problems = self.workloads.vector_problems(facts.get(vector, {}))
            if problems:
                self.problems += [f"{label} vector {self.workload.vectors[vector]}: {p}" for p in problems]
                for op_record, op in zip(ops, self.workload.ops):
                    if op.vector == vector:
                        op_record[1] = "wrong"
            elif all(o == "ok" for o in vector_outcomes):
                decided += 1
        # A failed op's time says how fast it ran into the budget, not how
        # fast the program decides anything: only completed ops count.
        wall_s = sum(o[0] for o in ops if o[1] == "ok")
        return {"wall_s": wall_s, "decided": decided, "ops": ops}

    def _call(self, op) -> tuple[str, float, str, list[float]]:
        """Run one op in this process.

        Returns its outcome, its seconds less the probes run inside it,
        its stdout, and the times of those probes.
        """
        import signal  # the library imports it too: not before the set-up clock

        out, err = io.StringIO(), io.StringIO()
        outcome = "ok"
        inside: list[float] = []
        if self.probe_inside:
            signal.signal(signal.SIGVTALRM, lambda signum, frame: inside.append(speed_probe()))
            signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(op.argv))
            if code != 0:
                outcome = f"exit_{code}"
        except OverBudget:
            outcome = "timeout"
        except MemoryError:
            outcome = "memory"
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)  # first, so no probe lands after the clock stops
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        return outcome, elapsed - sum(inside), out.getvalue(), inside

    def _call_isolated(self, op) -> tuple[str, float, str, list[float]]:
        """Run one op in a forked child under the same caps, like :meth:`_call`.

        Only a completed op sends back its memory peak (for peak_rss_mb)
        and its spans.  The child inherits the caps; the timer is re-armed
        in it by :meth:`_call`.
        """
        import pickle  # the library imports it too: not before the set-up clock

        read_fd, write_fd = os.pipe()
        lo = self.tracer.span_count() if self.tracer else 0
        pid = os.fork()
        if pid == 0:  # child: never returns, never runs the parent's cleanup
            status = 1
            try:
                os.close(read_fd)
                outcome, elapsed, stdout, probes = self._call(op)
                reply = {"outcome": outcome, "elapsed": elapsed, "stdout": stdout, "probes": probes}
                if outcome == "ok":
                    reply["peak_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    if self.tracer:
                        reply["spans"] = self.tracer.spans_since(lo)
                        reply["visits"] = self.tracer.visits
                with os.fdopen(write_fd, "wb") as pipe:
                    pickle.dump(reply, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            return "child_crashed", 0.0, "", []
        reply = pickle.loads(data)
        if reply["outcome"] == "ok":
            self.child_peak_kb = max(self.child_peak_kb, reply["peak_kb"])
            if self.tracer:
                self.tracer.add_spans(reply["spans"])
                self.tracer.visits = reply["visits"]
        return reply["outcome"], reply["elapsed"], reply["stdout"], reply["probes"]

    def _digest_problems(self, index: int, op, stdout: str) -> list[str]:
        digests = {op.key: hashlib.sha256(stdout.encode()).hexdigest()}
        if op.out_path is not None:
            with open(op.out_path, "rb") as handle:
                digests["csv: " + op.key] = hashlib.sha256(handle.read()).hexdigest()
        problems = []
        combined = " ".join(digests.values())
        first = self.first_digest.setdefault(index, combined)
        if first != combined:
            problems.append("output differs from the first pass of this run")
        for key, digest in digests.items():
            if key in self.expected and self.expected[key] != digest:
                problems.append(f"sha256 of `{key}` output differs from expected.json")
        return problems


def _measure(cli, workloads, workload, seconds, trace, root, out_dir) -> dict:
    import json
    import signal

    with open(os.path.join(root, "bench", "expected.json")) as handle:
        expected = json.load(handle).get(workload.name, {})
    harness = _Harness(cli, workloads, workload, expected)
    signal.signal(signal.SIGALRM, _alarm)
    deadline = time.perf_counter() + seconds
    result: dict = {}
    if not trace:
        passes = []
        # Another pass starts only while it is expected to end less than
        # half a pass after the deadline, so that a run of long passes
        # ends near the deadline on average rather than a pass after it.
        pass_s = 0.0
        while not passes or time.perf_counter() + pass_s / 2 < deadline:
            started = time.perf_counter()
            passes.append(harness.run_pass(f"pass {len(passes) + 1}"))
            pass_s = time.perf_counter() - started
        result["passes"] = passes
    else:
        result.update(_traced(harness, workload, deadline, out_dir))
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_kb"] = max(own_peak_kb, harness.child_peak_kb)
    result["inputs"] = {
        "ops_per_pass": len(workload.ops),
        "vectors_per_pass": workload.vectors_per_pass,
        "ops": [op.key for op in workload.ops],
    }
    result["problems"] = harness.problems
    result["probes"] = harness.probes
    return result


def _traced(harness, workload, deadline, out_dir) -> dict:
    """Pairs of one untraced and one traced pass until the deadline.

    Pairing adjacent passes keeps slow drift of the machine out of the
    overhead estimate and out of the wrapper cost, which is calibrated
    again right before each traced pass.  Every traced pass's stdout is
    compared with the first (untraced) pass's.
    """
    from importlib import import_module
    from pathlib import Path

    import tracer as tracer_mod

    # import_module, not attribute access: the package re-exports the
    # function classify.classify under the module's own name.
    tracer = tracer_mod.Tracer({layer: import_module(f"lonely_runner.{layer}") for layer in tracer_mod.LAYERS})
    # A probe inside an op would land in the self time of whatever span
    # it interrupts; traced runs probe after each op only.
    harness.probe_inside = False
    untraced, traced, ranges, visits, costs = [], [], [], [], []
    pair_s = 0.0  # as in _measure, a pair starts only if it can end near the deadline
    while not traced or (time.perf_counter() + pair_s / 2 < deadline and tracer.span_count() < MAX_SPANS):
        started = time.perf_counter()
        untraced.append(harness.run_pass(f"untraced pass {len(untraced) + 1}"))
        costs.append(tracer_mod.calibrate())
        lo, visits_before = tracer.span_count(), tracer.visits
        tracer.install()
        harness.tracer = tracer
        try:
            traced.append(harness.run_pass(f"traced pass {len(traced) + 1}"))
        finally:
            tracer.uninstall()
            harness.tracer = None
        ranges.append((lo, tracer.span_count()))
        visits.append(tracer.visits - visits_before)
        pair_s = time.perf_counter() - started
    layers = []
    functions: dict[str, dict] = {}
    per_pass = workload.vectors_per_pass
    for p, reference, (lo, hi), visited, cost in zip(traced, untraced, ranges, visits, costs):
        stats, subtracted_ns = tracer.function_stats(lo, hi, cost)
        m = {}
        for layer in tracer_mod.LAYERS:
            in_layer = [f for f in stats.values() if f["layer"] == layer]
            m[f"{layer}.calls"] = sum(f["entries"] for f in in_layer)
            m[f"{layer}.self_s"] = sum(f["self_ns"] for f in in_layer) / 1e9
        m["cli.stdout_bytes"] = sum(o[2] for o in p["ops"])
        m["enumeration.vectors_visited"] = visited
        m["enumeration.visits_per_vector"] = visited / per_pass
        m["enumeration.export_s"] = stats.get("enumeration.export", {}).get("total_ns", 0) / 1e9
        m["oracle.calls_per_vector"] = m["oracle.calls"] / per_pass
        m["trace.overhead_frac"] = _ratio(p["wall_s"], reference["wall_s"]) - 1
        m["trace.correction_s"] = subtracted_ns / 1e9
        # Corrected self times against the untraced pass beside this one:
        # near 1 when the layers, less the tracer's cost, account for the
        # time a user waits.
        m["trace.attributed_frac"] = _ratio(sum(f["self_ns"] for f in stats.values()) / 1e9, reference["wall_s"])
        layers.append(m)
        for name, f in stats.items():
            total = functions.setdefault(name, {"layer": f["layer"], "calls": 0, "self_s": 0.0})
            total["calls"] += f["calls"]
            total["self_s"] += f["self_ns"] / 1e9
    trace_path = Path(out_dir) / f"spans-{workload.name}"
    tracer.dump(trace_path, ranges)
    return {
        "passes": [p for pair in zip(untraced, traced) for p in pair],
        "layer_passes": layers,
        "functions": functions,
        "spans": tracer.span_count(),
        "span_file": str(trace_path.with_suffix(".bin").relative_to(Path(out_dir).parent)),
        "wrapper_cost_ns": costs,
    }


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when a pass had no completed op to time."""
    return a / b if b else 0.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
