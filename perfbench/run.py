"""tickgraph benchmark: build, warm check and solve, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload build-timed --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Workloads: build-timed, build-symmetric, check-warm, solve-synthetic (see
workloads.py).  One process, single-threaded, default CLI flags.  The timed
section repeats passes over the workload's operations until `--seconds` have
passed and enough operations ran for the tail percentile.  `--trace 0`
reports the end-to-end metrics; `--trace 1` runs one untraced pass, then
traced passes, and reports per-layer metrics.  Every answer is checked
against an independent reference after the timed section.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CAL_ITERS = 1000  # iterations of the calibration loop
CAL_REF_S = 0.001  # calibration loop time on the reference host, s
TICK_S = 0.05  # calibration period inside a timed operation or set-up
SETUP_REPS = 3  # setup_s is the median of this many identical set-ups
TAIL_PCT = 75  # op_tail_s percentile; runs hold enough operations for it
TAIL_BEYOND = 10  # operations required beyond the tail percentile
MIN_OPS = math.ceil(TAIL_BEYOND / (1 - TAIL_PCT / 100))
MIN_PASSES = 3  # with two, a percentile could only pick an operation's min or max

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Failure:
    """The answer of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failure) and other.text == self.text

    def __repr__(self):
        return f"Failure({self.text!r})"


def _calibration_loop():
    """Fixed interpreter work of the kind tickgraph does: tuples, dicts, calls."""
    seen = {}
    x = 1
    for i in range(CAL_ITERS):
        x = (x * 48271) % 2147483647
        key = (x & 127, i & 7)
        seen[key] = seen.get(key, 0) + 1
    return sorted(seen.items(), key=lambda kv: (-kv[1], kv[0]))[:4]


def host_pace(tries: int = 3) -> float:
    """Seconds the calibration loop takes now, the fastest of `tries`."""
    best = math.inf
    for _ in range(tries):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class RefClock:
    """Times a stretch of work in reference seconds.

    The shared host's speed moves by up to half, over seconds as well as
    minutes, and the calibration loop slows down with it.  The clock measures
    the loop at its start, every TICK_S seconds (from a SIGALRM handler in
    the main thread) and at its end; each interval between two measurements
    counts its wall time times CAL_REF_S over the mean loop time at its ends.
    The calibration's own time is left out.
    """

    active = None  # the clock the SIGALRM handler feeds

    def __init__(self, pace: float):
        self.pace = pace  # loop time at the start, measured by the caller
        self.ref_s = 0.0
        self.wall_s = 0.0

    @staticmethod
    def _on_alarm(_signum, _frame):
        clock = RefClock.active
        if clock is not None:
            end = time.perf_counter()
            clock._add(end, host_pace(2))
            clock._t = time.perf_counter()

    def _add(self, end: float, pace: float) -> None:
        dt = end - self._t
        self.wall_s += dt
        self.ref_s += dt * 2 * CAL_REF_S / (self.pace + pace)
        self.pace = pace

    def __enter__(self):
        # The handler stays installed: an alarm still pending after the
        # timer is stopped must not fall to SIGALRM's default, which exits.
        signal.signal(signal.SIGALRM, RefClock._on_alarm)
        RefClock.active = self
        self._t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        RefClock.active = None
        self._add(time.perf_counter(), host_pace())
        return False


_IMPORT_PROBE = """
import sys
sys.path[:0] = {path!r}
import run
with run.RefClock(run.host_pace()) as clock:
    import tickgraph.cli, workloads
print(clock.ref_s)
"""


def import_ref_s() -> list[float]:
    """Reference seconds a fresh interpreter takes to import tickgraph and
    the workloads, once per set-up repetition; a module is imported only
    once per process, so each repetition is a child process."""
    code = _IMPORT_PROBE.format(path=[HERE, os.path.join(ROOT, "src"), ROOT])
    return [
        float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, timeout=60, cwd=ROOT).stdout)
        for _ in range(SETUP_REPS)
    ]


def run_pass(ops, tracer=None):
    """Run every operation once.

    Returns (pass wall time, [(seconds, answer, wall seconds)]).  Untraced,
    an operation's seconds are reference seconds (see RefClock); traced,
    they are wall seconds, as calibration inside spans would distort them.
    """
    rec = []
    start = time.perf_counter()
    pace = host_pace()
    for op in ops:
        try:
            if tracer is None:
                with RefClock(pace) as clock:
                    ans = op.run()
            else:
                clock = None
                t0 = time.perf_counter()
                with tracer.root("op"):
                    ans = op.run()
        except Exception as exc:  # a failing operation is counted, the run goes on
            ans = Failure(exc)
        if clock is None:
            wall = time.perf_counter() - t0
            rec.append((wall, ans, wall))
        else:
            rec.append((clock.ref_s, ans, clock.wall_s))
            pace = clock.pace
        if op.after is not None:
            op.after()
        # Start each operation with a clean heap, as a fresh CLI process
        # would, so a collection the previous one provoked is not timed.
        gc.collect()
    return time.perf_counter() - start, rec


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def op_states(op, ans) -> int:
    if op.states:
        return op.states
    return ans["counts"][0] if isinstance(ans, dict) else 0


def timed_passes(ops, seconds, min_passes, tracer_factory=None):
    """Passes until `seconds` elapsed and at least `min_passes` ran."""
    passes, tracers = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        tracer = None
        if tracer_factory is not None:
            tracer = tracer_factory()
            tracer.install()
        try:
            passes.append(run_pass(ops, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        tracers.append(tracer)
    return passes, tracers


def check_answers(ops, passes, problems):
    """Compare answers across passes and with the references.

    Returns per-op failure flags; nondeterminism and missing references are
    benchmark problems, wrong answers and exceptions are failed operations.
    """
    first = [ans for _dt, ans, _p in passes[0][1]]
    for _wall, rec in passes[1:]:
        for op, a, (_dt, b, _p) in zip(ops, first, rec):
            if a != b:
                problems.append(f"answer of {op.label} differs between passes: {a!r} vs {b!r}")
    failed, notes = [], []
    for op, ans in zip(ops, first):
        try:
            ref = op.reference()
        except Exception as exc:  # the check cannot be made: the run is not valid
            problems.append(f"reference for {op.label} failed: {type(exc).__name__}: {exc}")
            failed.append(True)
            continue
        bad = isinstance(ans, Failure) or not op.agree(ans, ref)
        failed.append(bad)
        if bad:
            notes.append(f"{op.label}: got {ans!r}, reference {ref!r}")
    return failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the tracer's counts on the bundled cloud model")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tickgraph", "cli.py")):
        print("perfbench: tickgraph sources not found under src/", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), ROOT]
    import tickgraph.cli  # noqa: F401  (import time belongs to set-up)
    import workloads

    import_s = time.perf_counter() - _T0
    if not args.selftest and args.workload not in workloads.SETUPS:
        ap.error(f"--workload must be one of {sorted(workloads.SETUPS)}")
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload or 'selftest'}-", dir=base)
    try:
        if args.selftest:
            import selftest

            return selftest.run(work)
        return bench(args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, import_s: float, work: str) -> int:
    import tracer as tracing
    import workloads

    setup = workloads.SETUPS[args.workload]
    reps, raw_reps = [], []
    for r in range(1 if args.trace else SETUP_REPS):
        d = os.path.join(work, f"setup{r}")
        os.makedirs(d)
        gc.collect()
        with RefClock(host_pace()) as clock:
            wl = setup(args.seed, d)
        reps.append(clock.ref_s)
        raw_reps.append(clock.wall_s)
    imports = [] if args.trace else import_ref_s()
    ops = wl.ops
    min_passes = max(MIN_PASSES, math.ceil(MIN_OPS / len(ops)))
    problems: list[str] = []
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "setup_reps_s": reps,
        "raw_setup_reps_s": raw_reps,
        "import_s": import_s,
        "import_ref_s": imports,
    }

    if args.trace:
        untraced_wall, untraced_rec = run_pass(ops)
        passes, tracers = timed_passes(
            ops, args.seconds, 2, tracer_factory=tracing.Tracer
        )
        all_passes = [(untraced_wall, untraced_rec)] + passes
        counts = [dict(t.counts) for t in tracers]
        for i, c in enumerate(counts[1:], 2):
            if c != counts[0]:
                diff = sorted(k for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
                problems.append(f"traced pass {i} counts differ from pass 1: {diff}")
        layers = [tracing.layer_metrics(t) for t in tracers]
        metrics = {}
        for name in layers[0]:
            if name in tracing.COUNT_METRICS:
                value = layers[0][name]
            else:
                value = statistics.median(m[name] for m in layers)
            metrics[name] = value
        traced_wall = statistics.median(w for w, _r in passes)
        report["untraced_wall_s"] = untraced_wall
        report["traced_wall_s"] = traced_wall
        report["tracing_overhead_s"] = traced_wall - untraced_wall
        report["traced_passes"] = len(passes)
        report["missing_bindings"] = tracers[0].missing
        _write_trace(args, tracers[-1])
    else:
        all_passes, _ = timed_passes(ops, args.seconds, min_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_flags, notes = check_answers(ops, all_passes, problems)
    for check in wl.checks:
        holds, text = check()
        (report.setdefault("input_checks", [])).append(text)
        if not holds:
            problems.append(f"input guarantee broken: {text}")
    n_passes = len(all_passes)
    attempted = n_passes * len(ops)
    failed = n_passes * sum(failed_flags)

    if not args.trace:
        # Times are in reference seconds (see RefClock).  A pass's time is
        # the sum of each operation's median over passes, so one operation
        # slowed in one pass does not move it.
        lat_passes = [[dt for dt, _a, _w in rec] for _w, rec in all_passes]
        lat = [t for p in lat_passes for t in p]
        op_median = [statistics.median(p[i] for p in lat_passes) for i in range(len(ops))]
        pass_time = sum(op_median)
        states = sum(op_states(op, a) for op, (_d, a, _p) in zip(ops, all_passes[0][1]))
        verdicts = sum(op.verdicts for op in ops)
        beyond = len(lat) - math.ceil(TAIL_PCT / 100 * len(lat))
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(reps),
            "wall_s": pass_time,
            "op_p50_s": percentile(lat, 50),
            "op_tail_s": percentile(lat, TAIL_PCT),
            "states_per_s": states / pass_time,
            "peak_rss_mb": peak_rss_mb,
        }
        report.update(
            passes=n_passes,
            ops=len(lat),
            op_p50_samples=len(lat),
            op_tail_pct=TAIL_PCT,
            op_tail_samples_beyond=beyond,
            verdicts_per_s=verdicts / pass_time if verdicts else None,
            states_per_pass=states,
            raw_wall_s=statistics.median(w for w, _r in all_passes),
            ref_per_wall=sum(lat) / sum(w for _p, rec in all_passes for _d, _a, w in rec),
            op_median_s={op.label: t for op, t in zip(ops, op_median)},
        )
        if beyond < TAIL_BEYOND:
            problems.append(f"only {beyond} operations beyond p{TAIL_PCT}")
    report["failed_share"] = failed / attempted
    report["failed_ops"] = notes
    report["problems"] = problems
    units = END_TO_END_UNITS if not args.trace else None
    print("report " + json.dumps(report))
    for name, value in metrics.items():
        unit = units[name] if units else _layer_unit(name)
        print(f"  {name:36s} {value:.6g} {unit}")
    for line in notes + problems:
        print(f"  ! {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k] if units else _layer_unit(k)}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_sweep"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _write_trace(args, tracer) -> None:
    """Spans and counts of the last traced pass, for offline inspection."""
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main())
