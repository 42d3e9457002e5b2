"""Benchmark of the BVF reproduction: one workload, one run.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz-serial --seed 1 \
        --seconds 35 --trace 0

``--trace 0`` runs the workload's units back to back for ``--seconds``
seconds and reports the end-to-end metrics.  ``--trace 1`` runs the
workload's ``trace_units`` twice, first untraced and then with every
layer's entry points wrapped in spans, and reports the per-layer
ledger.  Both modes check the program's outputs;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
next to this file for the workloads and metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: run artifacts: the exact-repeat ledger and the span dumps
OUT = ROOT / ".bench_out"
#: extra processes that repeat the set-up, so setup_s is a median of
#: nine samples (an even number: half run before the window, half after)
SETUP_PROBES = 8
#: hard cap on the traced run's passes, in seconds (a run must end
#: within 180 s, set-up included)
CAP_S = 140.0
#: time after which a timed run abandons a unit (a normal unit takes
#: 0.5-4 s; one that meets a complexity-limit program can take minutes)
UNIT_TIMEOUT_S = 8.0

#: (name, unit) of the end-to-end metrics in ``BENCHMARK.json``; the
#: others (error_rate, verdict_ms, edges, bugs_found) are printed only.
END_TO_END = (
    ("programs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("acceptance_rate", "ratio"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz-serial", "fuzz-sharded-oracles",
                                 "selftest-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time, exit")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")


def probe_setup(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes doing the same set-up,
    one after the other."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(
            json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


# --------------------------------------------------------------------------
# Exact-repeat checks
# --------------------------------------------------------------------------


def source_digest() -> str:
    """Identity of the code under test and of the benchmark."""
    digest = hashlib.sha1()
    paths = [p for p in (ROOT / "src").rglob("*")
             if p.suffix in (".py", ".c")]
    paths += list((ROOT / "perfbench").glob("*.py"))
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _differences(a: dict, b: dict) -> list[str]:
    keys = sorted(set(a) | set(b))
    out = []
    for key in keys:
        if isinstance(a.get(key), dict) and isinstance(b.get(key), dict):
            out += [f"{key}.{k}" for k in _differences(a[key], b[key])]
        elif a.get(key) != b.get(key):
            out.append(key)
    return out


def check_ledger(workload: str, seed: int, units) -> list[str]:
    """Compare each unit's work counts with an earlier run of the same
    seed and code (kept under ``.bench_out/ledger``), then record them."""
    path = OUT / "ledger" / f"{source_digest()}.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for unit in units:
        key = f"{workload}/{seed}/{unit.index}"
        record = json.loads(json.dumps(unit.repeat_key()))
        if key in ledger and ledger[key] != record:
            problems.append(
                f"unit {unit.index} differs from an earlier run with the "
                f"same seed: {', '.join(_differences(ledger[key], record))}")
        ledger.setdefault(key, record)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    tmp.replace(path)
    return problems


def check_pairs(label: str, first, second) -> list[str]:
    problems = []
    if len(second) < len(first):
        problems.append(f"{label}: {len(first) - len(second)} of "
                        f"{len(first)} units not run, so not compared")
    for a, b in zip(first, second):
        ka, kb = a.repeat_key(), b.repeat_key()
        if ka != kb:
            problems.append(f"{label}: unit {a.index} vs {b.index} differ "
                            f"in {', '.join(_differences(ka, kb))}")
    return problems


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


class Deadline(BaseException):
    """A time limit of the run expired.  A ``BaseException``, so no
    handler in the program or the harness mistakes it for a failed
    program."""


@contextmanager
def hard_cap(seconds: float):
    """Raise :class:`Deadline` in the main thread after ``seconds``
    (``signal.setitimer`` may re-arm it inside the block).

    A program that runs into the verifier's complexity limit can take
    minutes; the cap keeps a run inside its time limit whatever it meets.
    """
    def fire(signum, frame):
        raise Deadline()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_run(workload, log, seconds: float):
    """Run units back to back for ``seconds``.

    A unit still running after ``UNIT_TIMEOUT_S``, or when the window
    closes, is abandoned where it is: its completed programs stay in the
    log, its work counters are dropped.  Returns the window's start, the
    completed units, the number abandoned on timeout and the peak RSS
    after the first completed unit (later units would make it grow with
    the number of units that fit).
    """
    units, rss, abandoned, index = [], None, 0, 0
    started = time.perf_counter()
    try:
        with hard_cap(seconds):
            while True:
                left = seconds - (time.perf_counter() - started)
                if left <= 0:
                    break
                signal.setitimer(signal.ITIMER_REAL,
                                 min(left, UNIT_TIMEOUT_S))
                try:
                    unit = workload.run_unit(index)
                except Deadline:
                    abandoned += time.perf_counter() - started < seconds
                    log.renew_lock()
                    continue
                finally:
                    index += 1
                unit.result = None
                units.append(unit)
                if rss is None:
                    rss = peak_rss_mb()
    except Deadline:  # fired between two units
        pass
    return started, units, abandoned, rss


def throughput(units) -> float:
    """Median over the completed units of programs per second of unit
    wall time.

    A unit's wall covers everything it does: campaign set-up, pool
    start-up, every program with its tail, shard merge.  A unit that
    meets a complexity-limit program (a minute or more) is abandoned
    after ``UNIT_TIMEOUT_S`` and has no rate; the median keeps a
    momentary slowdown of the host from deciding the run.
    """
    return statistics.median(unit.programs / unit.wall_s for unit in units)


def end_to_end(workload, started, units, abandoned, records, rss,
               setup_samples) -> tuple[dict, list[str]]:
    from repro.kernel.config import Flaw
    from spans import quantile

    # Quality metrics come from the first completed unit (unit 0 unless
    # it was abandoned), so they are exact for a seed.
    quality = units[0]
    verdict_ms = [verdict * 1e3 for _, _, verdict, _ in records]
    metrics = {
        "programs_per_s": throughput(units),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss,
        "acceptance_rate": quality.accepted / quality.programs,
    }
    info = [
        f"programs {len(records)} in {records[-1][0] - started:.2f} s, "
        f"{len(units)} units complete, {abandoned} abandoned after "
        f"{UNIT_TIMEOUT_S:.0f} s",
        "unit programs/s: " + ", ".join(
            f"{unit.programs / unit.wall_s:.1f}" for unit in units),
        f"verdict_ms.p50 {quantile(verdict_ms, 0.5):.4f} ms, "
        f"verdict_ms.p99 {quantile(verdict_ms, 0.99):.4f} ms, "
        f"verdict_ms.max {max(verdict_ms):.1f} ms",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup_samples)}",
    ]
    if workload.name != "selftest-verify":
        flaws = {flaw.value for flaw in Flaw}
        found = set(quality.findings)
        info += [
            f"edges {len(quality.edges)} in unit {quality.index}",
            f"bugs_found {len(found & flaws)}: "
            f"{', '.join(sorted(found & flaws))}",
            f"findings {len(found)}, divergences "
            f"{len(quality.divergences)}",
        ]
    return metrics, info


def traced_run(workload, seed: int):
    """An untraced and a traced pass over the same ``trace_units``.

    Returns the per-layer metrics, the tail report, both passes and
    whether ``CAP_S`` cut the traced pass (the per-layer metrics then
    cover the programs it completed).
    """
    from layers import per_layer, tail_report
    from spans import Tracer, instrument

    units = range(workload.trace_units)
    tracer = Tracer()
    untraced, traced, exec_rows, cut = [], [], [], False
    try:
        with hard_cap(CAP_S):
            # An in-process pass warms process-global state (the tnum
            # memo, the interpreter's specialised bytecode) for the next
            # one, so both passes run after a short warm-up.  Sharded
            # units run in fresh worker processes and need none.
            workload.warm_up()
            untraced = [workload.run_unit(k) for k in units]
            with instrument(tracer):
                for k in units:
                    with tracer.span("round"):
                        traced.append(workload.run_unit(k, tracer=tracer))
            # Sanitizer execution timings run apart from both passes, so
            # their extra executions land in no span and no unit wall.
            exec_rows = getattr(workload, "exec_times", list)()
    except Deadline:
        cut = True
        if not untraced:
            raise SystemExit(f"the untraced pass of {workload.name} did "
                             f"not complete in {CAP_S} s")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}-{seed}.jsonl")
    metrics = per_layer(tracer, untraced, traced, exec_rows,
                        getattr(workload, "workers", 1))
    return metrics, tail_report(tracer), untraced, traced, cut


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import FAILED, WORKLOADS, ProgramLog, harness

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    log = workload.log = ProgramLog()
    with harness(log):
        if args.trace:
            metrics, info, untraced, traced, cut = traced_run(workload,
                                                              args.seed)
            units = untraced + traced
            label = ("worker invariance (workers=2 untraced vs in-process "
                     "workers=1 traced)" if hasattr(workload, "workers")
                     else "exact repeat (untraced vs traced)")
            problems = check_pairs(label, untraced, traced)
            problems += check_ledger(args.workload, args.seed, untraced)
            if cut:
                info.append(f"the traced pass was cut at {CAP_S} s: "
                            f"layers cover the programs it completed")
            from layers import METRICS
            units_of = {name: unit for name, unit, _ in METRICS}
        else:
            # Half the set-up probes run before the window and half
            # after it, so one slow stretch of the host does not decide
            # setup_s.
            setup_samples = [setup_s] + probe_setup(args, SETUP_PROBES // 2)
            started, units, abandoned, rss = timed_run(workload, log,
                                                       args.seconds)
            setup_samples += probe_setup(args, SETUP_PROBES // 2)
            if not units:
                raise SystemExit(f"no unit of {workload.name} completed "
                                 f"in {args.seconds} s")
            metrics, info = end_to_end(workload, started, units, abandoned,
                                       log.records(), rss, setup_samples)
            problems = check_ledger(args.workload, args.seed, units)
            if args.workload == "selftest-verify":
                problems += check_pairs("exact repeat (pass 0 vs pass k)",
                                        units[:1] * len(units), units)
            units_of = dict(END_TO_END)

    records = log.records()
    attempted = len(records)
    messages = [message for unit in units
                for message in unit.bad_findings + unit.mismatches]
    failed = (sum(1 for *_, status in records if status == FAILED)
              + sum(len(unit.bad_findings) for unit in units))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in info:
        print(f"  {line}")
    print(f"  error_rate {failed / attempted:.6f} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {units_of[name]}")
    for message in messages[:20]:
        print(f"  FAILED {message}")
    for problem in problems:
        print(f"  CHECK {problem}")
    print(f"  checks: {'ok' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
