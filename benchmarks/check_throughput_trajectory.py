"""Compare two BENCH_throughput.json artifacts across CI runs.

Usage::

    python benchmarks/check_throughput_trajectory.py \
        --previous prev/BENCH_throughput.json \
        --current BENCH_throughput.json \
        [--max-regression 0.30]

Exits non-zero when the current run's parallel programs/sec dropped by
more than ``--max-regression`` relative to the previous run.  A missing
or unreadable previous artifact is not a failure — the first run on a
branch, an expired artifact, or a previous run that never uploaded one
must not block CI — but the reason is printed so a silently-skipped
comparison is visible in the log.

CI runner hardware varies run to run, which is why the threshold is a
loose 30%: the gate catches algorithmic regressions (accidental
quadratic work in the campaign loop, instrumentation left enabled on
the hot path), not scheduler noise.

Two further trajectories ride on the same artifact, gated in absolute
percentage points because both are CPU-ratio measurements and so
largely hardware-independent:

- the serial ``verify_fraction`` (share of attributed CPU the verify
  phase consumes) may not *rise* by more than
  ``--max-verify-fraction-rise`` — the verifier fast path is the thing
  this repo optimises, and a creeping verify share is the earliest
  symptom of losing it;
- each cache hit rate under ``caches`` (tnum memo, prune scan) may
  not *drop* by more than ``--max-hit-rate-drop`` — campaigns are
  seed-deterministic, so a falling hit rate means a cache key or
  lookup path regressed, not that the workload changed.  The gated
  names are the ones :func:`repro.obs.metrics.cache_hit_rates`
  defines: a rate only the previous artifact has belongs to a deleted
  cache and is reported as retired, while a defined rate missing from
  the current artifact fails.

One more gate needs only the **current** artifact, because the
benchmark already measured it against a same-process baseline (a CPU
ratio, not an absolute): the cost of an installed do-nothing verifier
observer (from ``test_observer_overhead``) must stay within
``--max-observer-overhead`` — the contract that the verifier's event
hooks cost nothing that matters until a subscriber does real work.

One more trajectory rides on both artifacts: the overall
``repair_feedback.verified_rate`` (fraction of rejections whose
synthesized minimal patch re-verified as accepted) may not drop by
more than ``--max-repair-rate-drop`` **relative** to the previous
run.  Campaigns are seed-deterministic, so a falling rate means a
patch template, the CFG/dataflow layer, or the provenance pass
regressed — not that the workload changed.

Each real subscriber's enabled overhead (``observer.enabled`` from
``test_observer_overhead``: checker, flight recorder, profiler, repair
feedback) is printed previous -> current.  It is informational, not a
gate — opt-in diagnostics may cost what they cost — but it makes a
drop or a regression in their cost visible in the CI log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.metrics import cache_hit_rates  # noqa: E402

#: the cache hit rates the current code defines (and so gates)
DEFINED_RATES = tuple(sorted(cache_hit_rates({})))


def load_programs_per_sec(path: str) -> tuple[float, dict]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    # BENCH_throughput.json carries serial and parallel sections; the
    # parallel one is the deployment configuration, so it is the gate.
    section = payload.get("parallel", payload)
    value = section.get("programs_per_sec")
    if value is None:
        raise KeyError(f"{path}: no programs_per_sec in {sorted(section)}")
    return float(value), payload


def check_verify_fraction(previous: dict, current: dict,
                          max_rise: float) -> bool:
    """Gate the serial verify-phase CPU share; True = pass."""
    prev = previous.get("serial", {}).get("verify_fraction")
    cur = current.get("serial", {}).get("verify_fraction")
    if prev is None or cur is None:
        print("trajectory: verify_fraction missing from an artifact; "
              "skipping that gate")
        return True
    rise = cur - prev
    print(f"trajectory: verify_fraction {prev:.3f} -> {cur:.3f} "
          f"({rise:+.3f}, allowed rise {max_rise:.2f})")
    if rise > max_rise:
        print("trajectory: FAIL - verify phase share of CPU rose more "
              f"than {max_rise:.2f}")
        return False
    return True


def check_cache_rates(previous: dict, current: dict,
                      max_drop: float) -> bool:
    """Gate every recorded cache hit rate; True = pass."""
    prev_rates = previous.get("caches")
    cur_rates = current.get("caches")
    if not prev_rates or not cur_rates:
        print("trajectory: cache rates missing from an artifact; "
              "skipping that gate")
        return True
    ok = True
    for name in sorted(set(prev_rates) - set(DEFINED_RATES)):
        print(f"trajectory: cache rate {name} retired (no longer "
              f"defined); not gated")
    for name in DEFINED_RATES:
        cur = cur_rates.get(name)
        if cur is None:
            print(f"trajectory: FAIL - cache rate {name} disappeared "
                  f"from the current artifact")
            ok = False
            continue
        prev = prev_rates.get(name)
        if prev is None:
            print(f"trajectory: cache rate {name} is new; not gated")
            continue
        drop = prev - cur
        print(f"trajectory: {name} {prev:.3f} -> {cur:.3f} "
              f"({-drop:+.3f}, allowed drop {max_drop:.2f})")
        if drop > max_drop:
            print(f"trajectory: FAIL - {name} dropped more than "
                  f"{max_drop:.2f}")
            ok = False
    return ok


def check_observer_overhead(current: dict, max_overhead: float) -> bool:
    """Gate the no-op observer's overhead; True = pass.

    Unlike the other gates this needs no previous artifact: the
    benchmark already computed the overhead against its own in-process
    baseline, so the gate is absolute.
    """
    section = current.get("observer")
    if not section or "overhead" not in section:
        print("trajectory: observer overhead missing from the current "
              "artifact; skipping that gate")
        return True
    overhead = section["overhead"]
    print(f"trajectory: no-op observer overhead {overhead:+.3f} "
          f"(allowed {max_overhead:.2f})")
    if overhead > max_overhead:
        print(f"trajectory: FAIL - an installed no-op observer costs "
              f"more than {max_overhead:.0%}")
        return False
    return True


def check_repair_rate(previous: dict, current: dict,
                      max_drop: float) -> bool:
    """Gate the overall verified-repair rate; True = pass.

    Relative, not absolute: the rate is a ratio of deterministic
    counts, so hardware noise cannot move it — but its natural level
    depends on the campaign's rejection mix, which legitimate
    generator changes do shift.  A relative threshold catches "half
    the repairs stopped verifying" without pinning the level itself.
    """
    prev_section = previous.get("repair_feedback") or {}
    cur_section = current.get("repair_feedback") or {}
    prev = prev_section.get("verified_rate")
    cur = cur_section.get("verified_rate")
    if prev is None or cur is None:
        print("trajectory: repair verified_rate missing from an artifact; "
              "skipping that gate")
        return True
    if prev <= 0:
        print(f"trajectory: previous repair verified_rate {prev} not "
              f"positive; skipping that gate")
        return True
    drop = (prev - cur) / prev
    print(f"trajectory: repair verified_rate {prev:.3f} -> {cur:.3f} "
          f"({-drop:+.1%} relative, allowed drop {max_drop:.0%})")
    if drop > max_drop:
        print(f"trajectory: FAIL - verified-repair rate dropped more "
              f"than {max_drop:.0%} relative")
        return False
    return True


def report_subscriber_overheads(previous: dict, current: dict) -> None:
    """Print each ``observer.enabled`` subscriber's overhead, previous
    -> current.  Informational only: nothing here fails the check."""
    prev = (previous.get("observer") or {}).get("enabled") or {}
    cur = (current.get("observer") or {}).get("enabled") or {}

    def overhead(section: dict, name: str) -> str:
        value = (section.get(name) or {}).get("overhead")
        return "absent" if value is None else f"{value:+.1%}"

    for name in sorted(set(prev) | set(cur)):
        print(f"trajectory: {name} enabled overhead "
              f"{overhead(prev, name)} -> {overhead(cur, name)} "
              f"(not gated)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--previous", required=True,
                        help="previous run's BENCH_throughput.json")
    parser.add_argument("--current", required=True,
                        help="this run's BENCH_throughput.json")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="maximum tolerated fractional drop "
                             "(default 0.30)")
    parser.add_argument("--max-verify-fraction-rise", type=float,
                        default=0.15,
                        help="maximum tolerated rise of the serial "
                             "verify_fraction, in absolute points "
                             "(default 0.15)")
    parser.add_argument("--max-hit-rate-drop", type=float, default=0.25,
                        help="maximum tolerated drop of any cache hit "
                             "rate, in absolute points (default 0.25)")
    parser.add_argument("--max-observer-overhead", type=float,
                        default=0.05,
                        help="maximum tolerated overhead of an installed "
                             "no-op verifier observer, as a fraction of "
                             "baseline throughput (default 0.05)")
    parser.add_argument("--max-repair-rate-drop", type=float, default=0.20,
                        help="maximum tolerated relative drop of the "
                             "overall verified-repair rate (default 0.20)")
    args = parser.parse_args(argv)

    try:
        current, current_payload = load_programs_per_sec(args.current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"trajectory: current artifact unreadable: {exc}")
        return 1

    if not check_observer_overhead(current_payload,
                                   args.max_observer_overhead):
        return 1

    try:
        previous, previous_payload = load_programs_per_sec(args.previous)
    except (OSError, ValueError, KeyError) as exc:
        print(f"trajectory: no previous artifact to compare against "
              f"({exc}); skipping")
        return 0

    if previous <= 0:
        print(f"trajectory: previous throughput {previous} not positive; "
              f"skipping")
        return 0

    ok = True
    delta = (current - previous) / previous
    print(f"trajectory: previous {previous:.1f} programs/sec, "
          f"current {current:.1f} programs/sec ({delta:+.1%})")
    if delta < -args.max_regression:
        print(f"trajectory: FAIL - throughput dropped more than "
              f"{args.max_regression:.0%}")
        ok = False
    ok &= check_verify_fraction(previous_payload, current_payload,
                                args.max_verify_fraction_rise)
    ok &= check_cache_rates(previous_payload, current_payload,
                            args.max_hit_rate_drop)
    ok &= check_repair_rate(previous_payload, current_payload,
                            args.max_repair_rate_drop)
    report_subscriber_overheads(previous_payload, current_payload)
    if not ok:
        return 1
    print("trajectory: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
