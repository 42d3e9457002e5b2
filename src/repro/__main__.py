"""Command-line interface: ``python -m repro <command>``.

Subcommands:

- ``fuzz``      — run a fuzzing campaign and print a Table-2-style
  bug table (optionally with triage reports);
- ``campaign``  — run a sharded campaign across worker processes and
  print the merged bug table plus throughput stats;
- ``selftest``  — run the verifier self-test corpus against a kernel
  profile and report verdict mismatches;
- ``report``    — render the telemetry dashboard from a ``--metrics``
  artifact (acceptance by reason/frame kind, phase-time histograms,
  cache health, per-shard throughput, bug indicators, the coverage
  frontier); older ``repro-metrics-v*`` artifacts render with missing
  sections shown as "n/a";
- ``profile``   — render the hierarchical verifier profile (frame
  tree, hotspots, op/helper tables) from a ``--profile`` artifact;
- ``explain``   — verify one program (a selftest by name, or a
  campaign iteration by number) under the flight recorder and print
  why it was rejected, the root-cause definition site, and the
  verified minimal repair when one exists;
- ``repair``    — synthesize and verify the minimal patch that flips
  a rejected program (selftest or campaign iteration) to accepted,
  printing the patched disassembly and the diff;
- ``profiles``  — list the kernel profiles and their injected flaws.

``fuzz`` and ``campaign`` both accept ``--trace PATH`` (JSONL trace
events; sharded campaigns write ``PATH.shardNN`` per shard),
``--metrics PATH`` (the JSON artifact ``report`` consumes) and
``--flight`` (record verifier decisions and attach rejection
explanations).  DESIGN.md §8 lists every option with what reads it.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.reports import render_bug_table, render_dashboard
from repro.analysis.stats import ThroughputStats
from repro.analysis.triage import triage_finding
from repro.errors import BpfError, VerifierReject
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.parallel import DEFAULT_SHARDS, ParallelCampaign
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.obs.artifact import build_artifact, write_artifact
from repro.testsuite import all_selftests_extended as all_selftests

__all__ = ["main"]


def _campaign_config(args: argparse.Namespace) -> CampaignConfig:
    """The campaign ``fuzz`` and ``campaign`` run, from their arguments."""
    return CampaignConfig(
        tool=args.tool,
        kernel_version=args.kernel,
        budget=args.budget,
        seed=args.seed,
        sanitize=not args.no_sanitize,
        trace_path=args.trace,
        differential=args.differential,
        check_invariants=args.check_invariants,
        flight=args.flight,
        profile=args.profile,
        repair_feedback=args.repair_feedback,
    )


def _print_outcome(result, args: argparse.Namespace) -> None:
    """Bug table, divergences, triage reports and artifact notes."""
    print("\n" + render_bug_table(result.findings))
    if result.config.differential:
        divergences = result.divergences
        by_cls: dict[str, int] = {}
        for div in divergences.values():
            cls = div.get("classification", "unexplained")
            by_cls[cls] = by_cls.get(cls, 0) + 1
        breakdown = " ".join(f"{c}={n}" for c, n in sorted(by_cls.items()))
        print(f"\ncross-version divergences: {len(divergences)}"
              + (f" ({breakdown})" if breakdown else ""))
        for div in divergences.values():
            print(f"  {div['kind']:<8} {div['profile_a']} vs "
                  f"{div['profile_b']}: {div['classification']} "
                  f"[{div['explanation']}] iteration {div['iteration']}")
    if args.triage and result.findings:
        kernel_config = PROFILES[args.kernel]()
        # Discovery order: by (global) iteration.
        for finding in sorted(result.findings.values(),
                              key=lambda f: f.iteration):
            print()
            print(triage_finding(finding, kernel_config).render())
    if args.metrics:
        write_artifact(build_artifact(result), args.metrics)
        print(f"metrics artifact written to {args.metrics}")
    if args.trace:
        print(f"trace written to {args.trace}*")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    print(
        f"fuzzing {args.kernel} with {args.tool}: {args.budget} programs, "
        f"seed {args.seed}"
    )
    result = Campaign(_campaign_config(args)).run()
    print(
        f"\naccepted {result.accepted}/{result.generated} "
        f"({result.acceptance_rate:.1%}); verifier coverage "
        f"{result.final_coverage} edges; corpus {result.corpus_size}"
    )
    _print_outcome(result, args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    engine = ParallelCampaign(
        _campaign_config(args), workers=args.workers, shards=args.shards
    )
    print(
        f"campaign on {args.kernel} with {args.tool}: {args.budget} programs "
        f"over {engine.shards} shards x {engine.workers} workers, "
        f"seed {args.seed}"
    )
    result = engine.run()
    throughput = ThroughputStats.from_result(result)
    print(
        f"\naccepted {result.accepted}/{result.generated} "
        f"({result.acceptance_rate:.1%}); merged verifier coverage "
        f"{result.final_coverage} edges; corpus {result.corpus_size}"
    )
    print(
        f"throughput {throughput.programs_per_sec:.1f} programs/sec "
        f"({throughput.wall_seconds:.1f}s wall, "
        f"{throughput.parallelism:.1f}x effective parallelism; "
        f"verify {throughput.verify_fraction:.0%} / "
        f"execute {throughput.execute_fraction:.0%} of busy time)"
    )
    _print_outcome(result, args)
    return 0


def _load_metrics_artifact(path: str) -> dict | None:
    """Load a metrics artifact, accepting any ``repro-metrics-v*``.

    Old and new schema versions render alike — the dashboard shows
    "n/a" for sections an older artifact does not carry.  Returns
    ``None`` (after a stderr note) for non-metrics documents.
    """
    from repro.obs.artifact import SCHEMA

    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    schema = artifact.get("schema")
    if not isinstance(schema, str) or not schema.startswith(
        "repro-metrics-v"
    ):
        print(f"unsupported metrics artifact schema: {schema!r}",
              file=sys.stderr)
        return None
    if schema != SCHEMA:
        print(f"note: artifact schema {schema} predates {SCHEMA}; "
              "missing sections render as n/a", file=sys.stderr)
    return artifact


def _cmd_report(args: argparse.Namespace) -> int:
    artifact = _load_metrics_artifact(args.artifact)
    if artifact is None:
        return 1
    print(render_dashboard(artifact))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import render_profile

    artifact = _load_metrics_artifact(args.artifact)
    if artifact is None:
        return 1
    print(render_profile(artifact.get("profile") or {}, top=args.top))
    return 0


def _resolve_program(args: argparse.Namespace):
    """The program ``explain`` and ``repair`` work on: a selftest by name,
    or a campaign iteration replayed from ``--tool``/``--seed``.

    Returns ``(kernel, gp, prog, sanitize, subject)``, where ``gp`` is
    the generated program (None for a selftest), or ``None`` after a
    stderr note when no selftest has that name.
    """
    from repro.obs.explain import build_selftest, replay_iteration

    if args.program.isdigit():
        config = CampaignConfig(
            tool=args.tool,
            kernel_version=args.kernel,
            budget=0,
            seed=args.seed,
            sanitize=args.sanitize,
        )
        _, kernel, gp, prog = replay_iteration(config, int(args.program))
        sanitize = config.sanitize and kernel.config.sanitizer_available
        subject = (f"iteration {args.program} "
                   f"(tool={args.tool} seed={args.seed})")
        return kernel, gp, prog, sanitize, subject
    kernel = Kernel(PROFILES[args.kernel]())
    try:
        prog = build_selftest(args.program, kernel)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    return kernel, None, prog, args.sanitize, f"selftest {args.program!r}"


def _repair_of(kernel, prog, explanation, sanitize: bool):
    """The verified minimal repair for an explained rejection, or None."""
    from repro.analysis.repair import synthesize_repair

    return synthesize_repair(
        kernel,
        prog,
        reason=explanation.reason,
        message=explanation.message,
        insn_idx=explanation.insn_idx,
        sanitize=sanitize,
    )


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import describe_accepted, explain_program

    resolved = _resolve_program(args)
    if resolved is None:
        return 1
    kernel, gp, prog, sanitize, subject = resolved
    explanation = explain_program(kernel, prog, sanitize=sanitize)

    if explanation is None:
        print(f"{subject} accepted on {args.kernel} — nothing to explain")
        print(describe_accepted(subject, args.kernel, prog=prog, gp=gp))
        return 0

    repair = _repair_of(kernel, prog, explanation, sanitize)
    if args.json:
        payload = explanation.to_dict()
        payload["repair"] = repair.to_dict() if repair else None
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(explanation.render())
        print()
        if repair is not None:
            print(repair.render())
        else:
            print("suggested repair: no verified repair found")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.analysis.repair import render_program
    from repro.obs.explain import explain_program

    resolved = _resolve_program(args)
    if resolved is None:
        return 1
    kernel, _, prog, sanitize, subject = resolved
    explanation = explain_program(kernel, prog, sanitize=sanitize)
    if explanation is None:
        print(f"{subject} accepted on {args.kernel} — nothing to repair")
        return 1

    repair = _repair_of(kernel, prog, explanation, sanitize)
    if repair is None:
        print(f"{subject} rejected ({explanation.reason}) but no "
              "candidate patch verified as accepted")
        return 1

    if args.json:
        payload = repair.to_dict()
        payload["subject"] = subject
        payload["kernel"] = args.kernel
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"{subject} rejected on {args.kernel}: {explanation.message}")
    print()
    print(repair.render())
    print()
    print("patched program (verified accept):")
    print("\n".join(render_program(repair.patched)))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    mismatches = 0
    total = 0
    for selftest in all_selftests():
        kernel = Kernel(PROFILES[args.kernel]())
        total += 1
        try:
            prog = selftest.build(kernel)
            kernel.prog_load(prog, sanitize=args.sanitize)
            verdict = "accept"
        except (VerifierReject, BpfError) as exc:
            verdict = "reject"
            reason = getattr(exc, "message", str(exc))
        if verdict != selftest.expect and args.kernel == "patched":
            mismatches += 1
            detail = f" ({reason})" if verdict == "reject" else ""
            print(f"MISMATCH {selftest.name}: expected {selftest.expect}, "
                  f"got {verdict}{detail}")
        elif args.verbose:
            print(f"{verdict:>7}  {selftest.name}")
    print(f"\n{total} self-tests, {mismatches} verdict mismatches "
          f"on {args.kernel}")
    return 1 if mismatches else 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    for name, factory in PROFILES.items():
        config = factory()
        print(f"{name}:")
        print(f"  kfuncs={config.has_kfuncs} "
              f"nullness_propagation={config.has_nullness_propagation} "
              f"btf={config.has_btf_access}")
        if config.flaws:
            for flaw in sorted(config.flaws, key=lambda f: f.value):
                print(f"  - {flaw.value}")
        else:
            print("  (no injected bugs)")
    return 0


_TOOLS = ["bvf", "bvf-nostructure", "syzkaller", "buzzer"]


def _add_campaign_args(parser: argparse.ArgumentParser,
                       sharded: bool) -> None:
    """The arguments of ``fuzz`` and (``sharded``) ``campaign``."""
    parser.add_argument("--tool", default="bvf", choices=_TOOLS)
    parser.add_argument("--kernel", default="bpf-next",
                        choices=list(PROFILES))
    parser.add_argument("--budget", type=int, default=1000,
                        help="programs to generate (split across shards)"
                        if sharded else "programs to generate")
    parser.add_argument("--seed", type=int, default=0)
    if sharded:
        parser.add_argument("--workers", type=int, default=None,
                            help="worker processes (default: CPU count)")
        parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS,
                            help="logical shards; results depend only on "
                                 "(seed, budget, shards), never on "
                                 "--workers")
    parser.add_argument("--no-sanitize", action="store_true",
                        help="disable BVF's memory-access sanitation")
    parser.add_argument("--differential", action="store_true",
                        help="run every program through the cross-version "
                             "differential oracle (v5.15/v6.1/bpf-next)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="validate verifier abstract-state invariants "
                             "at checkpoints (VStateChecker)")
    parser.add_argument("--triage", action="store_true",
                        help="print a triage report per finding")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write JSONL traces (one PATH.shardNN file "
                             "per shard)" if sharded
                        else "write a JSONL trace of the run to PATH")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write the merged metrics artifact (JSON) to "
                             "PATH" if sharded
                        else "write the metrics artifact (JSON) to PATH")
    parser.add_argument("--flight", action="store_true",
                        help="record verifier decision events and attach "
                             "a rejection explanation per taxonomy reason")
    parser.add_argument("--profile", action="store_true",
                        help="run the hierarchical verifier profiler "
                             "(`repro profile` renders the artifact)")
    parser.add_argument("--repair-feedback", action="store_true",
                        help="attempt a verified minimal repair for every "
                             "rejection and feed accepted repairs back "
                             "into the mutation corpus")


def _add_program_args(parser: argparse.ArgumentParser, what: str) -> None:
    """The arguments of ``explain`` and ``repair``."""
    parser.add_argument(
        "program",
        help="a selftest name, or a campaign iteration number "
             "(replayed deterministically from --tool/--seed)",
    )
    parser.add_argument("--kernel", default="patched",
                        choices=list(PROFILES))
    parser.add_argument("--tool", default="bvf", choices=_TOOLS,
                        help="generator for iteration replay")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed for iteration replay")
    parser.add_argument("--sanitize", action="store_true",
                        help="apply BVF's sanitation before verifying")
    parser.add_argument("--json", action="store_true",
                        help=f"emit the {what} as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BVF reproduction: fuzz a simulated eBPF verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    _add_campaign_args(fuzz, sharded=False)
    fuzz.set_defaults(func=_cmd_fuzz)

    campaign = sub.add_parser(
        "campaign", help="run a sharded campaign across worker processes"
    )
    _add_campaign_args(campaign, sharded=True)
    campaign.set_defaults(func=_cmd_campaign)

    report = sub.add_parser(
        "report", help="render the telemetry dashboard from a "
                       "--metrics artifact"
    )
    report.add_argument("artifact", help="metrics artifact written by "
                                         "fuzz/campaign --metrics")
    report.set_defaults(func=_cmd_report)

    profile = sub.add_parser(
        "profile", help="render the hierarchical verifier profile from "
                        "a --metrics artifact (campaign run with --profile)"
    )
    profile.add_argument("artifact", help="metrics artifact written by "
                                          "fuzz/campaign --metrics")
    profile.add_argument("--top", type=int, default=10,
                         help="rows per hotspot/op table")
    profile.set_defaults(func=_cmd_profile)

    explain = sub.add_parser(
        "explain", help="explain why the verifier rejected a program"
    )
    _add_program_args(explain, "explanation")
    explain.set_defaults(func=_cmd_explain)

    repair = sub.add_parser(
        "repair", help="synthesize and verify a minimal patch that flips "
                       "a rejected program to accepted"
    )
    _add_program_args(repair, "repair")
    repair.set_defaults(func=_cmd_repair)

    selftest = sub.add_parser("selftest", help="run the self-test corpus")
    selftest.add_argument("--kernel", default="patched",
                          choices=list(PROFILES))
    selftest.add_argument("--sanitize", action="store_true")
    selftest.add_argument("--verbose", "-v", action="store_true")
    selftest.set_defaults(func=_cmd_selftest)

    profiles = sub.add_parser("profiles", help="list kernel profiles")
    profiles.set_defaults(func=_cmd_profiles)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `python -m repro profiles | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
