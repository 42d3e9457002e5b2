"""Cross-version differential verification oracle.

The paper's indicators all require *executing* an accepted program
(Section 3); ROADMAP item 4 asks for bug-finding modes that need no
execution at all.  This module supplies one: verify the same decoded
program under several kernel-version profiles (`kernel/config.py`) and
compare what the verifier *concluded* — the accept/reject verdict and
the final abstract range state of R0 at every program exit (register
bounds plus tnum masks).  Any disagreement is a **divergence**, and a
divergence between two verifiers looking at the same program is
evidence that at least one of them is wrong (BRF's semantic-correctness
angle, PAPERS.md).

Divergences are then *classified* against the injected-flaw registry by
replaying the program under single-difference configs:

- ``known-flaw`` — toggling exactly one :class:`~repro.kernel.config.
  Flaw` the two profiles disagree on reproduces the other profile's
  outcome.  These make the registry a regression oracle: every flaw
  that manifests as a verdict/range divergence is detected statically.
- ``feature-gap`` — toggling one feature field (kfunc support, the
  nullness-propagation pass, ...) explains the difference; expected
  version skew, not a bug.
- ``combined`` — only the joint flaw+feature delta explains it (the
  profiles differ in several interacting ways); explained, but with no
  single root cause.
- ``unexplained`` — even replaying profile A under profile B's entire
  config does not reproduce B's outcome, i.e. verification depends on
  something outside the registry.  These become bug reports.

Determinism: outcomes depend only on the decoded program and the
profile configs, never on wall clock or process identity, so sharded
campaigns merge divergences exactly like findings (dedup by key,
earliest global iteration wins) and the merged artifact is
worker-count invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.ebpf.program import BpfProgram
from repro.errors import BpfError, VerifierReject
from repro.kernel.config import PROFILES, Flaw, KernelConfig
from repro.kernel.syscall import replay_kernel
from repro.obs.taxonomy import classify
from repro.verifier.core import Verifier

__all__ = [
    "DEFAULT_PROFILES",
    "ProfileOutcome",
    "Divergence",
    "DifferentialOracle",
]

#: The three kernel versions the paper evaluates (Section 6.1).
DEFAULT_PROFILES = ("v5.15", "v6.1", "bpf-next")

#: KernelConfig feature fields a divergence may be attributed to.
_FEATURE_FIELDS = (
    "has_kfuncs",
    "has_nullness_propagation",
    "has_btf_access",
    "has_bpf_loop",
    "sanitizer_available",
    "unprivileged_allowed",
    "complexity_limit",
)


@dataclass(frozen=True)
class ProfileOutcome:
    """What one profile's verifier concluded about one program."""

    profile: str
    verdict: str  # 'accept' | 'reject'
    #: taxonomy reason code for rejects ('' for accepts)
    reason: str = ""
    #: sorted tuple of per-exit R0 summaries
    #: ``(umin, umax, smin, smax, tnum_value, tnum_mask)``
    fingerprint: tuple = ()

    @property
    def signature(self) -> tuple:
        """The comparable part: profile-name independent."""
        return (self.verdict, self.fingerprint)


@dataclass
class Divergence:
    """Two profiles disagreeing about one program."""

    kind: str  # 'verdict' | 'range'
    profile_a: str
    profile_b: str
    outcome_a: ProfileOutcome
    outcome_b: ProfileOutcome
    classification: str  # 'known-flaw' | 'feature-gap' | 'combined' | 'unexplained'
    #: the flaw value / feature field name backing the classification
    explanation: str = ""
    iteration: int = -1

    @property
    def key(self) -> str:
        """Deterministic dedup key (stable across shards and workers)."""
        return "|".join(
            (
                self.kind,
                self.profile_a,
                self.profile_b,
                self.classification,
                self.explanation,
                self.outcome_a.verdict,
                self.outcome_a.reason,
                self.outcome_b.verdict,
                self.outcome_b.reason,
            )
        )

    def to_dict(self) -> dict:
        """Picklable, JSON-ready form (what campaign results carry)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "profile_a": self.profile_a,
            "profile_b": self.profile_b,
            "verdict_a": self.outcome_a.verdict,
            "verdict_b": self.outcome_b.verdict,
            "reason_a": self.outcome_a.reason,
            "reason_b": self.outcome_b.reason,
            "classification": self.classification,
            "explanation": self.explanation,
            "iteration": self.iteration,
        }


class DifferentialOracle:
    """Verifies each program under N profiles and explains divergences."""

    def __init__(self, profiles: tuple[str, ...] = DEFAULT_PROFILES) -> None:
        self.configs: dict[str, KernelConfig] = {
            name: PROFILES[name]() for name in profiles
        }

    # ------------------------------------------------------------ outcomes --

    def verify_under(self, config: KernelConfig, gp,
                     profile: str = "") -> ProfileOutcome:
        """One profile's verdict + final-range fingerprint for ``gp``.

        The program is **not executed**; only the verifier runs.  The
        fingerprint is the sorted multiset of exit-R0 range summaries,
        canonical across profiles even when DFS path order differs.
        """
        kernel = replay_kernel(config, gp)
        prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type)
        verifier = Verifier(kernel, prog, sanitize=False,
                            collect_exit_states=True)
        try:
            verifier.verify()
        except VerifierReject as reject:
            return ProfileOutcome(
                profile=profile or config.version,
                verdict="reject",
                reason=classify(reject.message),
            )
        except BpfError as error:
            return ProfileOutcome(
                profile=profile or config.version,
                verdict="reject",
                reason=classify(error.message),
            )
        return ProfileOutcome(
            profile=profile or config.version,
            verdict="accept",
            fingerprint=tuple(sorted(verifier.exit_r0_summaries or [])),
        )

    # ---------------------------------------------------------- divergence --

    def run(self, gp, iteration: int = -1) -> list["Divergence"]:
        """All pairwise divergences for one generated program."""
        names = sorted(self.configs)
        outcomes = {
            name: self.verify_under(self.configs[name], gp, profile=name)
            for name in names
        }
        divergences = []
        for i, name_a in enumerate(names):
            for name_b in names[i + 1:]:
                a, b = outcomes[name_a], outcomes[name_b]
                if a.signature == b.signature:
                    continue
                kind = "verdict" if a.verdict != b.verdict else "range"
                classification, explanation = self._classify(
                    gp, self.configs[name_a], self.configs[name_b], b
                )
                divergences.append(
                    Divergence(
                        kind=kind,
                        profile_a=name_a,
                        profile_b=name_b,
                        outcome_a=a,
                        outcome_b=b,
                        classification=classification,
                        explanation=explanation,
                        iteration=iteration,
                    )
                )
                obs.metrics().counter("differential.divergences")
        return divergences

    # ------------------------------------------------------- classification --

    def _classify(
        self,
        gp,
        cfg_a: KernelConfig,
        cfg_b: KernelConfig,
        outcome_b: ProfileOutcome,
    ) -> tuple[str, str]:
        """Attribute one (A, B) divergence by single-difference replays."""
        target = outcome_b.signature

        # Single flaw toggles (sorted for determinism).
        differing = sorted(cfg_a.flaws ^ cfg_b.flaws, key=lambda f: f.value)
        for flaw in differing:
            if flaw in cfg_b.flaws:
                candidate = cfg_a.with_flaw(flaw)
            else:
                candidate = cfg_a.without_flaw(flaw)
            obs.metrics().counter("differential.replays")
            if self.verify_under(candidate, gp).signature == target:
                return "known-flaw", flaw.value

        # Single feature toggles.
        for name in _FEATURE_FIELDS:
            value_a, value_b = getattr(cfg_a, name), getattr(cfg_b, name)
            if value_a == value_b:
                continue
            obs.metrics().counter("differential.replays")
            candidate = replace(cfg_a, **{name: value_b})
            if self.verify_under(candidate, gp).signature == target:
                return "feature-gap", name

        # The whole delta at once: A's config with every flaw and
        # feature difference applied is B's config modulo the version
        # string, so a mismatch here means verification depends on
        # something outside the registry — a genuine bug report.
        combined = replace(
            cfg_a,
            flaws=cfg_b.flaws,
            **{name: getattr(cfg_b, name) for name in _FEATURE_FIELDS},
        )
        obs.metrics().counter("differential.replays")
        if self.verify_under(combined, gp).signature == target:
            return "combined", ",".join(
                [f.value for f in differing]
                + [
                    n
                    for n in _FEATURE_FIELDS
                    if getattr(cfg_a, n) != getattr(cfg_b, n)
                ]
            )
        return "unexplained", "outcome not reproduced by any registry delta"

