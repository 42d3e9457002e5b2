"""Cross-version differential verification oracle.

The paper's indicators all require *executing* an accepted program
(Section 3), but a verifier bug can also show in what the verifier
concludes, with no execution at all.  This module finds those: verify
the same decoded program under several kernel-version profiles
(`kernel/config.py`) and compare what the verifier *concluded* — the
accept/reject verdict and the final abstract range state of R0 at every
program exit (register bounds plus tnum masks).  Any disagreement is a
**divergence**, and a divergence between two verifiers looking at the
same program is evidence that at least one of them is wrong (BRF's
semantic-correctness angle, PAPERS.md).

Divergences are then *classified* against the injected-flaw registry.
The facts the two profiles differ on (flaws, then feature fields) are
set on profile A's config as profile B has them, singletons first,
then pairs, until one set reproduces B's outcome
(:func:`~repro.kernel.config.smallest_fix`); only when none does is
the whole delta replayed:

- ``known-flaw`` — one :class:`~repro.kernel.config.Flaw` the profiles
  disagree on reproduces the other profile's outcome.  These make the
  registry a regression oracle: every flaw that manifests as a
  verdict/range divergence is detected statically, under its own id.
- ``feature-gap`` — one or two feature fields (kfunc support, the
  nullness-propagation pass, ...) explain the difference; expected
  version skew, not a bug.
- ``combined`` — a pair with at least one flaw, or only the full
  flaw+feature delta, explains it (the profiles differ in several
  interacting ways); explained, but with no single root cause.
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

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro import obs
from repro.ebpf.program import BpfProgram
from repro.errors import BpfError, VerifierReject
from repro.kernel.config import PROFILES, Flaw, KernelConfig, smallest_fix
from repro.kernel.syscall import replay_kernel
from repro.obs.taxonomy import classify
from repro.verifier.core import Verifier

__all__ = [
    "DEFAULT_PROFILES",
    "ProfileOutcome",
    "Divergence",
    "DifferentialOracle",
    "recording_reads",
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
    #: the flaw values / feature field names backing the classification,
    #: joined by ``,``
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


#: Marks a record whose verification read the config in a way no single
#: fact covers.
_POISONED = "<poisoned>"


class _ReadRecorder:
    """A read-recording view of a :class:`KernelConfig`.

    A *fact* is one ``has_flaw(f)`` answer (recorded under ``f``) or one
    feature-field value (recorded under the field name).  Any other
    read — the whole ``flaws`` set, ``verifier_flaws()``,
    ``with_flaw``, ``version``, equality or hashing — cannot be pinned
    to a single fact, so it poisons the record.  ``dataclasses.replace``
    refuses the view outright, since it is not a dataclass.
    """

    __slots__ = ("_config", "_reads")

    def __init__(self, config: KernelConfig, reads: dict) -> None:
        self._config = config
        self._reads = reads

    def has_flaw(self, flaw: Flaw) -> bool:
        value = self._config.has_flaw(flaw)
        self._reads[flaw] = value
        return value

    def __getattr__(self, name: str):
        value = getattr(self._config, name)
        if name in _FEATURE_FIELDS:
            self._reads[name] = value
        else:
            self._reads[_POISONED] = name
        return value

    def __eq__(self, other) -> bool:
        self._reads[_POISONED] = "__eq__"
        return self._config == other

    def __hash__(self) -> int:
        self._reads[_POISONED] = "__hash__"
        return hash(self._config)


@contextmanager
def recording_reads(kernel, reads: dict):
    """Record into ``reads`` every config fact ``kernel`` is asked for.

    For the ``with`` block, ``kernel.config`` and ``kernel.helpers``'
    config become a :class:`_ReadRecorder` view; both are restored on
    exit.  A boot reads no config (DESIGN §5j) and neither does map
    creation, so recording one ``prog_load`` of an already booted
    kernel covers all that load's verdict depends on.
    """
    config = kernel.config
    kernel.config = kernel.helpers.config = _ReadRecorder(config, reads)
    try:
        yield
    finally:
        kernel.config = kernel.helpers.config = config


def _load_record(reads: dict, result) -> tuple | None:
    """The memo record ``(reads, outcome, counter)`` of an outside load.

    ``reads`` are what :func:`recording_reads` collected over the load,
    ``result`` the :class:`VerifiedProgram` it returned or the
    :class:`BpfError` it raised.  The outcome is built the way
    :meth:`DifferentialOracle.verify_under` builds one.  ``None`` for
    poisoned reads.
    """
    if _POISONED in reads:
        return None
    if isinstance(result, BpfError):
        outcome = ProfileOutcome(profile="", verdict="reject",
                                 reason=classify(result.message))
    else:
        outcome = ProfileOutcome(profile="", verdict="accept",
                                 fingerprint=_fingerprint(result))
    return reads, outcome, "differential.primary"


def _fingerprint(verified) -> tuple:
    """The sorted multiset of exit-R0 range summaries (bounds plus tnum)
    of a :class:`VerifiedProgram`, canonical across profiles even when
    DFS path order differs."""
    return tuple(sorted(
        (r0.umin, r0.umax, r0.smin, r0.smax, r0.var_off.value,
         r0.var_off.mask)
        for r0 in verified.exit_r0
    ))


def _agrees(config: KernelConfig, reads: dict) -> bool:
    """True if ``config`` answers every recorded fact the same way."""
    for fact, value in reads.items():
        if isinstance(fact, Flaw):
            if config.has_flaw(fact) != value:
                return False
        elif getattr(config, fact) != value:
            return False
    return True


class DifferentialOracle:
    """Verifies each program under N profiles and explains divergences.

    Within one :meth:`run`, an outcome is answered from an earlier
    verification of the same program (the caller's own load of it
    included) when the asked config agrees with that verification's
    config on every fact it read (DESIGN §5e).
    """

    def __init__(self, profiles: tuple[str, ...] = DEFAULT_PROFILES) -> None:
        self.configs: dict[str, KernelConfig] = {
            name: PROFILES[name]() for name in profiles
        }

    # ------------------------------------------------------------ outcomes --

    def verify_under(self, config: KernelConfig, gp, profile: str = "",
                     reads: dict | None = None) -> ProfileOutcome:
        """One profile's verdict + final-range fingerprint for ``gp``.

        The program is **not executed**; only the verifier runs.  The
        fingerprint is :func:`_fingerprint` of the verified program.
        With ``reads``, every config fact the kernel boot, the map
        creation and the verifier read is recorded into it.
        """
        view = config if reads is None else _ReadRecorder(config, reads)
        kernel = replay_kernel(view, gp)
        prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type)
        verifier = Verifier(kernel, prog, sanitize=False)
        try:
            verified = verifier.verify()
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
            fingerprint=_fingerprint(verified),
        )

    def _outcome(self, config: KernelConfig, gp, memo: list,
                 profile: str = "") -> ProfileOutcome:
        """``verify_under``, answered from ``memo`` where a record agrees.

        ``memo`` holds ``(reads, outcome, counter)`` of this program's
        earlier verifications, in order; a poisoned one is never added.
        ``counter`` names the metric an answer from the record counts
        toward.
        """
        for recorded, outcome, counter in memo:
            if _agrees(config, recorded):
                obs.metrics().counter(counter)
                return replace(outcome, profile=profile or config.version)
        reads: dict = {}
        outcome = self.verify_under(config, gp, profile=profile, reads=reads)
        if _POISONED not in reads:
            memo.append((reads, outcome, "differential.reused"))
        return outcome

    # ---------------------------------------------------------- divergence --

    def run(self, gp, iteration: int = -1,
            primary: tuple | None = None) -> list["Divergence"]:
        """All pairwise divergences for one generated program.

        ``primary`` is ``(reads, result)`` of a ``prog_load`` of ``gp``
        made under :func:`recording_reads`, ``result`` being what it
        returned or the :class:`BpfError` it raised: the first record
        asked, whose answers count as ``differential.primary``.
        """
        names = sorted(self.configs)
        # Records of this program only: never kept past this call.
        memo: list = []
        if primary is not None:
            record = _load_record(*primary)
            if record is not None:
                memo.append(record)
        outcomes = {
            name: self._outcome(self.configs[name], gp, memo, profile=name)
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
                    gp, self.configs[name_a], self.configs[name_b], b, memo
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
        memo: list,
    ) -> tuple[str, str]:
        """Attribute one (A, B) divergence to the smallest set of registry
        differences that, set on A's config as B has them, reproduces
        B's outcome (:func:`~repro.kernel.config.smallest_fix`)."""
        target = outcome_b.signature
        # Differing flaws (sorted for determinism), then feature fields.
        facts = sorted(cfg_a.flaws ^ cfg_b.flaws, key=lambda f: f.value) + [
            name for name in _FEATURE_FIELDS
            if getattr(cfg_a, name) != getattr(cfg_b, name)
        ]

        def toward_b(toggled) -> KernelConfig:
            flaws = {fact for fact in toggled if isinstance(fact, Flaw)}
            return replace(
                cfg_a,
                flaws=(cfg_a.flaws - flaws) | (cfg_b.flaws & flaws),
                **{name: getattr(cfg_b, name)
                   for name in toggled if not isinstance(name, Flaw)},
            )

        def reproduces(toggled) -> bool:
            obs.metrics().counter("differential.replays")
            outcome = self._outcome(toward_b(toggled), gp, memo)
            return outcome.signature == target

        fix = smallest_fix(facts, reproduces)
        if fix is not None:
            if not any(isinstance(fact, Flaw) for fact in fix):
                classification = "feature-gap"
            elif len(fix) == 1:
                classification = "known-flaw"
            else:
                classification = "combined"
            return classification, _explanation(fix)

        # The whole delta at once: A's config with every flaw and
        # feature difference applied is B's config modulo the version
        # string, so a mismatch here means verification depends on
        # something outside the registry — a genuine bug report.  It is
        # always verified: recorded reads cover only registry facts,
        # which is exactly what this replay must not assume.
        obs.metrics().counter("differential.replays")
        if self.verify_under(toward_b(facts), gp).signature == target:
            return "combined", _explanation(facts)
        return "unexplained", "outcome not reproduced by any registry delta"


def _explanation(facts) -> str:
    """Flaw values and feature field names, joined by ``,``."""
    return ",".join(
        fact.value if isinstance(fact, Flaw) else fact for fact in facts
    )
