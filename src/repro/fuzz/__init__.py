"""BVF — the fuzzer (the paper's primary contribution).

The fuzzer combines three ingredients:

1. **Structured program generation** (:mod:`repro.fuzz.generator`):
   programs are assembled from an init header, a framed body (basic /
   jump / call frames), and an end section, with lightweight register
   tracking so emitted operations are usually *valid* — this is what
   lifts the verifier acceptance rate to ~49% while still producing
   expressive programs.
2. **The test oracle** (:mod:`repro.fuzz.oracle`): indicator #1
   (invalid load/store, captured by the dispatched sanitation) and
   indicator #2 (bugs inside invoked kernel routines, captured by the
   kernel's own self-checks), plus differential triage that attributes
   indicator-#1 findings to a root-cause verifier flaw.
3. **Coverage-guided exploration** (:mod:`repro.fuzz.coverage`,
   :mod:`repro.fuzz.corpus`): kcov-like block probes compiled into
   the verifier's decision modules provide feedback; interesting
   programs are kept and mutated.

Baselines for the paper's comparisons (Syzkaller, Buzzer) live in
:mod:`repro.fuzz.baselines`.
"""

from repro.fuzz.campaign import Campaign, CampaignConfig, CampaignResult
from repro.fuzz.coverage import VerifierCoverage
from repro.fuzz.generator import GeneratorConfig, StructuredGenerator
from repro.fuzz.oracle import BugFinding, Oracle

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "VerifierCoverage",
    "GeneratorConfig",
    "StructuredGenerator",
    "BugFinding",
    "Oracle",
]
