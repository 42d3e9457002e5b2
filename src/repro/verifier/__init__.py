"""The eBPF verifier.

A from-scratch Python re-implementation of the Linux eBPF verifier's
analysis core — the system under test in the paper.  It models:

- per-register abstract state: tristate numbers (:mod:`repro.verifier.tnum`)
  plus 64-bit and 32-bit signed/unsigned bounds,
- more than ten pointer types (stack, ctx, map value, nullable map
  value, packet, BTF object, mem, ...),
- stack-slot tracking with spill/fill,
- path-sensitive exploration with state pruning and a complexity
  budget,
- branch-based bounds refinement, pointer-nullness marking, and the
  nullness-propagation pass of commit bfeae75856ab (whose incomplete
  filter is Bug #1),
- helper/kfunc call checking against typed prototypes,
- the fixup/rewrite phase (map address resolution, PROBE_MEM marking,
  ``alu_limit`` computation) into which BVF's sanitizer hooks.

Injectable flaws (see :mod:`repro.kernel.config`) reproduce the paper's
Table-2 verifier bugs so the oracle has ground truth to discover.
"""

from repro.verifier.core import Verifier

__all__ = ["Verifier"]
