"""Table 3 (RQ2): final branch-coverage statistics per kernel version.

Paper result (covered branches over 48h, average of 3 runs):

    version    BVF     Syzkaller (+%)   Buzzer (+%)
    v5.15      50192   41433 (+17.5%)    9176 (+447.0%)
    v6.1       67348   56458 (+16.2%)   10059 (+569.5%)
    bpf-next   65176   52295 (+19.8%)    9271 (+603.0%)

Absolute counts are kcov branches of the kernel verifier; ours are
block edges of the Python verifier, so only the *relative improvements*
are the reproduction target: BVF ahead of Syzkaller by a modest double-
digit percentage, and ahead of Buzzer by several hundred percent.
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis.stats import coverage_improvement

from _campaigns import TOOLS, VERSIONS, grid_results

PAPER_TABLE3 = {
    "v5.15": {"bvf": 50192, "syzkaller": 41433, "buzzer": 9176},
    "v6.1": {"bvf": 67348, "syzkaller": 56458, "buzzer": 10059},
    "bpf-next": {"bvf": 65176, "syzkaller": 52295, "buzzer": 9271},
}


def _mean_final(tool: str, version: str) -> float:
    return statistics.mean(
        r.final_coverage for r in grid_results(tool, version)
    )


@pytest.mark.benchmark(group="table3")
def test_coverage_statistics(benchmark):
    measured = benchmark.pedantic(
        lambda: {
            v: {t: _mean_final(t, v) for t in TOOLS} for v in VERSIONS
        },
        rounds=1,
        iterations=1,
    )

    print("\n=== Table 3 reproduction (edge coverage, mean of 3) ===")
    print(f"{'version':<10} {'BVF':>8} {'Syzkaller':>12} {'Buzzer':>10}"
          f" {'vs-syz':>8} {'vs-buzz':>9}")
    overall = {t: 0.0 for t in TOOLS}
    for version in VERSIONS:
        row = measured[version]
        for t in TOOLS:
            overall[t] += row[t] / len(VERSIONS)
        vs_syz = coverage_improvement(row["bvf"], row["syzkaller"])
        vs_buzz = coverage_improvement(row["bvf"], row["buzzer"])
        paper = PAPER_TABLE3[version]
        paper_syz = coverage_improvement(paper["bvf"], paper["syzkaller"])
        paper_buzz = coverage_improvement(paper["bvf"], paper["buzzer"])
        print(
            f"{version:<10} {row['bvf']:>8.0f} {row['syzkaller']:>12.0f} "
            f"{row['buzzer']:>10.0f} {vs_syz:>+7.1f}% {vs_buzz:>+8.1f}%"
            f"   (paper: {paper_syz:+.1f}% / {paper_buzz:+.1f}%)"
        )

    print(f"overall    {overall['bvf']:>8.0f} {overall['syzkaller']:>12.0f} "
          f"{overall['buzzer']:>10.0f}")

    for version in VERSIONS:
        row = measured[version]
        # Shape: BVF beats Syzkaller on every version...
        assert row["bvf"] > row["syzkaller"], version
        # ...and beats Buzzer by a large factor (paper: 5.4x overall).
        assert row["bvf"] / row["buzzer"] > 1.5, version

    # Overall improvement over Syzkaller is a modest double-digit gap,
    # not a blowout (paper: +17.5%) — check it is in a sane band.
    overall_gain = coverage_improvement(overall["bvf"], overall["syzkaller"])
    print(f"overall BVF-vs-Syzkaller: {overall_gain:+.1f}% (paper +17.5%)")
    assert 3.0 <= overall_gain <= 120.0
