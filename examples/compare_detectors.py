"""Compare framework instantiations and related-work detectors.

For each benchmark, scores a representative set of detectors against
the oracle at one MPL:

- the Dhodapkar & Smith fixed-interval working-set detector,
- a Constant-TW skip-1 detector (this paper),
- an Adaptive-TW skip-1 detector (this paper),
- the Lu et al. average-PC interval detector,
- the Das et al. Pearson-correlation detector.

This reproduces, in miniature, the paper's central claim: skipFactor = 1
and an adaptive trailing window beat the extant fixed-interval designs.

Usage::

    python examples/compare_detectors.py [mpl]
"""

import sys

from repro import DetectorConfig, TrailingPolicy, run_detector
from repro.baseline import solve_baseline
from repro.comparators import run_dhodapkar_smith
from repro.core.decision import build_engine
from repro.experiments.report import render_table
from repro.scoring import score_states
from repro.workloads import load_suite


def main() -> None:
    mpl = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    cw = max(2, mpl // 2)
    window = max(16, mpl // 2)

    suite = load_suite()
    rows = []
    for name, (branch_trace, call_loop) in suite.items():
        oracle_states = solve_baseline(call_loop, mpl=mpl).states()

        def score_of(states):
            return round(score_states(states, oracle_states).score, 3)

        def window_states(family):
            # Each window coloured by its own verdict (no one-window lag).
            config = DetectorConfig(cw_size=window, family=family)
            return build_engine(config).window_states(branch_trace)[0]

        constant = run_detector(
            branch_trace, DetectorConfig(cw_size=cw, threshold=0.6)
        )
        adaptive = run_detector(
            branch_trace,
            DetectorConfig(cw_size=cw, trailing=TrailingPolicy.ADAPTIVE, threshold=0.6),
        )
        rows.append(
            (
                name,
                score_of(run_dhodapkar_smith(branch_trace, window_size=window).states),
                score_of(constant.states),
                score_of(adaptive.states),
                score_of(window_states("lu_dynamo")),
                score_of(window_states("das_pearson")),
            )
        )

    averages = ("average",) + tuple(
        round(sum(row[i] for row in rows) / len(rows), 3) for i in range(1, 6)
    )
    rows.append(averages)
    print(
        render_table(
            ["Benchmark", "Dhodapkar-Smith", "Constant TW", "Adaptive TW",
             "Lu et al.", "Das et al."],
            rows,
            title=f"Detector comparison at MPL={mpl} (CW={cw}, window={window})",
        )
    )


if __name__ == "__main__":
    main()
