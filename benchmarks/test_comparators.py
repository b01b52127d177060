"""Related-work comparison (Section 6, quantified).

Scores the three extant detectors against the framework's best
skip-1 instantiations on every benchmark at one mid-range MPL,
reproducing the paper's qualitative related-work claims as a table.
Lu et al. and Das et al. are scored on their retroactive per-window
colouring (``PerWindowEngine.window_states``).
"""

from conftest import publish

from repro.baseline.oracle import solve_baseline
from repro.comparators import run_dhodapkar_smith
from repro.core.config import DetectorConfig, TrailingPolicy
from repro.core.decision import build_engine
from repro.core.engine import run_detector
from repro.experiments.aggregate import mean
from repro.experiments.report import nominal_label, render_table
from repro.scoring.metric import score_states


def test_related_work_comparison(benchmark, sweep, profile, results_dir):
    mpl_nominal = 10_000
    mpl = profile.actual(mpl_nominal)
    cw = max(2, mpl // 2)
    window = max(16, mpl // 2)

    columns = {}
    rows = []
    for name in sweep.benchmarks:
        branch_trace, call_loop = sweep.traces[name]
        oracle_states = solve_baseline(call_loop, mpl).states()

        def scored(states):
            return score_states(states, oracle_states).score

        def window_states(family):
            config = DetectorConfig(cw_size=window, family=family)
            return build_engine(config).window_states(branch_trace)[0]

        scores = {
            "Dhodapkar-Smith": scored(
                run_dhodapkar_smith(branch_trace, window_size=window).states
            ),
            "Lu et al.": scored(window_states("lu_dynamo")),
            "Das et al.": scored(window_states("das_pearson")),
            "Constant TW": scored(
                run_detector(
                    branch_trace, DetectorConfig(cw_size=cw, threshold=0.6)
                ).states
            ),
            "Adaptive TW": scored(
                run_detector(
                    branch_trace,
                    DetectorConfig(
                        cw_size=cw, trailing=TrailingPolicy.ADAPTIVE, threshold=0.6
                    ),
                ).states
            ),
        }
        for label, value in scores.items():
            columns.setdefault(label, []).append(value)
        rows.append((name, *(round(scores[k], 3) for k in scores)))

    labels = list(columns)
    rows.append(("average", *(round(mean(columns[k]), 3) for k in labels)))
    table = render_table(
        ["Benchmark"] + labels,
        rows,
        title=(
            f"Related-work comparison at MPL={nominal_label(mpl_nominal)} "
            f"(CW={cw}, comparator window={window})"
        ),
    )
    publish(results_dir, "comparators", table)

    # The paper's Section 6 claims, on average over the suite:
    # skip-1 framework detectors beat the fixed-window related work.
    framework_best = max(mean(columns["Constant TW"]), mean(columns["Adaptive TW"]))
    for extant in ("Dhodapkar-Smith", "Lu et al.", "Das et al."):
        assert framework_best > mean(columns[extant]), extant

    name = sweep.benchmarks[0]
    branch_trace, _ = sweep.traces[name]
    benchmark(run_dhodapkar_smith, branch_trace, window)
