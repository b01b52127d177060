"""The evaluation harness: profiles, sweeps, and table/figure generators.

One sweep over the parameter grid feeds every table and figure; records
are cached on disk so regeneration is cheap.  Typical use::

    from repro.experiments import Sweep, DEFAULT, paper_grid, tables, figures

    sweep = Sweep(DEFAULT)
    records = sweep.ensure(paper_grid(DEFAULT), progress=True)
    print(tables.table_1b(sweep).render())
    print(figures.figure_4(records).render())
"""

from repro.experiments import detail, figures, tables
from repro.experiments.client_model import ClientModel, MplOutcome, best_mpl, sweep_mpl
from repro.experiments.export import records_from_csv, records_to_csv
from repro.experiments.generate import generate_all
from repro.experiments.overhead import OverheadReport, measure_overhead, overhead_comparison
from repro.experiments.robustness import RobustnessPoint, degradation, noise_robustness
from repro.experiments.aggregate import (
    average_best_score,
    best_by,
    mean,
    percent_improvement,
)
from repro.experiments.config_space import (
    CW_NOMINALS,
    DEFAULT,
    MPL_NOMINALS,
    MPL_NOMINALS_EXTENDED,
    MPL_NOMINALS_FIGURES,
    PAPER,
    PROFILES,
    QUICK,
    ConfigSpec,
    SuiteProfile,
    grid_size,
    paper_grid,
)
from repro.experiments.parallel import ParallelSweepExecutor, resolve_jobs
from repro.experiments.report import nominal_label, render_table
from repro.experiments.runner import BaselineSet, SweepRecord
from repro.experiments.sweep import Sweep

__all__ = [
    "detail",
    "figures",
    "tables",
    "ClientModel",
    "MplOutcome",
    "best_mpl",
    "sweep_mpl",
    "records_from_csv",
    "records_to_csv",
    "generate_all",
    "OverheadReport",
    "measure_overhead",
    "overhead_comparison",
    "RobustnessPoint",
    "degradation",
    "noise_robustness",
    "average_best_score",
    "best_by",
    "mean",
    "percent_improvement",
    "CW_NOMINALS",
    "MPL_NOMINALS",
    "MPL_NOMINALS_EXTENDED",
    "MPL_NOMINALS_FIGURES",
    "DEFAULT",
    "PAPER",
    "QUICK",
    "PROFILES",
    "ConfigSpec",
    "SuiteProfile",
    "grid_size",
    "paper_grid",
    "nominal_label",
    "render_table",
    "BaselineSet",
    "SweepRecord",
    "Sweep",
    "ParallelSweepExecutor",
    "resolve_jobs",
]
