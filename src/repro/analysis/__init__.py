"""Analysis harness: statistics, sweeps, experiment registry, reporting."""

from repro.analysis.ascii_plot import line_chart
from repro.analysis.experiments import EXPERIMENTS, Experiment, run_experiment
from repro.analysis.programstats import (
    GroupShare,
    ProgramProfile,
    jain_fairness,
    profile_program,
)
from repro.analysis.report import Table, format_value
from repro.analysis.stats import (
    Summary,
    geometric_mean,
    ratio_of_means,
    relative_difference,
    summarize,
)
from repro.analysis.store import (
    CellChange,
    ExperimentRecord,
    ResultStore,
    diff_records,
)
from repro.analysis.sweep import (
    SweepPoint,
    channel_sweep,
    default_channel_points,
    sweep_table,
)

__all__ = [
    "CellChange",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentRecord",
    "GroupShare",
    "ProgramProfile",
    "ResultStore",
    "Summary",
    "SweepPoint",
    "Table",
    "channel_sweep",
    "default_channel_points",
    "diff_records",
    "format_value",
    "geometric_mean",
    "jain_fairness",
    "line_chart",
    "profile_program",
    "ratio_of_means",
    "relative_difference",
    "run_experiment",
    "summarize",
    "sweep_table",
]
