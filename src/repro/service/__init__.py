"""Batch analysis service: parallel DSE job running + per-worker query cache.

The orchestration layer the paper's evaluation implies (1,131 packages,
1-hour budgets, fleets of machines): a JSON-serializable job model, a
``multiprocessing`` worker-pool runner, a solver query cache keyed on
canonical formula fingerprints, and corpus-level report aggregation.
"""

from repro.solver.backends.cached import (
    CachedResult,
    CachedSolver,
    QueryCache,
)
from repro.service.jobs import (
    AnalyzeJob,
    FuzzJob,
    JobResult,
    SolveJob,
    SurveyJob,
    analyze_jobs_from_files,
    fuzz_workload,
    job_from_spec,
    survey_workload,
)
from repro.service.report import (
    BatchReport,
    format_analyze_table,
    format_backend_table,
    format_batch_report,
    format_soundness_table,
    merge_analyze,
    merge_automata_counters,
    merge_backend_tallies,
    merge_disagreement_tallies,
    merge_fuzz,
    merge_solve,
    merge_survey,
)
from repro.service.runner import BatchRunner, RunnerConfig

__all__ = [
    "AnalyzeJob",
    "BatchReport",
    "BatchRunner",
    "CachedResult",
    "CachedSolver",
    "FuzzJob",
    "JobResult",
    "QueryCache",
    "RunnerConfig",
    "SolveJob",
    "SurveyJob",
    "analyze_jobs_from_files",
    "format_analyze_table",
    "format_backend_table",
    "format_batch_report",
    "format_soundness_table",
    "fuzz_workload",
    "job_from_spec",
    "merge_analyze",
    "merge_automata_counters",
    "merge_backend_tallies",
    "merge_disagreement_tallies",
    "merge_fuzz",
    "merge_solve",
    "merge_survey",
    "survey_workload",
]
