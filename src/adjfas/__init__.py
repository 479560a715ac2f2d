"""adjfas: find covariate adjustment sets, or certify that none exists, by
scoring candidates against limited trial summaries combined with a large
observational dataset, with optional correction for a selection-biased trial
population."""

__version__ = "0.1.0"

from .data import (Arm, CategoricalTable, ExperimentSummary, ValidationError,
                   contingency_counts, g2_independence_test, load_experiment,
                   load_observational, save_experiment, save_observational)
from .graph import (Dag, d_separated, forbidden_set, proper_backdoor_graph,
                    satisfies_adjustment_criterion)
from .bayesnet import (BayesNetPosterior, ParamInstantiation, fit_posterior, learn_structure,
                       posterior_mean)
from .score import (ArmScore, EnumerationLimitError, FasConfig, FasResult, Hypothesis,
                    NOT_EXISTS, ScoringError, candidate_pool, find_adjustment_set,
                    prior_log_prob, score_not_exists)
from .selection import SelectionBn, SelectionError, build_selection_bn
from .sim import (BenchmarkReport, GroundTruth, SimConfig, delta_theta, generate_world,
                  run_benchmark, sample_datasets, vws_baseline, write_benchmark_csv,
                  write_benchmark_summary)

__all__ = [
    "Arm", "ArmScore", "BayesNetPosterior", "BenchmarkReport", "CategoricalTable", "Dag",
    "EnumerationLimitError", "ExperimentSummary", "FasConfig", "FasResult", "GroundTruth",
    "Hypothesis", "NOT_EXISTS", "ParamInstantiation", "ScoringError", "SelectionBn",
    "SelectionError", "SimConfig", "ValidationError",
    "build_selection_bn", "candidate_pool", "contingency_counts",
    "d_separated", "delta_theta", "find_adjustment_set", "fit_posterior", "forbidden_set",
    "g2_independence_test", "generate_world", "learn_structure",
    "load_experiment", "load_observational", "posterior_mean", "prior_log_prob",
    "proper_backdoor_graph", "run_benchmark", "sample_datasets",
    "satisfies_adjustment_criterion", "save_experiment", "save_observational",
    "score_not_exists", "vws_baseline",
    "write_benchmark_csv", "write_benchmark_summary",
]
