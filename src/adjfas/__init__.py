"""adjfas: find covariate adjustment sets, or certify that none exists, by
scoring candidates against limited trial summaries combined with a large
observational dataset, with optional correction for a selection-biased trial
population."""

__version__ = "0.1.0"

from .data import (Arm, CategoricalTable, ExperimentSummary, ParseError, SchemaError,
                   ValidationError, contingency_counts, g2_independence_test,
                   load_experiment, load_observational, save_experiment, save_observational)
from .graph import (Admg, GraphError, forbidden_set, m_separated, proper_backdoor_graph,
                    satisfies_adjustment_criterion)
from .bayesnet import (BayesNetPosterior, ParamInstantiation, ZeroEvidenceError,
                       fit_posterior, infer_conditional, joint_marginal, learn_structure,
                       posterior_mean, sample_parameters)
from .score import (ArmScore, EnumerationLimitError, FasConfig, FasResult, Hypothesis,
                    NOT_EXISTS, ScoringError, candidate_pool, find_adjustment_set,
                    prior_log_prob, score_exp_arm, score_not_exists)
from .selection import (InfeasibleSelectionError, SelectionBn, SelectionError,
                        SolverConvergenceError, build_selection_bn, selected_conditional)
from .sim import (BenchmarkReport, GroundTruth, SimConfig, delta_theta, generate_world,
                  run_benchmark, sample_datasets, true_interventional, vws_baseline,
                  write_benchmark_csv, write_benchmark_summary)

__all__ = [
    "Admg", "Arm", "ArmScore", "BayesNetPosterior", "BenchmarkReport", "CategoricalTable",
    "EnumerationLimitError", "ExperimentSummary", "FasConfig", "FasResult", "GraphError",
    "GroundTruth", "Hypothesis", "InfeasibleSelectionError", "NOT_EXISTS",
    "ParamInstantiation", "ParseError", "SchemaError", "ScoringError", "SelectionBn",
    "SelectionError", "SimConfig", "SolverConvergenceError", "ValidationError",
    "ZeroEvidenceError", "build_selection_bn", "candidate_pool", "contingency_counts",
    "delta_theta", "find_adjustment_set", "fit_posterior", "forbidden_set",
    "g2_independence_test", "generate_world", "infer_conditional", "joint_marginal",
    "learn_structure", "load_experiment", "load_observational", "m_separated",
    "posterior_mean", "prior_log_prob",
    "proper_backdoor_graph", "run_benchmark", "sample_datasets", "sample_parameters",
    "satisfies_adjustment_criterion", "save_experiment", "save_observational",
    "score_exp_arm", "score_not_exists", "true_interventional", "vws_baseline",
    "write_benchmark_csv", "write_benchmark_summary",
]
