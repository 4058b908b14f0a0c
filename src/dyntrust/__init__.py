"""Trust-region minimization with dynamically accurate evaluations.

The optimizer requests objective values and derivative tensors at absolute
accuracies it chooses before each call, certifies Taylor-model decrements to
relative or absolute accuracy, and tightens accuracies geometrically only
when certification fails.  Worst-case iteration and evaluation bounds are
available in closed form and every run can be audited against them.
"""

from .bounds import BoundConstants, compute_bounds
from .driver import (AuditReport, ConfigError, RunResult, RunTrace, TrConfig,
                     check_history, run)
from .harness import (RunSpec, cost_savings_report, eps_scaling_study,
                      execute_run, read_events_csv, read_history_csv,
                      write_events_csv, write_history_csv, write_summary_json)
from .model import (make_bundle, model_gradient, operator_norm, sym_tensor,
                    taylor_decrement, taylor_value, tensor_apply)
from .optimality import (AccuracyLedger, CertificationError, CertifiedDecrement,
                         certified_decrement, max_decrement, termination_test)
from .oracle import EvalLedger, InexactOracle, NonFiniteEvaluation, Problem
from .problems import list_problems, make_problem
from .reference import lipschitz_estimate, phi_reference
from .step import StepResult, compute_step
from .verify import VerifyOutcome, verify

__version__ = "0.1.0"

__all__ = [
    "AccuracyLedger", "AuditReport", "BoundConstants",
    "CertificationError", "CertifiedDecrement", "ConfigError",
    "EvalLedger", "InexactOracle", "NonFiniteEvaluation", "Problem",
    "RunResult", "RunSpec", "RunTrace", "StepResult",
    "TrConfig", "VerifyOutcome", "certified_decrement", "check_history",
    "compute_bounds", "compute_step",
    "cost_savings_report", "eps_scaling_study", "execute_run",
    "lipschitz_estimate", "list_problems", "make_bundle",
    "make_problem", "max_decrement", "model_gradient", "operator_norm",
    "phi_reference", "read_events_csv", "read_history_csv", "run", "sym_tensor",
    "taylor_decrement", "taylor_value", "tensor_apply", "termination_test",
    "verify", "write_events_csv", "write_history_csv", "write_summary_json",
]
