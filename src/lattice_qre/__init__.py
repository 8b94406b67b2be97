"""Fault-tolerant quantum resource estimates for Fermi-Hubbard, cuprate,
and pnictide lattice models, via qubitization and second-order Trotter
algorithms, plus a small statevector kernel verifying the circuit gadgets
behind the cost model."""

from .model import (
    CuprateCouplings,
    FermiHubbardCouplings,
    InvalidLattice,
    Model,
    ModelSpec,
    PnictideCouplings,
    default_couplings,
    extensive_error,
    lcu_lambda,
)
from .primitives import CostVector, HwpStrategy
from .qubitization import QubitizationEstimate, estimate, optimize_qubitization
from .trotter_bounds import TrotterBudget, tau_max, trotter_bound, trotter_steps
from .trotter_cost import (Strategy, TrotterEstimate, evaluate, optimize_trotter, step_cost,
                           total_qubits)

__all__ = [
    "CostVector", "CuprateCouplings", "FermiHubbardCouplings", "HwpStrategy",
    "InvalidLattice", "Model", "ModelSpec", "PnictideCouplings",
    "QubitizationEstimate", "Strategy", "TrotterBudget", "TrotterEstimate",
    "default_couplings", "estimate", "evaluate", "extensive_error", "lcu_lambda",
    "optimize_qubitization", "optimize_trotter", "step_cost", "tau_max", "total_qubits",
    "trotter_bound", "trotter_steps",
]

__version__ = "0.1.0"
