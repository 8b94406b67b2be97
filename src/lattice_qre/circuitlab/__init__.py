"""Small statevector kernels, sparse and dense, for verifying the circuit
gadgets that the cost model counts: adders, Hamming-weight phasing,
fermionic swaps, two-site fermionic Fourier transforms, and plaquette
evolutions."""

from .statevector import Circuit, Gate, GateKind, apply_circuit
from .fermion import FermionOracle
from . import gadgets, verify

__all__ = [
    "Circuit", "Gate", "GateKind", "apply_circuit",
    "FermionOracle", "gadgets", "verify",
]
