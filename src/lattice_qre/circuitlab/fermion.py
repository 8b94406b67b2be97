"""Jordan-Wigner matrix oracle for a handful of fermionic modes.

Mode j maps to qubit j with a Z-string on all earlier qubits; qubit 0 is
the most significant index bit, consistent with the statevector kernel.
The canonical anticommutation relations are verified at construction, so
downstream checks can treat these matrices as ground truth.
"""

from __future__ import annotations

import numpy as np

MAX_MODES = 7

_I2 = np.eye(2, dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


class FermionOracle:
    def __init__(self, n_modes: int):
        if not 1 <= n_modes <= MAX_MODES:
            raise ValueError(f"n_modes must be in [1, {MAX_MODES}]")
        self.n_modes = n_modes
        self.dim = 1 << n_modes
        self._a = [self._annihilation(j) for j in range(n_modes)]
        self._verify_car()

    def _annihilation(self, j: int) -> np.ndarray:
        op = np.eye(1, dtype=complex)
        for q in range(self.n_modes):
            factor = _Z if q < j else _LOWER if q == j else _I2
            op = np.kron(op, factor)
        return op

    def _verify_car(self, tol: float = 1e-12) -> None:
        eye = np.eye(self.dim)
        for i in range(self.n_modes):
            for j in range(self.n_modes):
                anti = self._a[i] @ self._a[j] + self._a[j] @ self._a[i]
                if np.max(np.abs(anti)) > tol:
                    raise AssertionError(f"{{a_{i}, a_{j}}} != 0")
                mixed = self._a[i] @ self._a[j].conj().T + self._a[j].conj().T @ self._a[i]
                target = eye if i == j else 0.0 * eye
                if np.max(np.abs(mixed - target)) > tol:
                    raise AssertionError(f"{{a_{i}, a_{j}^dag}} != delta")

    def a(self, j: int) -> np.ndarray:
        return self._a[j]

    def mode_combination(self, coeffs) -> np.ndarray:
        """Annihilation operator of the mode sum_j coeffs[j] * a_j."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c, op in zip(coeffs, self._a):
            if c:
                out = out + c * op
        return out
