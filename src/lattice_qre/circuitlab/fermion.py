"""Jordan-Wigner matrix oracle for the few fermionic modes the checks use.

Mode j maps to qubit j with a Z-string on all earlier qubits; qubit 0 is
the most significant index bit, consistent with the statevector kernel.

The canonical anticommutation relations are verified at construction, so
downstream checks can treat these matrices as ground truth.  The gadget
checks build oracles of 2, 4 and 5 modes, so the relations are formed as
dense products of matrices at most 32 x 32, those of a_i with every a_j
at once, one i at a time (``_car_deviation``).  The operators' entries are
0 and +-1, so for them the relations are formed in real arithmetic, where
every product is exact.  The matrices themselves stay complex: ``eigh``
of a real plaquette generator picks another eigenbasis, which moves the
plaquette check's deviation.
"""

from __future__ import annotations

import numpy as np

MAX_MODES = 5
CAR_TOLERANCE = 1e-12


def _car_deviation(ops) -> tuple[np.ndarray, np.ndarray]:
    """Worst entry of {a_i, a_j} and of {a_i, a_j^dag} - delta_ij * I for
    every ordered pair (i, j): two (n, n) arrays.  Operators without an
    imaginary part (the Jordan-Wigner ones) are multiplied in real
    arithmetic.  The products are formed one row i at a time, as (n, d, d)
    arrays, since the (n, n, d, d) ones of all pairs at once cost more in
    memory traffic than in arithmetic."""
    a = np.stack(ops)
    if not a.imag.any():
        a = np.ascontiguousarray(a.real)
    n, dim = a.shape[:2]
    dag = np.ascontiguousarray(a.conj().transpose(0, 2, 1))
    rows = []
    for i, op in enumerate(a):
        anti, mixed = op @ a + a @ op, op @ dag + dag @ op
        mixed[i] -= np.eye(dim)
        rows.append([np.abs(x).reshape(n, -1).max(axis=1) for x in (anti, mixed)])
    return tuple(np.array(rows).transpose(1, 0, 2))


class FermionOracle:
    def __init__(self, n_modes: int):
        if not 1 <= n_modes <= MAX_MODES:
            raise ValueError(f"n_modes must be in [1, {MAX_MODES}]")
        self.n_modes = n_modes
        self.dim = 1 << n_modes
        self._a = [self._annihilation(j) for j in range(n_modes)]
        self.car_deviation = self._verify_car()

    def _annihilation(self, j: int) -> np.ndarray:
        column = np.arange(self.dim)
        bit = 1 << (self.n_modes - 1 - j)
        earlier = (self.dim - 1) & -(bit << 1)   # the bits of modes 0..j-1
        occupied = column[(column & bit) != 0]
        op = np.zeros((self.dim, self.dim), dtype=complex)
        op[occupied ^ bit, occupied] = 1.0 - 2.0 * (np.bitwise_count(occupied & earlier) & 1)
        return op

    def _verify_car(self) -> float:
        """Raise ``AssertionError`` naming the first failing pair (i, j);
        return the worst deviation over all pairs and both relations."""
        anti, mixed = _car_deviation(self._a)
        tol = CAR_TOLERANCE
        failing = np.argwhere((anti > tol) | (mixed > tol))   # in (i, j) order
        if failing.size:
            i, j = failing[0]
            if anti[i, j] > tol:
                raise AssertionError(f"{{a_{i}, a_{j}}} != 0 (deviation {anti[i, j]:.3g})")
            raise AssertionError(f"{{a_{i}, a_{j}^dag}} != delta (deviation {mixed[i, j]:.3g})")
        return float(max(anti.max(), mixed.max()))

    def a(self, j: int) -> np.ndarray:
        return self._a[j]

    def mode_combination(self, coeffs) -> np.ndarray:
        """Annihilation operator of the mode sum_j coeffs[j] * a_j."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c, op in zip(coeffs, self._a):
            if c:
                out = out + c * op
        return out
