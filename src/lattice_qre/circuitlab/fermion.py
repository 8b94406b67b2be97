"""Jordan-Wigner matrix oracle for a handful of fermionic modes.

Mode j maps to qubit j with a Z-string on all earlier qubits; qubit 0 is
the most significant index bit, consistent with the statevector kernel.
Each a_j is then a signed partial permutation: column x holds one entry,
(-1)^(number of occupied modes before j), at row x - 2^(n-1-j) when mode j
is occupied in x, and nothing otherwise.

The canonical anticommutation relations are verified at construction, so
downstream checks can treat these matrices as ground truth.  The check
reads each dense a_j back as one (row, value) per column and composes the
operators by index lookup, so it needs no dense products: an operator
with two nonzeros in a row or a column is rejected outright, and the
anticommutators of every ordered pair are then exact, with at most three
entries per column.
"""

from __future__ import annotations

import numpy as np

MAX_MODES = 7
CAR_TOLERANCE = 1e-12


def _columns(ops) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) of each column's single entry, stacked over the signed
    partial permutations ``ops``; an empty column reads as value 0 at row 0."""
    rows, values = [], []
    for j, op in enumerate(ops):
        nonzero = op != 0
        for axis, line in ((0, "column"), (1, "row")):
            count = np.count_nonzero(nonzero, axis=axis)
            if count.max() > 1:
                at = int(np.argmax(count))
                raise AssertionError(f"a_{j} is not a signed partial permutation: "
                                     f"{line} {at} holds {count[at]} nonzeros")
        row = np.argmax(nonzero, axis=0)
        rows.append(row)
        values.append(op[row, np.arange(row.size)])
    return np.stack(rows), np.stack(values)


def _adjoint(row: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conjugate transpose: the entry (row[c], c) moves to (c, row[c])."""
    mode, column = np.nonzero(value)
    adj_row = np.zeros_like(row)
    adj_value = np.zeros_like(value)
    adj_row[mode, row[mode, column]] = column
    adj_value[mode, row[mode, column]] = value[mode, column].conj()
    return adj_row, adj_value


def _products(left, right) -> tuple[np.ndarray, np.ndarray]:
    """left_i @ right_j for every ordered pair (i, j), as (row, value) of
    shape (n, n, dim): column c of right_j lands on row k, then left_i
    moves it on."""
    (left_row, left_value), (right_row, right_value) = left, right
    mode = np.arange(left_row.shape[0])[:, None, None]
    k = right_row[None, :, :]
    return left_row[mode, k], left_value[mode, k] * right_value[None, :, :]


def _car_deviation(ops) -> tuple[np.ndarray, np.ndarray]:
    """Worst entry of {a_i, a_j} and of {a_i, a_j^dag} - delta_ij * I for
    every ordered pair: two (n, n) arrays, exact for any stack of signed
    partial permutations.  Raises ``AssertionError`` on any other stack."""
    a = _columns(ops)
    dag = _adjoint(*a)
    n, dim = a[0].shape

    # {a_i, a_j}: a_i a_j and a_j a_i put one entry each in a column
    r1, v1 = _products(a, a)
    r2, v2 = r1.transpose(1, 0, 2), v1.transpose(1, 0, 2)
    anti = np.where(r1 == r2, np.abs(v1 + v2), np.maximum(np.abs(v1), np.abs(v2)))

    # {a_i, a_j^dag} - delta_ij I: a third entry, -1 on the diagonal when i = j
    r1, v1 = _products(a, dag)
    r2, v2 = (x.transpose(1, 0, 2) for x in _products(dag, a))
    column = np.arange(dim)
    v3 = np.where(np.eye(n, dtype=bool)[:, :, None], -1.0, 0.0)

    def entry(r):   # the column's whole value at row r
        return (v1 * (r1 == r) + v2 * (r2 == r)) + v3 * (column == r)

    mixed = np.maximum(np.maximum(np.abs(entry(r1)), np.abs(entry(r2))), np.abs(entry(column)))
    return anti.max(axis=2), mixed.max(axis=2)


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
