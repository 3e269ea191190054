"""Independent numeric oracles used by the test suite.

The finite-difference torsion oracle rebuilds the Nijenhuis table from entry
values and central-difference entry partials only, then contracts the
Haantjes formula through that table with plain matrix arithmetic; it shares
no code path with the symbolic differentiation it cross-checks.
"""

import numpy as np

from haantjes.symexpr import eval_numeric
from haantjes.torsion import haantjes_torsion, nijenhuis_torsion


def numeric_matrix(k, pt, shift=None, h=1e-5, params=None, fn_bindings=None):
    chart = k.chart
    pt2 = dict(pt)
    if shift is not None:
        pt2[chart.coords[shift[0]]] += shift[1]
    return np.array([
        [eval_numeric(e, pt2, params, fn_bindings) for e in row] for row in k.matrix
    ])


def fd_nijenhuis_table(k, pt, h=1e-5, params=None, fn_bindings=None):
    """tau^c_ab from finite differences of the operator entries."""
    n = k.chart.dim
    k0 = numeric_matrix(k, pt, params=params, fn_bindings=fn_bindings)
    dk = [
        (numeric_matrix(k, pt, (m, h), params=params, fn_bindings=fn_bindings)
         - numeric_matrix(k, pt, (m, -h), params=params, fn_bindings=fn_bindings)) / (2 * h)
        for m in range(n)
    ]
    tau = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for c in range(n):
                acc = 0.0
                for m in range(n):
                    acc += k0[m][i] * dk[m][c][j] - k0[m][j] * dk[m][c][i]
                    acc -= k0[c][m] * (dk[i][m][j] - dk[j][m][i])
                tau[i][j][c] = acc
    return k0, tau


def fd_haantjes_table(k0, tau):
    """H^c_ab by contracting the FD Nijenhuis table (tensoriality)."""
    n = k0.shape[0]
    h_fd = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            term = k0 @ (k0 @ tau[i][j])
            for a in range(n):
                for b in range(n):
                    term = term + k0[a][i] * k0[b][j] * tau[a][b]
            mid = np.zeros(n)
            for b in range(n):
                mid = mid + k0[b][j] * tau[i][b] + k0[b][i] * tau[b][j]
            h_fd[i][j] = term - k0 @ mid
    return h_fd


def symbolic_torsions(k):
    """(Nijenhuis, Haantjes) frame tables of k, computed once per operator."""
    return nijenhuis_torsion(k), haantjes_torsion(k)


def torsions_match_fd(k, pt, torsions, tol=1e-5, params=None, fn_bindings=None):
    """Relative agreement of the symbolic torsions of k, as returned by
    ``symbolic_torsions(k)``, with FD torsions at one point."""
    n = k.chart.dim
    k0, tau_fd = fd_nijenhuis_table(k, pt, params=params, fn_bindings=fn_bindings)
    h_fd = fd_haantjes_table(k0, tau_fd)
    tau_sym, h_sym = torsions
    scale_t = max(1.0, np.max(np.abs(tau_fd)))
    scale_h = max(1.0, np.max(np.abs(h_fd)))
    for i in range(n):
        for j in range(i + 1, n):
            for c in range(n):
                sym = eval_numeric(tau_sym[(i, j)][c], pt, params, fn_bindings)
                if abs(sym - tau_fd[i][j][c]) / scale_t > tol:
                    return False
                sym_h = eval_numeric(h_sym[(i, j)][c], pt, params, fn_bindings)
                if abs(sym_h - h_fd[i][j][c]) / scale_h > tol:
                    return False
    return True
