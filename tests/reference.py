"""Independent scalar references for library code written in vector form.

Adaptive Simpson quadrature and the integrals z and h1 evaluated with it, one
point at a time, for the special functions in ``ocrslab.bounds``; and the
pricing LP built one constraint row at a time, for ``lp.build_lp_pricing``.
The tests compare the library against these references.
"""

import math

import numpy as np

from ocrslab.lp import objective_coefficients

QUAD_TOL = 1e-10

# z(0) analytic limit: 1/8 - 1/(8 e^4) - 1/(2 e^2)
Z0 = 0.125 - 0.125 * math.exp(-4.0) - 0.5 * math.exp(-2.0)


def quadrature(f, a: float, b: float, tol: float = QUAD_TOL) -> float:
    """Adaptive Simpson integral of f over [a, b], absolute tolerance tol."""
    if not tol > 0:
        raise ValueError("quadrature: tol must be positive")

    def _eval(t: float) -> float:
        v = f(t)
        if not math.isfinite(v):
            raise ArithmeticError(f"quadrature: non-finite sample f({t}) = {v}")
        return v

    def _simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = _eval(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def _recurse(x0, f0, x2, f2, whole, x1, f1, eps, depth):
        lm, flm, left = _simpson(x0, f0, x1, f1)
        rm, frm, right = _simpson(x1, f1, x2, f2)
        err = left + right - whole
        if depth > 60 or abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        return _recurse(x0, f0, x1, f1, left, lm, flm, eps / 2.0, depth + 1) + _recurse(
            x1, f1, x2, f2, right, rm, frm, eps / 2.0, depth + 1
        )

    if a == b:
        return 0.0
    fa, fb = _eval(a), _eval(b)
    mid, fmid, whole = _simpson(a, fa, b, fb)
    return _recurse(a, fa, b, fb, whole, mid, fmid, tol, 0)


def z(x: float, tol: float = QUAD_TOL) -> float:
    """∫₀¹ e^{-2a+ax}·((1-e^{-xa})/x − (1-e^{-a(x+2)})/(x+2)) da, with the
    removable x = 0 singularity handled by its analytic limit."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"z: x must lie in [0, 1], got {x}")
    if x == 0.0:
        return Z0

    def integrand(a: float) -> float:
        return math.exp(-2.0 * a + a * x) * (
            -math.expm1(-x * a) / x + math.expm1(-a * (x + 2.0)) / (x + 2.0)
        )

    return quadrature(integrand, 0.0, 1.0, tol)


def h1(a: float, x: float, tol: float = QUAD_TOL) -> float:
    """∫₀^a e^{-bx}·(4 − (3b+4)e^{-3b}) db."""
    if not (0.0 <= a <= 1.0) or not (0.0 <= x <= 1.0):
        raise ValueError(f"h1: need a, x in [0, 1], got a={a}, x={x}")
    if a == 0.0:
        return 0.0
    return quadrature(
        lambda b: math.exp(-b * x) * (4.0 - (3.0 * b + 4.0) * math.exp(-3.0 * b)), 0.0, a, tol
    )


def build_lp_rows(inst, objective="revenue"):
    """(c, A, b, var_keys) of the pricing LP: one column per menu entry, and
    rows for the edge budgets, the vertex capacities and the patience caps,
    each built by a loop over the edges it touches."""
    coeffs = objective_coefficients(inst, objective)
    var_keys = []
    col_of = {}
    c = []
    for e in inst.edges:
        for k, entry in enumerate(e.menu):
            col_of[(e.id, k)] = len(var_keys)
            var_keys.append((e.id, entry.w))
            c.append(coeffs[e.id][k])

    n = len(var_keys)
    rows = []
    b = []

    for e in inst.edges:
        row = np.zeros(n)
        for k in range(len(e.menu)):
            row[col_of[(e.id, k)]] = 1.0
        rows.append(row)
        b.append(1.0)

    for v in inst.vertices:
        row = np.zeros(n)
        for i in inst.incident[v.id]:
            e = inst.edges[i]
            for k, entry in enumerate(e.menu):
                row[col_of[(e.id, k)]] += entry.p
        rows.append(row)
        b.append(1.0)

    for v in inst.vertices:
        if v.patience is None:
            continue
        row = np.zeros(n)
        for i in inst.incident[v.id]:
            e = inst.edges[i]
            for k in range(len(e.menu)):
                row[col_of[(e.id, k)]] += 1.0
        rows.append(row)
        b.append(float(v.patience))

    A = np.vstack(rows) if rows else np.zeros((0, n))
    return np.array(c), A, np.array(b), tuple(var_keys)
