"""Independent reference implementations the tests check against.

These deliberately avoid the code paths they certify: the normal CDF is
numerically integrated (no erfc), its inverse is found by bisection, and the
QP oracle enumerates every candidate active set instead of following a path.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np


def normal_cdf_quadrature(z: float, points: int = 8001) -> float:
    """Composite-Simpson integral of the standard normal density on [0, z]."""
    if z == 0.0:
        return 0.5
    xs = np.linspace(0.0, z, points)
    pdf = np.exp(-0.5 * xs * xs) / np.sqrt(2.0 * np.pi)
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = z / (points - 1)
    return 0.5 + h / 3.0 * float(weights @ pdf)


def quantile_bisection(p: float, width: float = 1e-11) -> float:
    lo, hi = -12.0, 12.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if normal_cdf_quadrature(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def active_set_enumeration(q, c, a_eq, b_eq, g_ineq, h_ineq, feas_tol=1e-8):
    """Brute-force KKT search: try every subset of inequalities as binding.

    Returns (x, y, z) of the first consistent KKT point (for a strictly
    convex program the primal is unique, so any hit is the optimum), or None
    if no subset certifies.
    """
    q = np.asarray(q, float)
    c = np.asarray(c, float)
    a_eq = np.asarray(a_eq, float).reshape(-1, len(c))
    b_eq = np.asarray(b_eq, float).reshape(-1)
    g_ineq = np.asarray(g_ineq, float).reshape(-1, len(c))
    h_ineq = np.asarray(h_ineq, float).reshape(-1)
    n, me, mi = len(c), len(b_eq), len(h_ineq)
    for size in range(mi + 1):
        for subset in combinations(range(mi), size):
            rows = list(subset)
            g_s = g_ineq[rows]
            h_s = h_ineq[rows]
            kkt = np.zeros((n + me + size, n + me + size))
            kkt[:n, :n] = q
            kkt[:n, n:n + me] = -a_eq.T
            kkt[:n, n + me:] = g_s.T
            kkt[n:n + me, :n] = a_eq
            kkt[n + me:, :n] = g_s
            rhs = np.concatenate([-c, b_eq, h_s])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if np.max(np.abs(kkt @ sol - rhs), initial=0.0) > feas_tol:
                continue  # inconsistent subset
            x = sol[:n]
            z_s = sol[n + me:]
            if size and np.min(z_s, initial=0.0) < -feas_tol:
                continue
            if mi and np.max(g_ineq @ x - h_ineq, initial=0.0) > feas_tol:
                continue
            z = np.zeros(mi)
            z[rows] = np.maximum(z_s, 0.0)
            return x, sol[n:n + me], z
    return None


def dual_active_set_reference(q, c, a_eq, b_eq, g_ineq, h_ineq, max_steps):
    """The Goldfarb–Idnani dual method with no factorization kept between steps.

    Each step projects J'n on the active normals J'N (J = L^-T for Q = LL')
    by least squares from scratch, where the solver updates QR factors in
    place, and finds the limiting multiplier with a loop, where the solver
    vectorizes the ratio test.  Rows, signs, tolerances and tie-breaks follow
    the solver's method.  Returns ``(rows, x, steps)``: the active inequality
    rows at the optimum, the point and the steps taken, counted as the solver
    counts them, or None where the method would stop on a row or run out of
    steps.
    """
    q, c = np.asarray(q, float), np.asarray(c, float)
    a_eq, g_ineq = np.asarray(a_eq, float), np.asarray(g_ineq, float)
    b_eq, h_ineq = np.asarray(b_eq, float), np.asarray(h_ineq, float)
    n, me = len(c), len(b_eq)
    j = np.linalg.inv(np.linalg.cholesky(q)).T
    normals = np.vstack([a_eq, -g_ineq])
    bounds = np.concatenate([b_eq, -h_ineq])
    feas_tol = 1e-9 * (1.0 + float(np.max(np.abs(h_ineq), initial=0.0)))
    x = -(j @ (j.T @ c))
    active, columns, u, steps = [], [], [], 1  # active rows, their J'n, their multipliers
    pending = list(range(me))
    while True:
        if pending:
            p = pending.pop(0)
        else:
            slack = h_ineq - g_ineq @ x
            for k in active:
                if k >= me:
                    slack[k - me] = np.inf
            if not len(slack) or slack.min() >= -feas_tol:
                return tuple(sorted(k - me for k in active if k >= me)), x, steps
            p = me + int(np.argmin(slack))
        sign = -1.0 if p < me and normals[p] @ x > bounds[p] else 1.0
        normal, bound = sign * normals[p], sign * bounds[p]
        d = j.T @ normal
        added = 0.0
        while True:
            if steps >= max_steps:
                return None
            steps += 1
            spanned = np.array(columns).T if columns else np.zeros((n, 0))
            r = np.linalg.lstsq(spanned, d, rcond=None)[0]
            free = d - spanned @ r
            # project twice, as one projection leaves a nearly dependent
            # normal far from orthogonal to the span
            again = np.linalg.lstsq(spanned, free, rcond=None)[0]
            r, free = r + again, free - spanned @ again
            limit, drop = np.inf, None
            for i, k in enumerate(active):
                if k >= me and r[i] > 0.0 and u[i] / r[i] < limit:
                    limit, drop = u[i] / r[i], i
            curvature = free @ free
            if curvature <= 1e-20 * (d @ d) or len(active) == n:
                if p < me:
                    break
                if drop is None:
                    return None
                step = limit
            else:
                step = min(limit, (bound - normal @ x) / curvature)
                x = x + step * (j @ free)
            u = [value - step * ri for value, ri in zip(u, r)]
            added += step
            if drop is None or step < limit:
                active.append(p)
                columns.append(d)
                u.append(added)
                break
            del active[drop], columns[drop], u[drop]


def area_dual_rows(area) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
    """Per `AreaDuals` field priced element by element: the field, the name
    in its rows' labels and the elements of ``area`` it prices, so that a
    test can find each dual's row by its label rather than its position."""
    return (("nodal_price", "nodal", area.bus_ids),
            ("gen_lower", "gen_lo", area.generator_ids),
            ("gen_upper", "gen_hi", area.generator_ids),
            ("ramp_lower", "ramp_lo", area.generator_ids),
            ("ramp_upper", "ramp_hi", area.generator_ids),
            ("line_lower", "line_lo", area.line_ids),
            ("line_upper", "line_hi", area.line_ids))
