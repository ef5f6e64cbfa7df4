"""Dense convex quadratic programming with primal and dual recovery.

Standard form:

    minimize    0.5 x'Qx + c'x
    subject to  A x  = b        (multipliers y, signed shadow prices)
                G x <= h        (multipliers z >= 0)

Sign convention: stationarity is  Qx + c - A'y + G'z = 0,  so y is the
marginal value of relaxing b (dV/db = y) and z the marginal value of
tightening h (dV/dh = -z).  Duals are first-class outputs: downstream code
trades on them, so an optimal solution must carry multipliers whose KKT
residuals meet the requested tolerance.

The method is an infeasible-start Mehrotra predictor-corrector, followed by
an active-set "polish" that re-solves the equality-constrained KKT system by
minimum-norm least squares.  The polish both sharpens residuals to near
machine precision and picks the centered (minimum-norm) multiplier split when
binding rows are linearly dependent, which keeps degenerate dual splits
deterministic.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200


class QpDimensionError(ValueError):
    pass


class _NumericalBreakdown(Exception):
    """Internal: the Newton system could not be solved to a usable direction."""


@dataclass(frozen=True)
class QuadraticProgram:
    q: np.ndarray
    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    g_ineq: np.ndarray
    h_ineq: np.ndarray
    var_labels: tuple[str, ...] = ()
    eq_labels: tuple[str, ...] = ()
    ineq_labels: tuple[str, ...] = ()

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.shape[0]
        a = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        b = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        g = np.asarray(self.g_ineq, dtype=float).reshape(-1, n)
        h = np.atleast_1d(np.asarray(self.h_ineq, dtype=float))
        if q.shape != (n, n):
            raise QpDimensionError(f"Q must be {n}x{n}, got {q.shape}")
        if a.shape[0] != b.shape[0]:
            raise QpDimensionError("A and b row counts differ")
        if g.shape[0] != h.shape[0]:
            raise QpDimensionError("G and h row counts differ")
        if np.max(np.abs(q - q.T), initial=0.0) > 1e-12:
            raise QpDimensionError("Q must be symmetric (within 1e-12)")
        for name, labels, count in (("var", self.var_labels, n),
                                    ("eq", self.eq_labels, a.shape[0]),
                                    ("ineq", self.ineq_labels, g.shape[0])):
            if labels and len(labels) != count:
                raise QpDimensionError(f"{name} label count {len(labels)} != {count}")
            if labels and len(set(labels)) != len(labels):
                raise QpDimensionError(f"duplicate {name} labels")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "g_ineq", g)
        object.__setattr__(self, "h_ineq", h)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.q @ x + self.c @ x)

    def dump(self) -> str:
        """Labeled text dump (matrix-market flavored) for external cross-checks."""
        out = io.StringIO()
        vl = self.var_labels or tuple(f"x{i}" for i in range(self.n))
        el = self.eq_labels or tuple(f"eq{i}" for i in range(len(self.b_eq)))
        il = self.ineq_labels or tuple(f"ineq{i}" for i in range(len(self.h_ineq)))
        print(f"%%qp n={self.n} m_eq={len(self.b_eq)} m_ineq={len(self.h_ineq)}", file=out)
        print("%vars", " ".join(vl), file=out)
        for name, mat, rhs, labels in (("eq", self.a_eq, self.b_eq, el),
                                       ("ineq", self.g_ineq, self.h_ineq, il)):
            for i, lab in enumerate(labels):
                terms = " ".join(f"{mat[i, j]:+.17g}*{vl[j]}" for j in range(self.n) if mat[i, j] != 0)
                op = "=" if name == "eq" else "<="
                print(f"{name} {lab}: {terms or '0'} {op} {rhs[i]:.17g}", file=out)
        for i in range(self.n):
            for j in range(i, self.n):
                if self.q[i, j] != 0:
                    print(f"Q {vl[i]} {vl[j]} {self.q[i, j]:.17g}", file=out)
        for j in range(self.n):
            if self.c[j] != 0:
                print(f"c {vl[j]} {self.c[j]:.17g}", file=out)
        return out.getvalue()


@dataclass(frozen=True)
class KktResiduals:
    primal_eq: float
    primal_ineq: float
    dual_stationarity: float
    complementarity: float

    def max(self) -> float:
        return max(self.primal_eq, self.primal_ineq, self.dual_stationarity, self.complementarity)

    def as_dict(self) -> dict[str, float]:
        return {"primal_eq": self.primal_eq, "primal_ineq": self.primal_ineq,
                "dual_stationarity": self.dual_stationarity, "complementarity": self.complementarity}


@dataclass(frozen=True)
class QpSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residuals: KktResiduals
    objective: float
    iterations: int
    # Farkas-type certificate (y, z >= 0) with G'z ~ A'y and b'y - h'z > 0,
    # attached when status == "infeasible".
    certificate: tuple[np.ndarray, np.ndarray] | None = None
    # binding inequality rows; reusable as the hint of a nearby re-solve
    active_set: tuple[int, ...] = ()


def kkt_residuals(qp: QuadraticProgram, x, y, z) -> KktResiduals:
    """Max-norm KKT residuals of a candidate primal-dual point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    if x.shape[0] != qp.n or y.shape[0] != qp.a_eq.shape[0] or z.shape[0] != qp.g_ineq.shape[0]:
        raise QpDimensionError("candidate point dimensions do not match the program")
    r_eq = qp.a_eq @ x - qp.b_eq if len(qp.b_eq) else np.zeros(0)
    slack = qp.h_ineq - qp.g_ineq @ x if len(qp.h_ineq) else np.zeros(0)
    r_stat = qp.q @ x + qp.c - qp.a_eq.T @ y + qp.g_ineq.T @ z
    return KktResiduals(
        primal_eq=float(np.max(np.abs(r_eq), initial=0.0)),
        primal_ineq=float(np.max(-slack, initial=0.0)),
        dual_stationarity=float(np.max(np.abs(r_stat), initial=0.0)),
        complementarity=float(np.max(np.abs(z * slack), initial=0.0)),
    )


def _solve_active(qp, active):
    """Equality-KKT solve on an active set; minimum-norm duals via lstsq.

    The system mixes near-zero curvature (regularized blocks) with O(10)
    constraint coefficients, so a single factorization can leave residuals
    far above the solver tolerance; refinement steps through the same
    pseudo-inverse recover full accuracy while staying on the minimum-norm
    solution.
    """
    g_act = qp.g_ineq[active]
    h_act = qp.h_ineq[active]
    n, me, ma = qp.n, len(qp.b_eq), len(active)
    kkt = np.zeros((n + me + ma, n + me + ma))
    kkt[:n, :n] = qp.q
    kkt[:n, n:n + me] = -qp.a_eq.T
    kkt[:n, n + me:] = g_act.T
    kkt[n:n + me, :n] = qp.a_eq
    kkt[n + me:, :n] = g_act
    rhs = np.concatenate([-qp.c, qp.b_eq, h_act])
    pinv = np.linalg.pinv(kkt, rcond=1e-13)
    sol = pinv @ rhs
    for _ in range(6):
        residual = rhs - kkt @ sol
        if np.max(np.abs(residual), initial=0.0) < 1e-14 * (1.0 + np.max(np.abs(rhs))):
            break
        sol = sol + pinv @ residual
    x = sol[:n]
    y = sol[n:n + me]
    z = np.zeros(len(qp.h_ineq))
    z[active] = sol[n + me:]
    return x, y, z


def _polish(qp, active: set[int], tol):
    """Refine to an exact active-set solution from a starting guess.

    Constraints an interior-point endpoint leaves ambiguous (weakly active
    rows, the split-flow common mode at zero capacity price) are settled by
    adding violated rows and dropping negative multipliers until the KKT
    system is consistent.  lstsq keeps duals at the minimum-norm point of the
    optimal dual face, which makes degenerate multiplier splits symmetric and
    deterministic.
    """
    mi = len(qp.h_ineq)
    if not mi:
        return None
    feas_tol = 1e-9 * (1.0 + float(np.max(np.abs(qp.h_ineq), initial=0.0)))
    active = set(active)
    for _ in range(2 * mi + 8):
        rows = sorted(active)
        x, y, z = _solve_active(qp, rows)
        slack = qp.h_ineq - qp.g_ineq @ x
        violated = [i for i in np.flatnonzero(slack < -feas_tol).tolist() if i not in active]
        negative = [i for i in rows if z[i] < -feas_tol]
        if not violated and not negative:
            z = np.maximum(z, 0.0)  # clamp before validating: it moves residuals
            res = kkt_residuals(qp, x, y, z)
            if res.max() > tol:
                return None
            return x, y, z, res
        active.update(violated)
        active.difference_update(negative)
    return None


def _mehrotra(qp, tol, max_iter, x0=None):
    """Predictor-corrector iteration. Returns (x, y, z, s, iters, converged)."""
    n, me, mi = qp.n, len(qp.b_eq), len(qp.h_ineq)
    q, c, a, b, g, h = qp.q, qp.c, qp.a_eq, qp.b_eq, qp.g_ineq, qp.h_ineq
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    elif me:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        x = np.zeros(n)
    y = np.zeros(me)
    s = np.maximum(h - g @ x, 1.0) if mi else np.zeros(0)
    z = np.ones(mi)

    def newton_rhs(r_d, r_p, rc_over_s, w):
        top = -r_d - g.T @ rc_over_s if mi else -r_d
        rhs = np.concatenate([top, -r_p])
        kkt = np.zeros((n + me, n + me))
        kkt[:n, :n] = q + (g.T * w) @ g if mi else q
        kkt[:n, n:] = -a.T
        kkt[n:, :n] = a
        # static regularization keeps the saddle system factorable when the
        # scaling matrix degenerates; refinement steps restore accuracy.
        # scaled to the problem data, NOT the scaling-augmented matrix
        delta = 1e-11 * (1.0 + float(np.max(np.abs(q))))
        for attempt in range(8):
            kkt_reg = kkt.copy()
            kkt_reg[:n, :n] += delta * np.eye(n)
            kkt_reg[n:, n:] += delta * np.eye(me)
            try:
                sol = np.linalg.solve(kkt_reg, rhs)
                if not np.all(np.isfinite(sol)):
                    delta *= 100.0
                    continue
                # refinement may overflow on a near-singular system; the
                # isfinite check below then retries with more regularization
                with np.errstate(over="ignore", invalid="ignore"):
                    sol += np.linalg.solve(kkt_reg, rhs - kkt @ sol)
                    sol += np.linalg.solve(kkt_reg, rhs - kkt @ sol)
            except np.linalg.LinAlgError:
                delta *= 100.0
                continue
            if np.all(np.isfinite(sol)):
                return sol[:n], sol[n:]
            delta *= 100.0
        raise _NumericalBreakdown

    best = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        r_d = q @ x + c - a.T @ y + g.T @ z
        r_p = a @ x - b if me else np.zeros(0)
        r_g = g @ x + s - h if mi else np.zeros(0)
        mu = float(s @ z / mi) if mi else 0.0
        worst = max(np.max(np.abs(r_d), initial=0.0), np.max(np.abs(r_p), initial=0.0),
                    np.max(np.abs(r_g), initial=0.0), np.max(np.abs(s * z), initial=0.0))
        if worst <= tol:
            return x, y, z, s, it, True
        if not mi:
            x, y, _ = _solve_active(qp, [])
            return x, y, z, s, it, True
        if np.max(np.abs(x), initial=0.0) > 1e13:
            return x, y, z, s, it, False
        if worst < 0.9 * best:
            best = worst
            stalled = 0
        else:
            stalled += 1
            if stalled > 25:
                return x, y, z, s, it, False

        w = np.clip(z / s, 1e-14, 1e14)
        try:
            # predictor (affine scaling), rc = s*z
            dx, dy = newton_rhs(r_d, r_p, (-s * z + z * r_g) / s, w)
            ds = -r_g - g @ dx
            dz = (-s * z - z * ds) / s
            alpha_aff = 1.0
            neg = ds < 0
            if np.any(neg):
                alpha_aff = min(alpha_aff, float(np.min(-s[neg] / ds[neg])))
            neg = dz < 0
            if np.any(neg):
                alpha_aff = min(alpha_aff, float(np.min(-z[neg] / dz[neg])))
            mu_aff = float((s + alpha_aff * ds) @ (z + alpha_aff * dz) / mi)
            sigma = min((mu_aff / mu) ** 3, 1.0) if mu > 0 else 0.0
            # corrector
            rc = s * z - sigma * mu + ds * dz
            dx, dy = newton_rhs(r_d, r_p, (-rc + z * r_g) / s, w)
            ds = -r_g - g @ dx
            dz = (-rc - z * ds) / s
        except _NumericalBreakdown:
            return x, y, z, s, it, False
        alpha = 1.0
        neg = ds < 0
        if np.any(neg):
            alpha = min(alpha, 0.995 * float(np.min(-s[neg] / ds[neg])))
        neg = dz < 0
        if np.any(neg):
            alpha = min(alpha, 0.995 * float(np.min(-z[neg] / dz[neg])))
        if alpha < 1e-13:
            return x, y, z, s, it, False
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz
    return x, y, z, s, max_iter, False


def _primal_active_set(qp, x0, tol, max_pivots=500):
    """Single-pivot primal active-set solve from a feasible point.

    Slow but dependable: used when the interior-point path fails (typically
    on instances with an unbounded optimal dual face, e.g. exactly opposite
    box rows both binding).  Strict convexity makes every nonzero step
    decrease the objective, and single-row pivots with lowest-index
    tie-breaking avoid the cycling a simultaneous add/drop heuristic allows.
    """
    n, mi = qp.n, len(qp.h_ineq)
    g, h = qp.g_ineq, qp.h_ineq
    x = np.asarray(x0, dtype=float).copy()
    feas_tol = 1e-9 * (1.0 + float(np.max(np.abs(h), initial=0.0)))
    work: set[int] = set()
    for _ in range(max_pivots):
        rows = sorted(work)
        xw, y, z = _solve_active(qp, rows)
        d = xw - x
        if np.max(np.abs(d), initial=0.0) <= 1e-11 * (1.0 + np.max(np.abs(x), initial=0.0)):
            negative = [i for i in rows if z[i] < -feas_tol]
            if not negative:
                z = np.maximum(z, 0.0)
                res = kkt_residuals(qp, xw, y, z)
                if res.max() > tol:
                    return None
                return xw, y, z, res
            work.discard(negative[0])
            continue
        gd = g @ d if mi else np.zeros(0)
        slack = h - g @ x if mi else np.zeros(0)
        alpha, blocker = 1.0, None
        for i in range(mi):
            if i in work or gd[i] <= 1e-12:
                continue
            ratio = max(slack[i], 0.0) / gd[i]
            if ratio < alpha - 1e-15 or (ratio < alpha + 1e-15 and blocker is not None and i < blocker):
                alpha, blocker = min(ratio, alpha), i
        x = x + alpha * d
        if blocker is not None:
            work.add(blocker)
    return None


def _phase1(qp, tol, max_iter):
    """Feasibility program: min t s.t. Ax = b, Gx - t <= h, -t <= 1."""
    n, mi = qp.n, len(qp.h_ineq)
    q1 = np.eye(n + 1) * 1e-9
    c1 = np.zeros(n + 1)
    c1[-1] = 1.0
    a1 = np.hstack([qp.a_eq, np.zeros((len(qp.b_eq), 1))])
    g1 = np.vstack([np.hstack([qp.g_ineq, -np.ones((mi, 1))]),
                    np.concatenate([np.zeros(n), [-1.0]])[None, :]])
    h1 = np.concatenate([qp.h_ineq, [1.0]])
    p1 = QuadraticProgram(q1, c1, a1, qp.b_eq, g1, h1)
    x, y, z, s, it, ok = _mehrotra(p1, tol, max_iter)
    return p1, x, y, z, ok


def solve(qp: QuadraticProgram, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER, initial: np.ndarray | None = None,
          active_hint: tuple[int, ...] | None = None) -> QpSolution:
    """Solve to KKT residuals <= tol; deterministic for identical inputs.

    ``active_hint`` short-circuits the interior-point iteration when the
    binding set of a nearby instance is known (e.g. the previous round of an
    iterative caller); the hinted solution is accepted only after passing the
    full KKT validation.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    n, me, mi = qp.n, len(qp.b_eq), len(qp.h_ineq)

    if me:
        x_ls, *_ = np.linalg.lstsq(qp.a_eq, qp.b_eq, rcond=None)
        r = qp.b_eq - qp.a_eq @ x_ls
        if np.max(np.abs(r), initial=0.0) > 1e-7 * (1.0 + np.max(np.abs(qp.b_eq))):
            # inconsistent equalities: the least-squares residual certifies it
            y_cert = r.copy()
            return QpSolution("infeasible", x_ls, np.zeros(me), np.zeros(mi),
                              kkt_residuals(qp, x_ls, np.zeros(me), np.zeros(mi)),
                              qp.objective(x_ls), 0, certificate=(y_cert, np.zeros(mi)))

    if active_hint is not None and mi:
        hinted = _polish(qp, set(active_hint), tol)
        if hinted is not None:
            px, py, pz, pres = hinted
            return QpSolution("optimal", px, py, pz, pres, qp.objective(px), 0,
                              active_set=tuple(np.flatnonzero(pz > 0.0).tolist()))

    x, y, z, s, iters, converged = _mehrotra(qp, tol, max_iter, x0=initial)
    polished = _polish(qp, set(np.flatnonzero(z > s).tolist()), tol) if mi else None
    if polished is not None:
        px, py, pz, pres = polished
        return QpSolution("optimal", px, py, pz, pres, qp.objective(px), iters,
                          active_set=tuple(np.flatnonzero(pz > 0.0).tolist()))
    if converged:
        res = kkt_residuals(qp, x, y, z)
        if res.max() <= tol:
            return QpSolution("optimal", x, y, z, res, qp.objective(x), iters,
                              active_set=tuple(np.flatnonzero(z > s).tolist()))

    # The main iteration failed: decide between infeasible and numeric trouble.
    p1, x1, y1, z1, ok = _phase1(qp, max(tol, 1e-9), max_iter)
    t_star = x1[-1] if ok else None
    if ok and t_star > 1e-6:
        y_cert = y1.copy()
        z_cert = z1[:mi].copy()
        nrm = max(np.max(np.abs(y_cert), initial=0.0), np.max(np.abs(z_cert), initial=0.0), 1.0)
        res = kkt_residuals(qp, x, y, z)
        return QpSolution("infeasible", x, y, z, res, qp.objective(x), iters,
                          certificate=(y_cert / nrm, z_cert / nrm))
    if ok:
        # feasible after all: finish with the dependable primal active-set
        # method from the interior point the feasibility program produced
        finished = _primal_active_set(qp, x1[:n], tol)
        if finished is not None:
            px, py, pz, pres = finished
            return QpSolution("optimal", px, py, pz, pres, qp.objective(px), iters,
                              active_set=tuple(np.flatnonzero(pz > 0.0).tolist()))
    if np.max(np.abs(x), initial=0.0) > 1e12:
        status = "unbounded"
    else:
        status = "iteration_limit"
    res = kkt_residuals(qp, x, y, z)
    return QpSolution(status, x, y, z, res, qp.objective(x), iters)
