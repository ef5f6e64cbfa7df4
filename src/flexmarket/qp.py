"""Dense strictly convex quadratic programming with primal and dual recovery.

Standard form:

    minimize    0.5 x'Qx + c'x
    subject to  A x  = b        (multipliers y, signed shadow prices)
                G x <= h        (multipliers z >= 0)

Sign convention: stationarity is  Qx + c - A'y + G'z = 0,  so y is the
marginal value of relaxing b (dV/db = y) and z the marginal value of
tightening h (dV/dh = -z).  Duals are first-class outputs: downstream code
trades on them, so an optimal solution must carry multipliers whose KKT
residuals meet the requested tolerance.

A cold solve finds its binding set with the Goldfarb–Idnani dual active-set
method on small programs and with an infeasible-start Mehrotra
predictor-corrector on large ones, and the dual method decides wherever the
interior point fails; either is followed by an active-set
"polish" that re-solves the equality-constrained KKT system by minimum-norm
least squares.  The polish both sharpens residuals to near machine precision
and picks the centered (minimum-norm) multiplier split when binding rows are
linearly dependent, which keeps degenerate dual splits deterministic.

Q must be positive definite.  A program's structure (Q, A, G and h) is
stored read-only, and ``rebind`` returns a program with new c and b that
shares it, so an iterative caller validates the structure once.  Programs
that share a structure also share the feasibility tolerance of h, the factor
L^-T of Q = LL', and a memo: the solver keeps the pseudo-inverse of A for the
equality-consistency check and the KKT matrix and pseudo-inverse of the last
active set it solved on, so a re-solve on an unchanged active set factors
nothing.  A new active set costs one SVD of its constraint rows scaled by
L^-T, not of the whole KKT matrix (``_active_kkt``).

A solve with an active-set hint first walks from the hint, before the
equality-consistency check.  That order changes no answer: a hinted point is
returned only if it passes validation, which bounds max|Ax - b| by tol, and
the least-squares residual the check measures is no larger in the 2-norm,
so it stays under the check's 1e-7 threshold whenever sqrt(m_eq) * tol
does (the default tol, for up to 100 equality rows).

The walk is a semismooth Newton method: it settles in a few steps from a
nearby start and has no global guarantee.  So the hinted walk stops after
n + m_eq row sets, the order of the Newton system one cold interior-point
iteration factors; a hint that has not settled by then is not a nearby
start.  The cold path then runs in five stages:

0. The dual method (``_dual_active_set``), for programs whose Newton order
   n + m_eq is at most ``DUAL_ORDER``.  From the unconstrained minimum it
   adds the equality rows, then the most violated inequality row at a time,
   dropping rows whose multiplier would turn negative; it is exact and
   finite, and takes about one step per binding row, where each
   interior-point iteration makes six LU solves of its Newton matrix.  A
   step costs more the more rows are active, so on the benchmark's larger
   joint programs (n + m_eq of 69 to 193) the interior point is the faster;
   on its area programs (up to 33) the dual method took 0.3 to 0.85 of its
   time.  The size rule does not tell area from joint programs: the small
   joint programs (9, 17 and 31) take the dual method too.
   The method's rows are polished, and once more from the polished point's
   binding rows; the answer is kept here only under the crossover's
   strict-complementarity guard (below).  Any other outcome leaves the
   solve to the stages below, and no crossover walk starts from a set its
   polishes started from.
1. The interior-point iteration.  Its Newton matrix keeps the constant +-A
   blocks across iterations, and the predictor and the corrector share each
   regularized matrix.
2. The crossover, an early polish as in OSQP (Stellato et al. 2020, sec.
   5.1).  Once an iterate's worst residual is below ``CROSSOVER_RESIDUAL``,
   its binding set (z > s) is walked for at most ``CROSSOVER_BUDGET`` row
   sets, the set and one add/drop correction.  No crossover walk starts
   from a set an earlier walk of the same solve started from, the hint's
   included.  A walk that validates is kept only if it is strictly
   complementary: its binding rows must be exactly its rows with a positive
   multiplier.  On a degenerate dual face an early set can validate
   at the optimal x with multipliers on another vertex of that face, and the
   full iteration would not return those; so the iteration goes on.
3. The polish of the iteration's last iterate, with a budget of
   2 * m_ineq + 8 row sets, then its convergence check.
4. The dual method decides, at any order; it runs at most once per solve,
   so stage 0's outcome is reused.  Its polished answer stands without the
   guard, which only picks the interior point's vertex of a degenerate dual
   face.  Where the method stops on a row it can neither add nor make room
   for, its multipliers prove the program infeasible if they rule out every
   solution of 1-norm up to ``CERTIFICATE_RADIUS``; a program feasible only
   farther out is never called infeasible.

``QpSolution.path`` names the stage that answered.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
# an interior-point iterate crosses over to the polish once its worst
# residual is below this, walking at most this many row sets from its binding
# set: the set itself and one add/drop correction
CROSSOVER_RESIDUAL = 1e-2
CROSSOVER_BUDGET = 2
# a cold solve starts with the dual active-set method when the order n + m_eq
# of the interior point's Newton system is at most this (module docstring)
DUAL_ORDER = 40
# the dual method's multipliers at a stop certify infeasibility when, scaled to
# max-norm 1, they balance G'z = A'y and leave a gap b'y - h'z, both to the
# tolerance, and the gap / residual rules out every solution of 1-norm up to the
# radius (the generated networks' stops reach 1.5e10 and more)
CERTIFICATE_TOL = 1e-6
CERTIFICATE_RADIUS = 1e9


class QpDimensionError(ValueError):
    pass


class _NumericalBreakdown(Exception):
    """Internal: the Newton system could not be solved to a usable direction."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only array equal to ``arr``; a writeable one is copied, not frozen."""
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


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
        object.__setattr__(self, "q", _read_only(q))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", _read_only(a))
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "g_ineq", _read_only(g))
        object.__setattr__(self, "h_ineq", _read_only(h))
        # slack within which an inequality row counts as binding, or as not violated
        object.__setattr__(self, "_feas_tol", 1e-9 * (1.0 + float(np.max(np.abs(h), initial=0.0))))
        # L^-T for Q = LL', which factors every active-set KKT matrix (_active_kkt)
        try:
            chol = np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise QpDimensionError("Q must be positive definite: its Cholesky "
                                   "factorization failed") from None
        object.__setattr__(self, "_l_inv_t", np.linalg.inv(chol).T)
        # factorizations of the frozen structure, shared by every rebind
        object.__setattr__(self, "_memo", {})

    def rebind(self, c, b_eq) -> QuadraticProgram:
        """The same program with new c and b, sharing the validated structure."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        b = np.atleast_1d(np.asarray(b_eq, dtype=float))
        if c.shape != self.c.shape or b.shape != self.b_eq.shape:
            raise QpDimensionError(f"rebind needs c of shape {self.c.shape} and b of shape "
                                   f"{self.b_eq.shape}, got {c.shape} and {b.shape}")
        # type(self), not the module-level name, which a caller may have wrapped
        program = object.__new__(type(self))
        program.__dict__.update(self.__dict__, c=c, b_eq=b)
        return program

    def binding_rows(self, x) -> tuple[int, ...]:
        """Inequality rows whose slack at ``x`` is within the solver's feasibility tolerance."""
        slack = self.h_ineq - self.g_ineq @ np.asarray(x, dtype=float)
        return tuple(np.flatnonzero(slack <= self._feas_tol).tolist())

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
        """The largest residual, or NaN if one is NaN (the builtin max can skip a NaN)."""
        values = (self.primal_eq, self.primal_ineq, self.dual_stationarity, self.complementarity)
        # each residual is >= 0 or NaN, so the sum is NaN exactly when one is
        return math.nan if math.isnan(sum(values)) else max(values)

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
    # how solve reached it: hint | dual | crossover | ipm+polish | ipm |
    # failed (every status but optimal).  ``dual`` is stage 0 or 4 of the
    # module docstring.  ``iterations`` is 0 for a hint, the dual method's
    # steps (at least 1) for dual, and the interior point's iterations
    # otherwise
    path: str = "failed"

    def describe(self) -> str:
        """The path, iterations and worst KKT residual, for a failure message."""
        return (f"path {self.path}, {self.iterations} iterations, "
                f"max KKT residual {self.residuals.max():.3g}")


def kkt_residuals(qp: QuadraticProgram, x, y, z) -> KktResiduals:
    """Max-norm KKT residuals of a candidate primal-dual point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    if x.shape[0] != qp.n or y.shape[0] != qp.a_eq.shape[0] or z.shape[0] != qp.g_ineq.shape[0]:
        raise QpDimensionError("candidate point dimensions do not match the program")
    return _residuals(qp, x, y, z, qp.h_ineq - qp.g_ineq @ x)


def _residuals(qp, x, y, z, slack) -> KktResiduals:
    """``kkt_residuals`` of a solver point whose slack ``h - Gx`` is known.

    ``np.maximum.reduce`` from 0.0 is what ``np.max(..., initial=0.0)``
    runs, without its wrapper: an empty block gives 0.0 and a NaN passes
    through, so validation rejects a non-finite point.
    """
    peak = np.maximum.reduce
    r_stat = qp.q @ x + qp.c - qp.a_eq.T @ y + qp.g_ineq.T @ z
    return KktResiduals(float(peak(np.abs(qp.a_eq @ x - qp.b_eq), initial=0.0)),
                        float(peak(-slack, initial=0.0)),
                        float(peak(np.abs(r_stat), initial=0.0)),
                        float(peak(np.abs(z * slack), initial=0.0)))


def _active_kkt(qp, active):
    """KKT matrix of an active set and its pseudo-inverse.

    With the sign of the A rows flipped, the matrix is [[Q, C'], [C, 0]] for
    C = [-A; G_S], congruent through diag(L, I) to [[I, C~'], [C~, 0]] with
    C~ = C L^-T, whose pseudo-inverse one SVD U S V' of C~ gives in closed
    form: its x block is L^-T V_2 V_2' L^-1, V_2 spanning the null space of
    C~ (the null-space method, Nocedal & Wright 2006, sec. 16.2).  As Q is
    positive definite, the matrix has null space {0} x null(C') and range
    R^n x range(C), which the congruence keeps, so this is exactly its
    pseudo-inverse: minimum-norm duals, and least squares on an
    inconsistent set.

    Both depend only on the frozen structure, so the last pair is kept in the
    program's memo; one entry bounds the memory, and an iterative caller
    whose binding set holds from round to round still factors once.
    """
    key = tuple(active)
    last = qp._memo.get("active")
    if last is not None and last[0] == key:
        return last[1], last[2]
    g_act = qp.g_ineq[active]
    n, me = qp.n, len(qp.b_eq)
    rows = np.vstack([-qp.a_eq, g_act])
    m = rows.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = qp.q
    kkt[:n, n:] = rows.T
    kkt[n:n + me, :n] = qp.a_eq
    kkt[n + me:, :n] = g_act
    l_inv_t = qp._l_inv_t
    # the full V only where the thin one lacks null-space columns
    u, sigma, vt = np.linalg.svd(rows @ l_inv_t, full_matrices=m < n)
    rank = int(np.count_nonzero(sigma > 1e-13 * sigma.max(initial=0.0)))
    u, sigma = u[:, :rank], sigma[:rank]
    scaled_v = l_inv_t @ vt.T
    null_basis = scaled_v[:, rank:]
    range_map = scaled_v[:, :rank] / sigma
    u_scaled = u / sigma
    pinv = np.empty((n + m, n + m))
    pinv[:n, :n] = null_basis @ null_basis.T
    pinv[:n, n:] = range_map @ u.T
    pinv[n:, :n] = pinv[:n, n:].T
    pinv[n:, n:] = -u_scaled @ u_scaled.T
    # undo the sign flip of the A rows: it acts on the y columns
    pinv[:, n:n + me] *= -1.0
    qp._memo["active"] = (key, kkt, pinv)
    return kkt, pinv


def _solve_active(qp, active):
    """Equality-KKT solve on an active set; minimum-norm duals via the memoized pseudo-inverse.

    The system mixes near-zero curvature (regularized blocks) with O(10)
    constraint coefficients, so a single factorization can leave residuals
    far above the solver tolerance; refinement steps through the same
    pseudo-inverse recover full accuracy while staying on the minimum-norm
    solution.
    """
    n, me = qp.n, len(qp.b_eq)
    kkt, pinv = _active_kkt(qp, active)
    rhs = np.concatenate([-qp.c, qp.b_eq, qp.h_ineq[active]])
    sol = pinv @ rhs
    # rhs is never empty (n >= 1), so a bare reduce is np.max
    peak = np.maximum.reduce
    bound = 1e-14 * (1.0 + peak(np.abs(rhs)))
    for _ in range(6):
        residual = rhs - kkt @ sol
        if peak(np.abs(residual)) < bound:
            break
        sol = sol + pinv @ residual
    x = sol[:n]
    y = sol[n:n + me]
    z = np.zeros(len(qp.h_ineq))
    z[active] = sol[n + me:]
    return x, y, z


def _polish(qp, active: set[int], tol, budget):
    """Refine to an exact active-set solution from a starting guess.

    Constraints an interior-point endpoint leaves ambiguous (weakly active
    rows, the split-flow common mode at zero capacity price) are settled by
    adding violated rows and dropping negative multipliers until the KKT
    system is consistent.  The pseudo-inverse keeps duals at the minimum-norm
    point of the optimal dual face, which makes degenerate multiplier splits
    symmetric and deterministic.

    Each step depends only on the current set, so a set that comes round
    again starts a cycle that can never end consistent: the walk gives up at
    the first repeat, or after ``budget`` row sets, and returns None.  The
    caller sets the budget (``solve``).
    """
    feas_tol = qp._feas_tol
    active = set(active)
    seen = set()
    for _ in range(budget):
        rows = sorted(active)
        if tuple(rows) in seen:
            return None
        seen.add(tuple(rows))
        x, y, z = _solve_active(qp, rows)
        slack = qp.h_ineq - qp.g_ineq @ x
        violated = [i for i in (slack < -feas_tol).nonzero()[0].tolist() if i not in active]
        # z is zero off the set, so these are the set's negative multipliers
        negative = (z < -feas_tol).nonzero()[0].tolist()
        if not violated and not negative:
            z = np.maximum(z, 0.0)  # clamp before validating: it moves residuals
            res = _residuals(qp, x, y, z, slack)
            if not res.max() <= tol:
                return None
            return x, y, z, res
        active.update(violated)
        active.difference_update(negative)
    return None


def _strictly_complementary(qp, x, z) -> bool:
    """Whether an active-set answer's binding rows are exactly its rows with a
    positive multiplier.

    On a degenerate dual face an early set can validate at the optimal x with
    multipliers on another vertex of that face than the full iteration
    reaches; a row that binds with a zero multiplier shows it.
    """
    return qp.binding_rows(x) == tuple((z > 0.0).nonzero()[0].tolist())


def _dual_active_set(qp, max_steps):
    """The Goldfarb–Idnani dual active-set method (Math. Programming 27, 1983).

    Each constraint is written n'x >= beta: an equality row a'x = b with the
    sign that makes its step positive, an inequality row as -g'x >= -h.  From
    the unconstrained minimum -Q^-1 c, the equality rows are added first and
    then, each time, the most violated inequality row.  With J = L^-T, so
    that Q^-1 = J J', and the QR factors J'N = [U1 U2] [R; 0] of the active
    normals N, a row n is added by moving x along J U2 U2' J'n, which keeps
    the active rows satisfied, and the multipliers u along (-r, 1) with
    r = R^-1 U1' J'n.  An active inequality row whose multiplier reaches zero
    first is dropped and the step goes on.  The method keeps only independent
    rows: a row whose normal lies in the span of the active normals is
    skipped if it is an equality (the equality check has made it consistent)
    and otherwise moves the multipliers alone.  An add extends the factors by
    one Gram-Schmidt column (the step's own projection, orthogonalized
    twice); a drop refactors them.

    Returns ``(rows, x, y, z, steps)``: ``rows`` is None when a row can be
    neither added nor made room for, and (y, z) are then the multipliers 1 on
    that row and -r on the active rows, a Farkas certificate of max-norm 1 if
    the program is infeasible; otherwise ``rows`` are the active inequality
    rows at the optimum and (y, z) its multipliers.  ``steps`` counts the
    steps, the unconstrained minimum included.  Returns None after
    ``max_steps`` of them.
    """
    me = len(qp.b_eq)
    j = qp._l_inv_t
    normals = np.vstack([qp.a_eq, -qp.g_ineq])
    bounds = np.concatenate([qp.b_eq, -qp.h_ineq])
    x = -(j @ (j.T @ qp.c))
    if not (np.isfinite(x).all() and np.isfinite(bounds).all()):
        return None
    active, columns, u = [], [], np.zeros(0)  # active rows, their J'n, their multipliers
    basis, tri = np.zeros((len(x), 0)), np.zeros((0, 0))  # J'N = basis tri
    sign = np.ones(len(bounds))

    def split(rows, values):
        """(y, z) of multipliers ``values`` on rows ``rows`` (signed normals)."""
        w = np.zeros(len(bounds))
        w[rows] = values
        w[:me] *= sign[:me]
        return w[:me], w[me:]

    steps = 1
    equalities = iter(range(me))
    while True:
        p = next(equalities, None)
        if p is None:
            slack = qp.h_ineq - qp.g_ineq @ x
            slack[[k - me for k in active if k >= me]] = np.inf
            worst = int(np.argmin(slack)) if len(slack) else -1
            if worst < 0 or slack[worst] >= -qp._feas_tol:
                y, z = split(active, u)
                return tuple(sorted(k - me for k in active if k >= me)), x, y, z, steps
            p = me + worst
        if p < me and normals[p] @ x > bounds[p]:
            sign[p] = -1.0
        normal, bound = sign[p] * normals[p], sign[p] * bounds[p]
        d = j.T @ normal
        added = 0.0  # the multiplier of row p
        while True:
            if steps >= max_steps:
                return None
            steps += 1
            part = basis.T @ d
            free = d - basis @ part
            # a second Gram-Schmidt pass, as one leaves a nearly dependent add
            # far from orthogonal: "twice is enough" (Daniel et al. 1976)
            extra = basis.T @ free
            part += extra
            free -= basis @ extra
            r = np.linalg.solve(tri, part) if active else part
            # the largest dual step before an active inequality multiplier
            # turns negative, and the row that limits it
            limit, drop = np.inf, None
            for i, k in enumerate(active):
                if k >= me and r[i] > 0.0 and u[i] / r[i] < limit:
                    limit, drop = u[i] / r[i], i
            curvature = free @ free
            if curvature <= 1e-20 * (d @ d):
                # n lies in the span of the active normals: no primal step
                if p < me:
                    break  # a dependent, consistent equality: skip it
                if drop is None:
                    y, z = split(active + [p], np.append(-r, 1.0) / max(1.0, np.max(np.abs(r))))
                    return None, x, y, z, steps
                step = limit
            else:
                step = min(limit, (bound - normal @ x) / curvature)
                x = x + step * (j @ free)
            u = u - step * r
            added += step
            if drop is None or step < limit:
                q = len(active)
                grown = np.zeros((q + 1, q + 1))
                grown[:q, :q], grown[:q, q] = tri, part
                grown[q, q] = math.sqrt(curvature)
                basis, tri = np.column_stack([basis, free / grown[q, q]]), grown
                active.append(p)
                columns.append(d)
                u = np.append(u, added)
                break
            del active[drop], columns[drop]
            u = np.delete(u, drop)
            if active:
                basis, tri = np.linalg.qr(np.column_stack(columns))
            else:
                basis, tri = np.zeros((len(x), 0)), np.zeros((0, 0))


def _dual_stage(qp, tol, budget, walked):
    """The dual method's answer: ``(answer, certificate)``.

    ``answer`` is the dual method's optimal answer, or None.  The method's
    rows are polished at ``budget``, and the polished point's binding rows
    once more: the method keeps only independent rows, so on duplicate rows
    its multipliers sit on one of them, where the polish of the binding rows
    splits them at the minimum norm.  The binding rows are read at the
    polished point because the method's own point can miss its rows by more
    than the feasibility tolerance.  Where the second polish fails, the first
    one's answer stands, under stage 0's guard as any answer.  The sets the
    polishes started from join ``walked``, so no crossover walk starts there
    again.

    ``certificate`` is the method's multipliers where it stopped on a row it
    can neither add nor make room for, else None.  They rule out only the
    solutions of 1-norm below gap / residual; ``solve`` calls the program
    infeasible only if that reaches ``CERTIFICATE_RADIUS``.
    """
    outcome = _dual_active_set(qp, budget + len(qp.b_eq))
    if outcome is None:
        return None, None
    rows, _, y, z, steps = outcome
    if rows is None:
        return None, (y, z)
    walked.add(rows)
    polished = _polish(qp, set(rows), tol, budget)
    if polished is not None and (binding := qp.binding_rows(polished[0])) != rows:
        walked.add(binding)
        polished = _polish(qp, set(binding), tol, budget) or polished
    return (None if polished is None else _optimal(qp, polished, steps, "dual")), None


def _mehrotra(qp, tol, max_iter, walked=None):
    """Predictor-corrector iteration.

    Returns (x, y, z, s, iters, converged, polished).  ``walked`` switches on
    the crossover: it holds the row sets walks of this solve started from,
    and each iterate whose worst residual is below ``CROSSOVER_RESIDUAL``
    walks from its binding set (z > s) if no walk started there, for at most
    ``CROSSOVER_BUDGET`` row sets.  ``polished`` is the first strictly
    complementary answer such a walk gives, or None.
    """
    n, me, mi = qp.n, len(qp.b_eq), len(qp.h_ineq)
    q, c, a, b, g, h = qp.q, qp.c, qp.a_eq, qp.b_eq, qp.g_ineq, qp.h_ineq
    if me:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        x = np.zeros(n)
    y = np.zeros(me)
    s = np.maximum(h - g @ x, 1.0) if mi else np.zeros(0)
    z = np.ones(mi)
    peak = np.maximum.reduce

    # Static regularization keeps the saddle system factorable when the
    # scaling matrix degenerates; refinement steps restore accuracy.  delta is
    # scaled to the problem data, NOT the scaling-augmented matrix, and grows
    # x100 per rung.
    ladder = [1e-11 * (1.0 + float(np.max(np.abs(q))))]
    for _ in range(7):
        ladder.append(ladder[-1] * 100.0)
    diagonal = np.diag_indices(n + me)
    # the +-A blocks are constant; each iteration writes only the (1, 1) block
    kkt = np.zeros((n + me, n + me))
    kkt[:n, n:] = -a.T
    kkt[n:, :n] = a

    def newton_rhs(regularized, r_d, r_p, r_c, s):
        """Solve the Newton system, climbing the delta ladder on failure.

        ``r_c / s`` is the scaled complementarity residual.  A tiny slack can
        overflow it, and no rung can make the solution of a non-finite
        right-hand side finite, so that breaks down at the first rung.

        ``regularized`` maps each rung of this iteration's ``kkt`` to its
        regularized matrix, or to None where its LU reported a singular
        matrix.  That depends on the matrix alone, so the predictor and the
        corrector share the map; a retry for a non-finite solution depends on
        the right-hand side and is not recorded.
        """
        # overflow here, in r_c / s or in a refinement step on a near-singular
        # system, is caught by the isfinite checks
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = np.concatenate([-r_d - g.T @ (r_c / s), -r_p])
            for rung, delta in enumerate(ladder):
                if rung not in regularized:
                    regularized[rung] = kkt.copy()
                    regularized[rung][diagonal] += delta
                kkt_reg = regularized[rung]
                if kkt_reg is None:
                    continue
                try:
                    sol = np.linalg.solve(kkt_reg, rhs)
                except np.linalg.LinAlgError:
                    regularized[rung] = None
                    continue
                if not np.isfinite(sol).all():
                    if not np.isfinite(rhs).all():
                        break
                    continue
                sol += np.linalg.solve(kkt_reg, rhs - kkt @ sol)
                sol += np.linalg.solve(kkt_reg, rhs - kkt @ sol)
                if np.isfinite(sol).all():
                    return sol[:n], sol[n:]
        raise _NumericalBreakdown

    best = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        r_d = q @ x + c - a.T @ y + g.T @ z
        r_p = a @ x - b if me else np.zeros(0)
        r_g = g @ x + s - h if mi else np.zeros(0)
        mu = float(s @ z / mi) if mi else 0.0
        worst = max(peak(np.abs(r_d), initial=0.0), peak(np.abs(r_p), initial=0.0),
                    peak(np.abs(r_g), initial=0.0), peak(np.abs(s * z), initial=0.0))
        if worst <= tol:
            return x, y, z, s, it, True, None
        if not mi:
            x, y, _ = _solve_active(qp, [])
            return x, y, z, s, it, True, None
        if walked is not None and worst < CROSSOVER_RESIDUAL:
            rows = tuple(np.flatnonzero(z > s).tolist())
            if rows not in walked:
                walked.add(rows)
                polished = _polish(qp, set(rows), tol, CROSSOVER_BUDGET)
                # otherwise keep iterating (_strictly_complementary)
                if polished is not None and _strictly_complementary(qp, polished[0], polished[2]):
                    return x, y, z, s, it, False, polished
        if peak(np.abs(x), initial=0.0) > 1e13:
            return x, y, z, s, it, False, None
        if worst < 0.9 * best:
            best = worst
            stalled = 0
        else:
            stalled += 1
            if stalled > 25:
                return x, y, z, s, it, False, None

        # one Newton matrix for the predictor and the corrector, which share
        # its regularized rungs and skip those whose LU was singular
        w = np.clip(z / s, 1e-14, 1e14)
        kkt[:n, :n] = q + (g.T * w) @ g
        regularized: dict[int, np.ndarray | None] = {}
        try:
            # predictor (affine scaling), rc = s*z
            dx, dy = newton_rhs(regularized, r_d, r_p, -s * z + z * r_g, s)
            ds = -r_g - g @ dx
            dz = (-s * z - z * ds) / s
            alpha_aff = 1.0
            neg = ds < 0
            if neg.any():
                alpha_aff = min(alpha_aff, float((-s[neg] / ds[neg]).min()))
            neg = dz < 0
            if neg.any():
                alpha_aff = min(alpha_aff, float((-z[neg] / dz[neg]).min()))
            mu_aff = float((s + alpha_aff * ds) @ (z + alpha_aff * dz) / mi)
            sigma = min((mu_aff / mu) ** 3, 1.0) if mu > 0 else 0.0
            # corrector
            rc = s * z - sigma * mu + ds * dz
            dx, dy = newton_rhs(regularized, r_d, r_p, -rc + z * r_g, s)
            ds = -r_g - g @ dx
            dz = (-rc - z * ds) / s
        except _NumericalBreakdown:
            return x, y, z, s, it, False, None
        alpha = 1.0
        neg = ds < 0
        if neg.any():
            alpha = min(alpha, 0.995 * float((-s[neg] / ds[neg]).min()))
        neg = dz < 0
        if neg.any():
            alpha = min(alpha, 0.995 * float((-z[neg] / dz[neg]).min()))
        if alpha < 1e-13:
            return x, y, z, s, it, False, None
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz
    return x, y, z, s, max_iter, False, None


def _certifies_infeasible(qp, y, z) -> bool:
    """Whether (y, z), of max-norm at most 1, proves Ax = b, Gx <= h has no
    solution of 1-norm up to ``CERTIFICATE_RADIUS``.

    For a solution x', z >= 0 gives (G'z - A'y)'x' <= h'z - b'y; so a gap
    b'y - h'z > 0 rules out every x' of 1-norm below gap / max|G'z - A'y|.
    The gap must exceed ``CERTIFICATE_TOL`` and the residual max|G'z - A'y|
    must not, and their ratio must exceed the radius.
    """
    stationarity = np.max(np.abs(qp.g_ineq.T @ z - qp.a_eq.T @ y), initial=0.0)
    gap = qp.b_eq @ y - qp.h_ineq @ z
    return bool((z >= 0.0).all()
                and stationarity <= CERTIFICATE_TOL < gap
                and gap > stationarity * CERTIFICATE_RADIUS)


def _optimal(qp, polished, iters, path) -> QpSolution:
    """The optimal solution of an active-set answer (x, y, z, residuals)."""
    px, py, pz, pres = polished
    return QpSolution("optimal", px, py, pz, pres, qp.objective(px), iters,
                      active_set=tuple((pz > 0.0).nonzero()[0].tolist()), path=path)


def solve(qp: QuadraticProgram, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER,
          active_hint: tuple[int, ...] | None = None) -> QpSolution:
    """Solve to KKT residuals <= tol; deterministic for identical inputs.

    ``active_hint`` short-circuits the interior-point iteration when the
    binding set of a nearby instance is known (e.g. the previous round of an
    iterative caller); the hinted solution is accepted only after passing the
    full KKT validation.  It is tried before the equality-consistency check,
    which it makes redundant when it succeeds.  A hint that misses within its
    budget of n + m_eq row sets is left to the cold path (module docstring).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n, me, mi = qp.n, len(qp.b_eq), len(qp.h_ineq)
    full = 2 * mi + 8  # the cold polish's budget in row sets

    if active_hint is not None and mi:
        # n + me is the order of the Newton system one cold iteration factors
        polished = _polish(qp, set(active_hint), tol, min(n + me, full))
        if polished is not None:
            return _optimal(qp, polished, 0, "hint")

    if me:
        if "pinv_a" not in qp._memo:
            qp._memo["pinv_a"] = np.linalg.pinv(qp.a_eq)
        x_ls = qp._memo["pinv_a"] @ qp.b_eq
        r = qp.b_eq - qp.a_eq @ x_ls
        if np.max(np.abs(r), initial=0.0) > 1e-7 * (1.0 + np.max(np.abs(qp.b_eq))):
            # inconsistent equalities: the least-squares residual certifies it
            y_cert = r.copy()
            return QpSolution("infeasible", x_ls, np.zeros(me), np.zeros(mi),
                              kkt_residuals(qp, x_ls, np.zeros(me), np.zeros(mi)),
                              qp.objective(x_ls), 0, certificate=(y_cert, np.zeros(mi)))

    # the hint's walk started from its set; no crossover walk starts there again
    walked = set() if active_hint is None else {tuple(sorted(active_hint))}
    stage = None  # the dual stage's (answer, certificate); the method runs once
    if n + me <= DUAL_ORDER:
        stage = _dual_stage(qp, tol, full, walked)
        answer = stage[0]
        if answer is not None and _strictly_complementary(qp, answer.x, answer.z):
            return answer
    x, y, z, s, iters, converged, polished = _mehrotra(qp, tol, max_iter, walked)
    if polished is not None:
        return _optimal(qp, polished, iters, "crossover")
    polished = _polish(qp, set(np.flatnonzero(z > s).tolist()), tol, full) if mi else None
    if polished is not None:
        return _optimal(qp, polished, iters, "ipm+polish")
    if converged:
        res = kkt_residuals(qp, x, y, z)
        if res.max() <= tol:
            return QpSolution("optimal", x, y, z, res, qp.objective(x), iters,
                              active_set=tuple(np.flatnonzero(z > s).tolist()), path="ipm")

    # the interior point failed: the dual method decides, at any order
    answer, stop = stage if stage is not None else _dual_stage(qp, tol, full, walked)
    if answer is not None:
        return answer
    res = kkt_residuals(qp, x, y, z)
    if stop is not None and _certifies_infeasible(qp, *stop):
        return QpSolution("infeasible", x, y, z, res, qp.objective(x), iters, certificate=stop)
    status = "unbounded" if np.max(np.abs(x), initial=0.0) > 1e12 else "iteration_limit"
    return QpSolution(status, x, y, z, res, qp.objective(x), iters)
