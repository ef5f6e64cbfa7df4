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

A solve finds its binding set with the Goldfarb–Idnani dual active-set
method, followed by an active-set "polish" that re-solves the
equality-constrained KKT system by minimum-norm least squares.  The polish
both sharpens residuals to near machine precision and picks the centered
(minimum-norm) multiplier split when binding rows are linearly dependent,
which keeps degenerate dual splits deterministic.

Q must be positive definite.  A program's structure (Q, A, G and h) is
stored read-only, and ``rebind`` returns a program with new c and b that
shares it, so an iterative caller validates the structure once.  Programs
that share a structure also share the feasibility tolerance of h, the factor
L^-T of Q = LL', and a memo: the solver keeps the KKT matrix and
pseudo-inverse of the last active set it solved on, so a re-solve on an
unchanged active set factors nothing.  A new active set costs one SVD of its
constraint rows scaled by L^-T, not of the whole KKT matrix
(``_active_kkt``).

A solve with an active-set hint first walks from the hint.  The walk is a
primal-dual active-set step, that is, a semismooth Newton method
(Hintermüller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002): it settles in a
few steps from a nearby start and has no global guarantee from a far one.
So the hinted walk stops after min(n + m_eq, ``HINT_ROW_SETS``) row sets, a
bound set by cost: each row set of a walk takes a fresh SVD and
pseudo-inverse, about a tenth of a cold solve of the same program (0.10 to
0.15 ms against 1.1 to 1.5 ms on the ladder area programs, medians on a
2-vCPU Xeon with one BLAS thread), so a walk that has not settled within 8
row sets has spent what the cold path it falls back to costs.  A walk that
misses leaves the answer to the cold path, bit for bit the answer of an
unhinted solve, so the bound moves only the time.  The cold path then runs:

1. The dual method (``_dual_active_set``).  From the unconstrained minimum
   it adds the equality rows, then the most violated inequality row at a
   time, dropping rows whose multiplier would turn negative; it is exact and
   finite, and takes about one step per binding row.  ``max_iter`` caps its
   steps.  It judges each equality row's consistency as it reaches it.
2. Its rows are polished, then the polished point's binding rows, then the
   answer's support (``_dual_answer``).
3. Where the method stops on a row it can neither add nor make room for,
   an equality row included, its multipliers prove the program infeasible
   if they rule out every solution of 1-norm up to ``CERTIFICATE_RADIUS``;
   a program feasible only farther out is never called infeasible.
   Anything else that gives no answer is ``iteration_limit``.

``QpSolution.path`` names the route that answered.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
# a cap on the dual method's steps; solve also caps them at 2 * m_ineq + m_eq
# + 8, so this binds only on programs of about 500 rows or more (the
# benchmark's workloads take at most 391 steps, its screens 404)
DEFAULT_MAX_ITER = 1000
# the dual method's multipliers at a stop certify infeasibility when, scaled to
# max-norm 1, they balance G'z = A'y and leave a gap b'y - h'z, both to the
# tolerance, and the gap / residual rules out every solution of 1-norm up to the
# radius (the generated networks' stops reach 1.5e10 and more)
CERTIFICATE_TOL = 1e-6
CERTIFICATE_RADIUS = 1e9
# the row sets a hinted walk may solve (module docstring); walks that succeed
# on the benchmark's workloads and in the tests solve at most 7
HINT_ROW_SETS = 8


class QpDimensionError(ValueError):
    pass


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
        """The program as JSON: its arrays as nested lists of repr floats, which
        read back bit for bit, and its labels."""
        return json.dumps({**{key: getattr(self, key).tolist() for key in
                              ("q", "c", "a_eq", "b_eq", "g_ineq", "h_ineq")},
                           **{key: list(getattr(self, key)) for key in
                              ("var_labels", "eq_labels", "ineq_labels")}})


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


@dataclass(frozen=True)
class QpSolution:
    status: str  # optimal | infeasible | iteration_limit
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residuals: KktResiduals
    iterations: int
    # Farkas-type certificate (y, z >= 0) with G'z ~ A'y and b'y - h'z > 0,
    # attached when status == "infeasible".
    certificate: tuple[np.ndarray, np.ndarray] | None = None
    # binding inequality rows; reusable as the hint of a nearby re-solve
    active_set: tuple[int, ...] = ()
    # how solve reached it: hint (the hint's walk), dual (the cold path of the
    # module docstring) or failed (every status but optimal).  ``iterations``
    # is 0 for a hint and the dual method's steps, at least 1, otherwise
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

    Constraints a start leaves ambiguous (a hint from a nearby program, the
    dual method's independent rows beside duplicate or dependent binding
    rows, the split-flow common mode at zero capacity price) are settled by
    adding violated rows and dropping negative multipliers until the KKT
    system is consistent.  A row counts as violated below a slack of
    -min(feasibility tolerance, tol): validation allows a violation of tol
    only, so a row violated by more must join the set.  The pseudo-inverse
    keeps duals at the minimum-norm point of the optimal dual face, which
    makes degenerate multiplier splits symmetric and deterministic.

    Each step depends only on the current set, so a set that comes round
    again starts a cycle that can never end consistent: the walk gives up at
    the first repeat, or after ``budget`` row sets, and returns None.  The
    caller sets the budget (``solve``).
    """
    feas_tol = qp._feas_tol
    violation = min(feas_tol, tol)
    active = set(active)
    seen = set()
    for _ in range(budget):
        rows = sorted(active)
        if tuple(rows) in seen:
            return None
        seen.add(tuple(rows))
        x, y, z = _solve_active(qp, rows)
        slack = qp.h_ineq - qp.g_ineq @ x
        violated = [i for i in (slack < -violation).nonzero()[0].tolist() if i not in active]
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
    first is dropped and the step goes on.  The equality rows lead the active
    list and are never dropped.

    The method keeps only independent rows: a row whose normal lies in the
    span of the active normals is skipped if it is an equality that the
    current point misses by at most 1e-7 (1 + max|b|), and otherwise moves
    the multipliers alone.  Where such a row limits no multiplier, the method
    stops on it, and on such an equality it always stops.  The one exception
    is an inequality row whose normal keeps a positive part outside the span
    and whose stop's multipliers do not prove the program infeasible
    (``_certifies_infeasible``): the method takes the primal step out to it,
    however long, and adds it.

    U1, R and R^-1 live in n x n buffers, updated in place as in Goldfarb
    and Idnani's sec. 4.  An add appends one Gram-Schmidt column to U1 (the
    step's own projection, orthogonalized twice), the column (r', rho)' to R
    and (-r'/rho, 1/rho)' to R^-1.  A drop of column i leaves R upper
    Hessenberg from row i on, and one QR of that trailing block, H = Z B,
    re-triangularizes it.  Z rotates the trailing columns of U1, and of R^-1
    with its row i deleted: row i of R^-1 is orthogonal to H's columns, so
    E' R^-1 diag(I, Z), E deleting column i, is the new R^-1 (Golub and Van
    Loan, Matrix Computations, sec. 6.5), and no inverse is formed.  Each
    drop carries R^-1's rounding forward, so R^-1 R drifts from I, by up to
    1e-9 on the 24-area joint programs (cond(R) up to 2e7).

    Returns ``(rows, x, y, z, steps, proof)``.  (y, z) are the multipliers of
    the active rows at x.  ``rows`` are the active inequality rows at the
    optimum, or None where the method stopped or ran out of steps.
    ``proof`` is the stop's multipliers, 1 on the row stopped on and -r on
    the active rows scaled to max-norm 1, where they prove the program
    infeasible, else None.  ``steps`` counts the steps, the unconstrained
    minimum included; the method gives up after ``max_steps`` of them.
    """
    n, me = qp.n, len(qp.b_eq)
    j = qp._l_inv_t
    normals = np.vstack([qp.a_eq, -qp.g_ineq])
    bounds = np.concatenate([qp.b_eq, -qp.h_ineq])
    x = -(j @ (j.T @ qp.c))
    sign = np.ones(len(bounds))
    # active rows (equalities first), their multipliers u[:q], the active G rows as a mask
    active, u, held = [], np.zeros(n), np.zeros(len(qp.h_ineq), dtype=bool)
    equalities = 0  # the active equality rows, which lead ``active``
    consistent = 1e-7 * (1.0 + np.max(np.abs(qp.b_eq), initial=0.0))
    # J'N = basis[:, :q] tri[:q, :q] for q active rows, inverse = tri^-1; no
    # write puts a nonzero below the diagonal of either (a drop's rotation is
    # upper Hessenberg, with exact zeros), so row q is zero left of column q
    # when an add makes it the last row
    basis, tri, inverse = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))

    def split(rows, values):
        """(y, z) of multipliers ``values`` on rows ``rows`` (signed normals)."""
        w = np.zeros(len(bounds))
        w[rows] = values
        w[:me] *= sign[:me]
        return w[:me], w[me:]

    steps = 1
    if not (np.isfinite(x).all() and np.isfinite(bounds).all()):
        return (None, x, *split([], []), steps, None)
    pending = iter(range(me))
    while True:
        p = next(pending, None)
        if p is None:
            slack = qp.h_ineq - qp.g_ineq @ x
            slack[held] = np.inf
            worst = int(slack.argmin()) if len(slack) else -1
            if worst < 0 or slack[worst] >= -qp._feas_tol:
                rows = tuple(held.nonzero()[0].tolist())
                return (rows, x, *split(active, u[:len(active)]), steps, None)
            p = me + worst
        if p < me and normals[p] @ x > bounds[p]:
            sign[p] = -1.0
        normal, bound = sign[p] * normals[p], sign[p] * bounds[p]
        d = j.T @ normal
        d_squared = d @ d
        added = 0.0  # the multiplier of row p
        while True:
            if steps >= max_steps:
                return (None, x, *split(active, u[:len(active)]), steps, None)
            steps += 1
            q = len(active)
            spanned = basis[:, :q]
            part = spanned.T @ d
            free = d - spanned @ part
            # a second Gram-Schmidt pass, as one leaves a nearly dependent add
            # far from orthogonal: "twice is enough" (Daniel et al. 1976)
            extra = spanned.T @ free
            part += extra
            free -= spanned @ extra
            r = inverse[:q, :q] @ part
            # the largest dual step before an active inequality multiplier
            # turns negative, and the row that limits it (the first, on a tie)
            limit, drop = np.inf, None
            rising = (r[equalities:] > 0.0).nonzero()[0] + equalities
            if len(rising):
                ratios = u[rising] / r[rising]
                first = int(ratios.argmin())
                limit, drop = ratios[first], int(rising[first])
            curvature = free @ free
            dependent = curvature <= 1e-20 * d_squared or q == n
            if dependent and p < me and abs(bound - normal @ x) <= consistent:
                break  # a dependent equality the point meets: skip it
            if dependent and drop is None:
                # n lies in the span of the active normals as far as the
                # method can tell, and no multiplier makes room for it
                scale = max(1.0, np.max(np.abs(r), initial=0.0))
                stop = split(active + [p], np.append(-r, 1.0) / scale)
                certified = _certifies_infeasible(qp, *stop)
                if certified or p < me or not (curvature > 0.0 and q < n):
                    return (None, x, *split(active, u[:q]), steps, stop if certified else None)
                # not proved infeasible: the primal step out to the row
            if dependent and drop is not None:
                step = limit  # no primal step
            else:
                step = min(limit, (bound - normal @ x) / curvature)
                x = x + step * (j @ free)
            u[:q] -= step * r
            added += step
            if drop is None or step < limit:
                rho = math.sqrt(curvature)
                basis[:, q] = free / rho
                tri[:q, q], tri[q, q] = part, rho
                inverse[:q, q], inverse[q, q] = -r / rho, 1.0 / rho
                active.append(p)
                if p < me:
                    equalities += 1
                else:
                    held[p - me] = True
                u[q] = added
                break
            # drop column ``drop``: R without it is upper Hessenberg from row
            # ``drop`` on, and only that trailing block needs new factors
            i, q = drop, q - 1
            held[active.pop(i) - me] = False
            u[i:q] = u[i + 1:q + 1]
            if i < q:
                rotation, block = np.linalg.qr(tri[i:q + 1, i + 1:q + 1])
                basis[:, i:q] = basis[:, i:q + 1] @ rotation
                tri[:i, i:q] = tri[:i, i + 1:q + 1]
                tri[i:q, i:q] = block
                inverse[:i, i:q] = inverse[:i, i:q + 1] @ rotation
                inverse[i:q, i:q] = inverse[i + 1:q + 1, i:q + 1] @ rotation


def _dual_answer(qp, rows, tol, budget):
    """The polished answer ``(x, y, z, residuals)`` of the dual method's rows, or None.

    The method's rows are polished at ``budget``, then the polished point's
    binding rows: the method keeps only independent rows, so on duplicate
    rows its multipliers sit on one of them, where the polish of the binding
    rows splits them at the minimum norm.  The binding rows are read at the
    polished point because the method's own point can miss its rows by more
    than the feasibility tolerance.  Last, an answer whose support (its rows
    with a positive multiplier) differs from the rows it was polished from is
    polished once more from its support, the set a re-solve hinted with the
    answer's ``active_set`` starts from; that re-solve then factors nothing
    new.  Where a later polish fails, the earlier answer stands.
    """
    answer = _polish(qp, set(rows), tol, budget)
    if answer is None:
        return None
    binding = qp.binding_rows(answer[0])
    if binding != rows:
        answer = _polish(qp, set(binding), tol, budget) or answer
        rows = binding
    support = tuple((answer[2] > 0.0).nonzero()[0].tolist())
    if support != rows:
        answer = _polish(qp, set(support), tol, budget) or answer
    return answer


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


def _optimal(polished, iters, path) -> QpSolution:
    """The optimal solution of an active-set answer (x, y, z, residuals)."""
    px, py, pz, pres = polished
    return QpSolution("optimal", px, py, pz, pres, iters,
                      active_set=tuple((pz > 0.0).nonzero()[0].tolist()), path=path)


def solve(qp: QuadraticProgram, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER,
          active_hint: tuple[int, ...] | None = None) -> QpSolution:
    """Solve to KKT residuals <= tol; deterministic for identical inputs.

    ``active_hint`` short-circuits the cold path when the binding set of a
    nearby instance is known (e.g. the previous round of an iterative
    caller); the hinted solution is accepted only after passing the full KKT
    validation.  A hint that misses within min(n + m_eq, ``HINT_ROW_SETS``)
    row sets, past which a walk costs more than a cold solve, is left to the
    cold path, the dual method and its polishes (module docstring), whose
    steps ``max_iter`` caps.  An answer that is not optimal
    carries the dual method's point, multipliers and steps.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n, me, mi = qp.n, len(qp.b_eq), len(qp.h_ineq)
    full = 2 * mi + 8  # the cold polish's budget in row sets

    if active_hint is not None and mi:
        polished = _polish(qp, set(active_hint), tol, min(n + me, HINT_ROW_SETS))
        if polished is not None:
            return _optimal(polished, 0, "hint")

    rows, x, y, z, steps, proof = _dual_active_set(qp, min(max_iter, full + me))
    if rows is not None:
        answer = _dual_answer(qp, rows, tol, full)
        if answer is not None:
            return _optimal(answer, steps, "dual")
    status = "iteration_limit" if proof is None else "infeasible"
    return QpSolution(status, x, y, z, kkt_residuals(qp, x, y, z), steps, certificate=proof)
