"""Exact solver for the proximal cutting-plane master problem.

    maximize   min_k ( offsets[k] + grads[k] @ x )  -  (rho/2) ||x - center||^2
    subject to x >= 0,  sum(x) <= total_cap (optional)

Solved by a primal active-set method on the epigraph form.  Problems here are
tiny (a handful of coordinates, tens of cuts), so dense linear algebra with
deterministic tie-breaking is both fast and reproducible.
"""

import numpy as np

_FEAS_TOL = 1e-9
_MULT_TOL = 1e-9


class MasterError(ArithmeticError):
    pass


def project_capped(x, total_cap=None):
    """Euclidean projection onto {y >= 0} intersected with {sum(y) <= cap}."""
    x = np.asarray(x, dtype=float)
    y = np.maximum(x, 0.0)
    if total_cap is None or y.sum() <= total_cap:
        return y
    if total_cap <= 0.0:
        return np.zeros_like(x)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - total_cap
    ks = np.arange(1, x.size + 1)
    valid = u - css / ks > 0
    k = int(ks[valid][-1])
    tau = css[k - 1] / k
    return np.maximum(x - tau, 0.0)


def _cut_values(offsets, grads, x):
    return offsets + grads @ x


class CutSet:
    """Distinct cuts ``offset + grad @ x``, oldest first.

    The master wants no repeated (offset, grad) row: one makes the
    working-set KKT systems singular, which the least-squares fallback
    survives but which invites degenerate add/drop rounds.  Adding a cut
    identical to one already held does nothing.
    """

    def __init__(self, offsets=(), grads=()):
        self._rows = {}  # (offset, *grad) -> None, in insertion order
        for offset, grad in zip(offsets, grads):
            self.add(offset, grad)

    def __len__(self):
        return len(self._rows)

    def add(self, offset, grad):
        self._rows.setdefault((float(offset), *np.asarray(grad, dtype=float).tolist()))

    def keep_last(self, n):
        self._rows = dict.fromkeys(list(self._rows)[-n:])

    def arrays(self):
        """(offsets, grads) as contiguous arrays for ``maximize_cut_model``."""
        rows = np.array(list(self._rows))
        return np.ascontiguousarray(rows[:, 0]), np.ascontiguousarray(rows[:, 1:])


def maximize_cut_model(offsets, grads, center, rho, total_cap=None):
    """Return (x, value) for the prox-regularized cut model above.

    Callers pass distinct cuts (see ``CutSet``).
    """
    offsets = np.asarray(offsets, dtype=float)
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    center = np.asarray(center, dtype=float)
    K, n = grads.shape

    x = project_capped(center, total_cap)
    vals = _cut_values(offsets, grads, x)
    t = float(vals.min())

    scale = 1.0 + float(np.abs(offsets).max(initial=0.0)) + float(np.abs(x).max(initial=0.0))
    active_cuts = [int(np.argmin(vals))]
    active_bounds = [i for i in range(n) if x[i] <= _FEAS_TOL * scale]
    cap_active = bool(total_cap is not None and total_cap - x.sum() <= _FEAS_TOL * scale)

    stalled = 0  # consecutive iterations without a real move
    for _ in range(60 * (K + n + 2)):
        xhat, that, eta, lam, nu = _solve_eqp(
            offsets, grads, center, rho, active_cuts, active_bounds, cap_active, total_cap
        )
        dx = xhat - x
        dt = that - t
        if np.abs(dx).max(initial=0.0) <= _FEAS_TOL * scale and abs(dt) <= _FEAS_TOL * scale:
            # Stationary for the working set: check multiplier signs.  After
            # repeated zero-progress rounds switch to Bland's lowest-index
            # drop rule to break degenerate add/drop cycles.
            drop = _pick_drop(eta, lam, nu, active_cuts, active_bounds, cap_active,
                              bland=stalled >= 4)
            if drop is None:
                value = float(_cut_values(offsets, grads, x).min()
                              - 0.5 * rho * np.sum((x - center) ** 2))
                return x, value
            kind, idx = drop
            if kind == "cut":
                active_cuts.remove(idx)
            elif kind == "bound":
                active_bounds.remove(idx)
            else:
                cap_active = False
            stalled += 1
            continue

        alpha, blocker = _max_step(
            offsets, grads, x, t, dx, dt, active_cuts, active_bounds, cap_active, total_cap
        )
        stalled = stalled + 1 if alpha <= 1e-13 else 0
        x = x + alpha * dx
        t = t + alpha * dt
        if blocker is not None:
            kind, idx = blocker
            if kind == "cut":
                active_cuts.append(idx)
            elif kind == "bound":
                active_bounds.append(idx)
                x[idx] = 0.0
            else:
                cap_active = True
    raise MasterError("active-set master exceeded its iteration budget")


def _solve_eqp(offsets, grads, center, rho, active_cuts, active_bounds, cap_active, total_cap):
    """Equality-constrained subproblem for the current working set."""
    n = center.size
    free = [i for i in range(n) if i not in active_bounds]
    nf, na = len(free), len(active_cuts)
    size = nf + 1 + na + (1 if cap_active else 0)
    M = np.zeros((size, size))
    b = np.zeros(size)
    G = grads[active_cuts]

    # rows 0..nf-1: stationarity on free coordinates
    for r, i in enumerate(free):
        M[r, r] = rho
        for c in range(na):
            M[r, nf + 1 + c] = -G[c, i]
        if cap_active:
            M[r, -1] = 1.0
        b[r] = rho * center[i]
    # rows nf..nf+na-1: active cuts hold with equality
    for c, k in enumerate(active_cuts):
        M[nf + c, nf] = 1.0
        for r, i in enumerate(free):
            M[nf + c, r] = -grads[k, i]
        b[nf + c] = offsets[k]
    # row nf+na: cut multipliers sum to one
    M[nf + na, nf + 1:nf + 1 + na] = 1.0
    b[nf + na] = 1.0
    # optional cap row
    if cap_active:
        M[-1, :nf] = 1.0
        b[-1] = total_cap

    try:
        sol = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(M, b, rcond=None)

    xhat = np.zeros(n)
    xhat[free] = sol[:nf]
    that = float(sol[nf])
    eta = sol[nf + 1:nf + 1 + na]
    nu = float(sol[-1]) if cap_active else 0.0
    # bound multipliers from stationarity on the pinned coordinates
    lam = {}
    geta = eta @ G if na else np.zeros(n)
    for i in active_bounds:
        lam[i] = -rho * center[i] - geta[i] + (nu if cap_active else 0.0)
    return xhat, that, eta, lam, nu


def _pick_drop(eta, lam, nu, active_cuts, active_bounds, cap_active, bland=False):
    if bland:
        # lowest-index violated constraint, cuts first: anti-cycling order
        for c, k in sorted(enumerate(active_cuts), key=lambda ck: ck[1]):
            if len(active_cuts) > 1 and eta[c] < -_MULT_TOL:
                return ("cut", k)
        for i in sorted(active_bounds):
            if lam[i] < -_MULT_TOL:
                return ("bound", i)
        if cap_active and nu < -_MULT_TOL:
            return ("cap", None)
        return None
    worst = None
    worst_val = -_MULT_TOL
    for c, k in enumerate(active_cuts):
        if len(active_cuts) > 1 and eta[c] < worst_val:
            worst_val = eta[c]
            worst = ("cut", k)
    for i in active_bounds:
        if lam[i] < worst_val:
            worst_val = lam[i]
            worst = ("bound", i)
    if cap_active and nu < worst_val:
        worst = ("cap", None)
    return worst


def _max_step(offsets, grads, x, t, dx, dt, active_cuts, active_bounds, cap_active, total_cap):
    alpha = 1.0
    blocker = None
    K = offsets.size
    cut_rate = dt - grads @ dx
    cut_slack = offsets + grads @ x - t
    for k in range(K):
        if k in active_cuts:
            continue
        if cut_rate[k] > _FEAS_TOL:
            a = max(cut_slack[k], 0.0) / cut_rate[k]
            if a < alpha - 1e-15:
                alpha = a
                blocker = ("cut", k)
    for i in range(x.size):
        if i in active_bounds:
            continue
        if dx[i] < -_FEAS_TOL:
            a = max(x[i], 0.0) / (-dx[i])
            if a < alpha - 1e-15:
                alpha = a
                blocker = ("bound", i)
    if total_cap is not None and not cap_active:
        rate = dx.sum()
        if rate > _FEAS_TOL:
            a = max(total_cap - x.sum(), 0.0) / rate
            if a < alpha - 1e-15:
                alpha = a
                blocker = ("cap", None)
    return max(alpha, 0.0), blocker
