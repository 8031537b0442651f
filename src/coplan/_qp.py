"""Exact solver for the proximal cutting-plane master problem.

    maximize   min_k ( offsets[k] + grads[k] @ x )  -  (rho/2) ||x - center||^2
    subject to x >= 0,  sum(x) <= total_cap (optional)

Solved through its dual by an active-set method on the multipliers (Kiwiel,
"A method for solving certain quadratic programming problems arising in
nonsmooth optimization", IMA J. Numer. Anal. 1986; compare Lawson & Hanson's
NNLS).  With weights lam >= 0 on the cuts summing to one, mu >= 0 on the
bounds x >= 0, nu >= 0 on the cap and w = grads.T @ lam + mu - nu:

    minimize   lam @ offsets + nu * total_cap + center @ w + ||w||^2 / (2 rho)

and x = center + w / rho.  The dual's gradient is the cut values at x, x
itself and total_cap - sum(x), so the dual optimum is primal feasibility plus
complementarity.  Every dual-feasible point bounds the model's maximum from
above, so the value returned is a sound bound however the loop ends.
Problems here are small (a handful of coordinates; tens of cuts, or up to a
few thousand affine pieces of a rolling-horizon utility), so dense linear
algebra with deterministic tie-breaking is both fast and reproducible.
"""

import numpy as np

# An entry of the dual gradient counts as negative only beyond this multiple
# of the magnitude of the terms it sums: about 100 times their rounding error,
# and 100 times below the relative gap at which best responses are certified.
_ROUND_TOL = 1e-14


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


class CutSet:
    """Distinct cuts ``offset + grad @ x``, oldest first.

    Each cut is one column of the master's dual, which prices every column
    on every step: a repeated (offset, grad) row would only add work.
    Adding a cut identical to one already held does nothing.
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
    """Return (x, value) for the prox-regularized cut model above; ``value``
    is the dual objective at the final multipliers, an upper bound on the
    model's maximum that meets the model value at ``x`` at the optimum."""
    offsets = np.asarray(offsets, dtype=float)
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    center = np.asarray(center, dtype=float)
    K, n = grads.shape

    # Dual columns [B; simplex row] for the K cuts, the n bounds and the cap;
    # q is the linear cost of each column.
    m = K + n + (total_cap is not None)
    A = np.zeros((n + 1, m))
    A[:n, :K] = grads.T
    A[:n, K:K + n] = np.eye(n)
    A[n, :K] = 1.0
    q = np.zeros(m)
    q[:K] = offsets
    if total_cap is not None:
        A[:n, -1] = -1.0
        q[-1] = total_cap
    B, abs_B, abs_q = A[:n], np.abs(A[:n]), np.abs(q)
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))

    k = int(np.argmin(offsets + grads @ center))
    free, y = [k], np.ones(1)
    x = center + grads[k] / rho
    t = offsets[k] + grads[k] @ x
    for _ in range(10 * (m + n)):  # insurance: each pass lowers the dual
        # dual gradient less the simplex multiplier t; zero on the free set
        r = q + x @ B - t * A[n]
        r[free] = 0.0
        score = r / norms
        j = int(score.argmin())
        if score[j] >= 0.0:
            break
        score[r >= -_ROUND_TOL * (abs_q + np.abs(x) @ abs_B + abs(t) * A[n])] = 0.0
        j = int(score.argmin())
        if score[j] >= 0.0:
            break
        step = _free_optimum(A, q, center, rho, free + [j]) if len(free) <= n else None
        if step is not None and step[1][-1] > 0.0:
            free.append(j)
            y = np.concatenate((y, (0.0,)))
        else:
            # Column j depends (at least numerically) on the free columns:
            # the dual is linear along d = (d_free, 1) with A[:, free] @
            # d_free = -A[:, j], and falls at rate r[j].  Go until a free
            # variable hits zero (a component of d below rounding blocks
            # nothing), then let j take its place.
            d = np.linalg.lstsq(A[:, free], -A[:, j], rcond=None)[0]
            blocking = d < -1e-12 * np.abs(d).max()
            if not blocking.any():
                break
            ratios = np.where(blocking, y / np.where(blocking, -d, 1.0), np.inf)
            i = int(ratios.argmin())
            y = np.append(np.delete(np.maximum(y + ratios[i] * d, 0.0), i), ratios[i])
            free = free[:i] + free[i + 1:] + [j]
            step = _free_optimum(A, q, center, rho, free)
        # Move to the free set's optimum, freeing up each variable it would
        # push below zero on the way.
        while step is not None and step[1].min() < 0.0:
            p = step[1] - y
            ratios = np.where(step[1] < 0.0, y / np.where(step[1] < 0.0, -p, 1.0), np.inf)
            i = int(ratios.argmin())
            y = np.delete(np.maximum(y + ratios[i] * p, 0.0), i)
            del free[i]
            step = _free_optimum(A, q, center, rho, free)
        if step is None:
            break
        x, y, t = step

    w = B[:, free] @ y
    value = float(q[free] @ y + center @ w + w @ w / (2.0 * rho))
    # x is primal feasible up to rounding; make it exactly so on the bounds
    x = np.maximum(center + w / rho, 0.0)
    x[[i - K for i in free if K <= i < K + n]] = 0.0
    return x, value


def _free_optimum(A, q, center, rho, free):
    """(x, y, t) minimizing the dual over the free columns, the rest at zero,
    with t the multiplier of the simplex row; None if the columns are
    dependent."""
    n = center.size
    cols = A[:, free]
    Bf = cols[:n]
    f = len(free)
    M = np.empty((f + 1, f + 1))
    M[:f, :f] = Bf.T @ Bf / rho
    M[:f, f] = M[f, :f] = cols[n]
    M[f, f] = 0.0
    rhs = np.empty(f + 1)
    rhs[:f] = -q[free] - center @ Bf
    rhs[f] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    y = sol[:f]
    return center + Bf @ y / rho, y, -sol[f]
