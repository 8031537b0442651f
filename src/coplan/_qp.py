"""Exact solver for the proximal cutting-plane master problem.

    maximize   min_k ( offsets[k] + grads[k] @ x )  -  (rho/2) ||x - center||^2
    subject to x >= 0,  sum(x) <= total_cap  (math.inf: uncapped)

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

The cuts come as a :class:`CutSet`, which keeps the dual's columns and the
free set on which the last call ended, with that set's KKT matrix.
Successive calls of a consensus run move the center a little and rarely the
penalty, so that free set is mostly still optimal and its matrix still
current: a call first solves the KKT system on it and, if every
multiplier comes out positive, prices from there (a warm-started dual active
set, as in Goldfarb & Idnani, Math. Programming 27, 1983), else it starts
cold from the most violated cut.  Either start is a dual-feasible point of
the same loop, so both end on the same optimum up to rounding.
"""

import numpy as np

from .transport import exceeds

# An entry of the dual gradient counts as negative only beyond this multiple
# of the magnitude of the terms it sums: about 100 times their rounding error,
# and 100 times below the relative gap at which best responses are certified.
_ROUND_TOL = 1e-14


def project_capped(x, total_cap):
    """Euclidean projection onto {y >= 0} intersected with {sum(y) <= cap}."""
    x = np.asarray(x, dtype=float)
    y = np.maximum(x, 0.0)
    if y.sum() <= total_cap:
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
    """Distinct cuts ``offset + grad @ x``, oldest first, with the master's
    state for them.

    Each cut is one column of the master's dual, which prices every column
    on every step: a repeated (offset, grad) row would only add work, so
    adding a cut identical to one already held does nothing.  The set keeps
    the dual's columns (the cuts', then the n bounds' and the cap's), their
    costs and norms, appended as cuts arrive and rebuilt only by
    :meth:`keep_last`, and the free set on which the last
    :func:`maximize_cut_model` call ended, keyed by cut so that it outlives
    :meth:`keep_last`.  With that free set it keeps the set's columns and
    their KKT matrix at the last call's ``rho``, built anew only when the
    free set or ``rho`` changes, so a warm start only builds the right-hand
    side and solves.

    Each cut may carry a certificate from the agent that made it (see
    :class:`~coplan.consensus.PlanAgent`), kept beside it and dropped with
    it; :meth:`lowest` hands it back.
    """

    def __init__(self, offsets=(), grads=()):
        self._ids = {}   # (offset, *grad) -> cut id; ids count up in insertion order
        for offset, grad in zip(offsets, grads):
            self._ids.setdefault(_row(offset, grad), len(self._ids))
        self._next_id = len(self._ids)
        self._certificates = [None] * len(self._ids)  # one per cut, in cut order
        self._A = None   # dual columns, built with the first cut
        if self._ids:
            self._set_columns(np.array(list(self._ids)))
        self._free = []  # last free set: cut ids, and -1 - i for bound i (-1 - n: cap)
        self._free_cols = None
        self._free_kkt = (None, None)  # (rho, KKT matrix of the free columns)

    def __len__(self):
        return len(self._ids)

    @property
    def offsets(self):
        return np.zeros(0) if self._A is None else self._q[:len(self)]

    @property
    def grads(self):
        return np.zeros((0, 0)) if self._A is None else self._A[:-1, :len(self)].T

    def add(self, offset, grad, certificate=None):
        """Add a cut with its ``certificate``; return whether it was new."""
        key = _row(offset, grad)
        if key in self._ids:
            return False
        self._ids[key] = self._next_id
        self._next_id += 1
        self._certificates.append(certificate)
        if self._A is None:
            self._set_columns(np.array([key]))
            return True
        K = len(self) - 1
        col = np.array(key[1:] + (1.0,))
        self._A = np.concatenate((self._A[:, :K], col[:, None], self._A[:, K:]), axis=1)
        self._q = np.concatenate((self._q[:K], key[:1], self._q[K:]))
        self._norms = np.concatenate((self._norms[:K], _norms(col[:, None]), self._norms[K:]))
        self._abs_B = np.abs(self._A[:-1])
        return True

    def keep_last(self, n):
        drop = len(self) - n
        if drop > 0:
            self._ids = dict(list(self._ids.items())[drop:])
            self._certificates = self._certificates[drop:]
            self._A, self._q = self._A[:, drop:], self._q[drop:]
            self._norms, self._abs_B = self._norms[drop:], self._abs_B[:, drop:]

    def lowest(self, x):
        """The value at ``x`` of the cut lowest there (the oldest among
        ties), which is the model's value at ``x``, and that cut's
        certificate."""
        K = len(self)
        values = self._q[:K] + x @ self._A[:-1, :K]
        k = int(values.argmin())
        return float(values[k]), self._certificates[k]

    def _set_columns(self, rows):
        """Dual columns [grad; 1] of the cut ``rows`` (offset, *grad), then
        [e_i; 0] for the bounds and [-1; 0] for the cap, with their costs."""
        K, n = rows.shape[0], rows.shape[1] - 1
        A = np.zeros((n + 1, K + n + 1))
        A[:n, :K] = rows[:, 1:].T
        A[n, :K] = 1.0
        A[:n, K:K + n] = np.eye(n)
        A[:n, -1] = -1.0
        self._A = A
        self._q = np.zeros(K + n + 1)
        self._q[:K] = rows[:, 0]
        self._norms = _norms(A)
        self._abs_B = np.abs(A[:n])

    def _last_free(self, rho):
        """The last call's free set as (its columns, their dual columns, their
        KKT matrix at ``rho``), or None if one of them is gone."""
        K, first = len(self), self._next_id - len(self)
        free = [key - first if key >= 0 else K - 1 - key for key in self._free]
        if not free or min(free) < 0:
            return None
        if self._free_cols is None:
            self._free_cols = self._A[:, free]
        if self._free_kkt[0] != rho:
            self._free_kkt = (rho, _kkt_matrix(self._free_cols, rho))
        return free, self._free_cols, self._free_kkt[1]

    def _remember(self, free):
        K, first = len(self), self._next_id - len(self)
        keys = [j + first if j < K else K - 1 - j for j in free]
        if keys != self._free:
            # a column's entries never change, so these stay valid while
            # the same cuts are free
            self._free, self._free_cols, self._free_kkt = keys, None, (None, None)


def _row(offset, grad):
    return (float(offset), *np.asarray(grad, dtype=float).tolist())


def _norms(A):
    return np.sqrt(np.einsum("ij,ij->j", A, A))


def maximize_cut_model(cuts, center, rho, total_cap):
    """Return (x, value) for the prox-regularized model of the :class:`CutSet`
    ``cuts`` above; ``value`` is the dual objective at the final multipliers,
    an upper bound on the model's maximum that meets the model value at ``x``
    at the optimum.

    The call starts on the free set where the last call on ``cuts`` ended,
    if that set's own optimum is dual feasible (every multiplier positive),
    and otherwise cold from the most violated cut at ``center``.
    """
    center = np.asarray(center, dtype=float)
    n, K = center.size, len(cuts)
    # Dual columns [B; simplex row] for the K cuts, the n bounds and the cap;
    # q is the linear cost of each column.  An infinite cap prices its column
    # at infinity, so the column never enters.
    A, q, norms, abs_B = cuts._A, cuts._q, cuts._norms, cuts._abs_B
    q[-1] = total_cap
    m = q.size
    B = A[:n]

    start = cuts._last_free(rho)
    step = None
    if start is not None and min(start[0]) < K:
        free, cols, kkt = start
        step = _free_optimum(cols, q[free], center, rho, kkt)
    if step is not None and step[1].min() > 0.0:
        x, y, t, w = step
    else:
        k = int(np.argmin(q[:K] + center @ B[:, :K]))
        free, y, w = [k], np.ones(1), B[:, k]
        x = center + w / rho
        t = q[k] + w @ x
    for _ in range(10 * (m + n)):  # insurance: each pass lowers the dual
        # dual gradient less the simplex multiplier t; zero on the free set
        r = q + x @ B - t * A[n]
        r[free] = 0.0
        score = r / norms
        j = int(score.argmin())
        if score[j] >= 0.0:
            break
        score[r >= -_ROUND_TOL * (np.abs(q) + np.abs(x) @ abs_B + abs(t) * A[n])] = 0.0
        j = int(score.argmin())
        if score[j] >= 0.0:
            break
        grown = free + [j]
        step = _free_optimum(A[:, grown], q[grown], center, rho) if len(free) <= n else None
        if step is not None and step[1][-1] > 0.0:
            free = grown
            y = np.concatenate((y, (0.0,)))
        else:
            # Either column j depends (at least numerically) on the free
            # columns, or the free set's optimum with j gave j no weight.
            # In the first case the dual is linear along d = (d_free, 1)
            # with A[:, free] @ d_free = -A[:, j], and falls at rate r[j]:
            # go until a free variable hits zero (a component of d below
            # rounding blocks nothing), then let j take its place.  In the
            # second, j looked violated only through rounding in x, and a
            # step along d would leave the dual's simplex: x is the answer.
            d = np.linalg.lstsq(A[:, free], -A[:, j], rcond=None)[0]
            if np.abs(A[:, free] @ d + A[:, j]).max() > 1e-9 * norms[j]:
                break
            blocking = d < -1e-12 * np.abs(d).max()
            if not blocking.any():
                break
            ratios = np.where(blocking, y / np.where(blocking, -d, 1.0), np.inf)
            i = int(ratios.argmin())
            y = np.append(np.delete(np.maximum(y + ratios[i] * d, 0.0), i), ratios[i])
            free = free[:i] + free[i + 1:] + [j]
            step = _free_optimum(A[:, free], q[free], center, rho)
        # Move to the free set's optimum, freeing up each variable it would
        # push below zero on the way.
        while step is not None and step[1].min() < 0.0:
            p = step[1] - y
            ratios = np.where(step[1] < 0.0, y / np.where(step[1] < 0.0, -p, 1.0), np.inf)
            i = int(ratios.argmin())
            y = np.delete(np.maximum(y + ratios[i] * p, 0.0), i)
            del free[i]
            step = _free_optimum(A[:, free], q[free], center, rho)
        if step is None:
            w = B[:, free] @ y
            x = center + w / rho
            break
        x, y, t, w = step

    cuts._remember(free)
    value = float(q[free] @ y + center @ w + w @ w / (2.0 * rho))
    # x = center + w / rho is primal feasible up to rounding; make it
    # exactly so on the bounds
    x = np.maximum(x, 0.0)
    bounds = [i - K for i in free if K <= i < K + n]
    if bounds:
        x[bounds] = 0.0
    if exceeds(np.add.reduce(x), total_cap):
        # w / rho rounds at the scale of w over rho, which a small rho makes
        # larger than the slack a plan has on its cap; within that slack x
        # keeps its bits
        x = project_capped(x, total_cap)
    return x, value


def _kkt_matrix(cols, rho):
    """KKT matrix of the dual restricted to the free columns ``cols``: their
    Gram matrix over rho, bordered by the simplex row."""
    n = cols.shape[0] - 1
    Bf = cols[:n]
    f = cols.shape[1]
    M = np.empty((f + 1, f + 1))
    M[:f, :f] = (Bf.T @ Bf) / rho
    M[:f, f] = M[f, :f] = cols[n]
    M[f, f] = 0.0
    return M


def _free_optimum(cols, q_free, center, rho, kkt=None):
    """(x, y, t, w) minimizing the dual over the free columns ``cols`` with
    costs ``q_free``, the rest at zero: t is the multiplier of the simplex
    row and w the free columns' weighted sum, given their KKT matrix ``kkt``
    at ``rho`` or not; None if the columns are dependent."""
    n = center.size
    Bf = cols[:n]
    if kkt is None:
        kkt = _kkt_matrix(cols, rho)
    f = q_free.size
    rhs = np.empty(f + 1)
    rhs[:f] = -q_free - center @ Bf
    rhs[f] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    y = sol[:f]
    w = Bf @ y
    return center + w / rho, y, -sol[f], w
