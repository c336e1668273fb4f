"""Independent numerical oracles shared by the test suite.

These are deliberately naive (loops, central differences) and never call into
the library's differentiation machinery, so they stay valid as checks.
"""

import numpy as np


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def loop_mse(pred: np.ndarray, target: np.ndarray) -> float:
    assert pred.shape == target.shape
    total = 0.0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            total += (pred[i, j] - target[i, j]) ** 2
    return total / (pred.shape[0] * pred.shape[1])


def loop_mae_mse(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    assert pred.shape == truth.shape
    abs_total = 0.0
    sq_total = 0.0
    count = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            d = pred[i, j] - truth[i, j]
            abs_total += abs(d)
            sq_total += d * d
            count += 1
    return abs_total / count, sq_total / count


def central_diff(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f over every entry."""
    grad = np.zeros_like(x0, dtype=np.float64)
    for idx in np.ndindex(*x0.shape):
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += step
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def max_mixed_error(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(max absolute error, max relative error) between two arrays."""
    diff = np.abs(a - b)
    denom = np.maximum(np.abs(a), np.abs(b))
    rel = np.where(denom > 0, diff / np.maximum(denom, 1e-300), 0.0)
    return float(diff.max()) if diff.size else 0.0, float(rel.max()) if rel.size else 0.0


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray,
                      abs_tol: float = 1e-6, rel_tol: float = 1e-4) -> None:
    diff = np.abs(analytic - numeric)
    allow = np.maximum(abs_tol, rel_tol * np.abs(numeric))
    worst = (diff - allow).max()
    assert (diff <= allow).all(), f"gradient mismatch, worst excess {worst:.3e}"


def per_record_replay(records, epochs: int, run_step, surrogate_step, dummy, dummy_step):
    """Reference for the attack's replay: every epoch, one step per record in
    recorded order, each reading its dummy rows after every earlier record's
    update and updating them before the next record.

    `records` holds (rows, cut, recorded gradient) per record, each with a
    leading lane axis or none (rows: lanes x batch or batch). `dummy` is the
    dummy-label table (lanes x n x k or n x k), updated in place.
    run_step(dummy_batch, cut, recorded) returns (total, inversion,
    surrogate gradient, dummy gradient); surrogate_step(gradient) and
    dummy_step(dummy, rows, gradient) apply the two optimizers. Returns the
    per-lane loss and inversion traces: per epoch, the mean over the records
    of each lane's value."""
    lanes = 1 if dummy.ndim == 2 else dummy.shape[0]
    loss_traces = [[] for _ in range(lanes)]
    inversion_traces = [[] for _ in range(lanes)]
    for _ in range(epochs):
        totals, inversions = [], []
        for rows, cut, recorded in records:
            if dummy.ndim == 2:
                dummy_batch = dummy[rows]
            else:
                dummy_batch = np.stack([dummy[r][rows[r]] for r in range(lanes)])
            total, inversion, w_grad, d_grad = run_step(dummy_batch, cut, recorded)
            surrogate_step(w_grad)
            dummy_step(dummy, rows, d_grad)
            totals.append(np.reshape(total, lanes))
            inversions.append(np.reshape(inversion, lanes))
        for traces, values in ((loss_traces, totals), (inversion_traces, inversions)):
            per_lane = np.array(values).T
            for r in range(lanes):
                traces[r].append(float(np.mean(np.ascontiguousarray(per_lane[r]))))
    return loss_traces, inversion_traces
