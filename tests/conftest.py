# amigo sets its one-BLAS-thread default before numpy loads, so it is
# imported first; pytest itself has not loaded numpy at this point.
import amigo  # noqa: F401
import numpy as np


def central_diff(f, x, h=1e-5):
    """Central finite differences of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def rel_err(approx, exact):
    exact = np.asarray(exact, dtype=float)
    return float(np.linalg.norm(np.asarray(approx, dtype=float) - exact) / np.linalg.norm(exact))
