import numpy as np
import pytest


def random_orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


def rebuild_y_c(dataset, u_perp_s):
    """The stacked shared-signal matrix y_c, rebuilt from the dataset and the
    fitted u_perp_s: each study minus its projection onto u_perp_s."""
    return np.vstack([y if u.shape[1] == 0 else y - u @ (u.T @ y)
                      for y, u in zip(dataset.studies, u_perp_s)])
