"""The whole Hermitian matrix a ``CovarianceMatrix`` holds, as a new array.

``matrices.covariance`` fills one row-major triangle of X's buffer and
names it; the tests that read W entry by entry mirror that triangle here.
"""

import numpy as np


def whole(w) -> np.ndarray:
    m = w.entries
    if w.triangle == "upper":
        return np.triu(m) + np.triu(m, 1).conj().T
    return np.tril(m) + np.tril(m, -1).conj().T
