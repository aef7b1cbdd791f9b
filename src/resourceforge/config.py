"""Global numerical configuration.

Dense eigendecompositions dominate the cost of every quantity here, so
state loading and validation, and operations that grow the Hilbert space
(tensors, ancillas, copy regrouping), enforce a total-dimension cap.  The default keeps everything
comfortably sub-second on a desktop; it can be raised through the
``RESOURCEFORGE_MAX_DIM`` environment variable.
"""

import os

DEFAULT_MAX_DIM = 256
MAX_DIM_ENV_VAR = "RESOURCEFORGE_MAX_DIM"


def max_dim() -> int:
    """Current dimension cap (env override wins over the default)."""
    raw = os.environ.get(MAX_DIM_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{MAX_DIM_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    if value < 2:
        raise ValueError(f"{MAX_DIM_ENV_VAR} must be at least 2, got {value}")
    return value
