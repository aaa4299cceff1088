"""The keyed-draw reference shared by the tests: one ``rng_stream`` per replicate.

``model.replicate_counts`` documents its counts as those of this loop's
draws, so tests that need the (R, n) atom ids behind a replicated
Monte-Carlo quantity take them from here.
"""

import numpy as np

from offset_risk.model import draw_atom_ids, rng_stream


def loop_draws(seed, tag, replicates, n, dist, signs):
    """(R, n) atom ids and signs, one keyed stream per replicate, atom ids before signs."""
    idx = np.empty((replicates, n), dtype=np.int64)
    sgn = np.empty((replicates, n))
    for r in range(replicates):
        rng = rng_stream(seed, tag, r)
        if dist is not None:
            idx[r] = draw_atom_ids(dist, n, rng)
        if signs:
            sgn[r] = rng.integers(0, 2, size=n) * 2.0 - 1.0
    return (idx if dist is not None else None), (sgn if signs else None)
