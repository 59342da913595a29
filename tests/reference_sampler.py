"""Per-cell reference implementation of the Poisson sampler, kept as the
oracle that the vectorized `mortboost.simulate._draw_poisson` must match
draw for draw.

One Philox generator per (seed, domain) serves all the cells of a call:
before each cell's draw its state is reset to the key, the counter block of
the cell index (the index in counter word 2, i.e. ``index << 128``) and an
empty output buffer, and numpy's `Generator.poisson` draws from it. That is
exactly the state of a fresh ``Philox(key, counter=index << 128)``. This is
how the package drew its counts before it computed the stream on arrays.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def draw_poisson(seed: int, domain: int, indices, means) -> np.ndarray:
    """One Poisson draw per cell: means[j] from the (seed, domain, indices[j])
    counter block."""
    bitgen = np.random.Philox(key=(seed & _MASK64) | (domain << 64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty buffer (buffer_pos 4)
    counter = state["state"]["counter"]
    out = np.empty(len(means), dtype=np.int64)
    for j, (index, mean) in enumerate(zip(indices, means)):
        counter[2] = index
        bitgen.state = state
        out[j] = gen.poisson(mean)
    return out
