"""The integer type of packed sort and search keys.

Set-up packs several non-negative ids into one integer key, as the digits
or bit fields of one number, so that one sort or binary search orders them
by all the ids together: the (src, dst, block) key of
``schedule.build_demands``, the reverse keys of ``build_schedule``'s
symmetry check and the class keys of its orbit steps, the message keys of
``schedule.messages`` and ``schedule.validate``, the subset codes of
``steiner.verify``, the block codes of ``steiner.mobius_orbits`` and the
block ids ``partition.validate_partition`` sorts when a block is out of
range or not lower.

The key-width rule: each of these key arrays takes its type from
``key_dtype`` of the largest key its site can form, uint32 when that is
below 2**32 and int64 otherwise, since numpy sorts and searches 32-bit
integers about twice as fast as 64-bit ones.  For the spherical designs
only the demand key stays int64, at q = 16 (P = 4112 processors, m = 257
row blocks).  Keys never leave the function that packs them: every array a
caller gets back is int64 as before.
"""

from __future__ import annotations

import numpy as np

__all__ = ["key_dtype"]


def key_dtype(largest: int) -> type[np.unsignedinteger] | type[np.signedinteger]:
    """np.uint32 when every key, non-negative and at most largest, fits in 32 bits; np.int64 otherwise."""
    return np.uint32 if largest < 2**32 else np.int64
