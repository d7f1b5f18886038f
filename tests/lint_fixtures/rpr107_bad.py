"""Positive fixture for RPR107 (linted under the fused hot-path module)."""
import numpy as np
from repro.gf2.bitpack import unpack_rows, unpack_rows as ur


def classify(lanes, num_bits):
    bits = np.unpackbits(lanes.view(np.uint8), axis=1)  # dense blow-up
    rows = unpack_rows(lanes, num_bits)  # bitpack helper, same blow-up
    first = ur(lanes[:1], num_bits)  # aliased import still flagged
    return bits.sum() + rows.sum() + first.sum()
