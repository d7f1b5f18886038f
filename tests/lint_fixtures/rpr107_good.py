"""Negative fixture for RPR107: the fused path stays packed throughout."""
import numpy as np
from repro.gf2.bitpack import popcount_u64


def classify(rows, columns, column_ints, subsets, num_bits):
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    syndromes = np.bitwise_xor.reduceat(column_ints[columns], starts)
    counts = np.bincount(columns, minlength=num_bits)
    weights = popcount_u64(subsets)
    packed = np.packbits(counts > 0)  # packing is fine; unpacking is not
    return syndromes, counts, weights, packed
