"""Linear algebra over GF(2).

This package provides the finite-field substrate the rest of the library
builds on.  Codes, BEER and BEEP compute on integer bit masks (bit ``i`` of
an int is element ``i``, LSB first):

* :mod:`repro.gf2.bits` owns the word format: a dataword or codeword that
  crosses the public API is a 1-D ``uint8`` array of 0s and 1s, checked by
  :func:`~repro.gf2.bits.as_bits` and converted to and from its int mask by
  :func:`~repro.gf2.bits.bits_to_int` and :func:`~repro.gf2.bits.int_to_bits`;
* :func:`~repro.gf2.affine.solve_affine` solves the few-row affine systems
  BEEP crafts its test patterns from;
* :mod:`repro.gf2.bitpack` packs rows into ``uint64`` lanes and holds the
  per-byte XOR-fold syndrome kernels of the ``packed`` simulation backend.
"""

from repro.gf2.affine import solve_affine
from repro.gf2.bitpack import pack_rows, popcount_u64, unpack_rows
from repro.gf2.bits import as_bits, bits_to_int, int_to_bits, is_binary

__all__ = [
    "as_bits",
    "bits_to_int",
    "int_to_bits",
    "is_binary",
    "solve_affine",
    "pack_rows",
    "popcount_u64",
    "unpack_rows",
]
