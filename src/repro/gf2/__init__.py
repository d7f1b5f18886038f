"""Linear algebra over GF(2).

This package provides the finite-field substrate the rest of the library
builds on.  Codes, BEER and BEEP compute on integer bit masks (bit ``i`` of
an int is element ``i``, LSB first):

* :func:`~repro.gf2.affine.solve_affine` solves the few-row affine systems
  BEEP crafts its test patterns from;
* :class:`~repro.gf2.matrix.GF2Matrix` and
  :class:`~repro.gf2.matrix.GF2Vector` wrap ``numpy`` ``uint8`` arrays whose
  entries are 0 or 1 — the types datawords, codewords and the matrix views
  of a code are handed out as;
* :mod:`repro.gf2.bitpack` packs rows into ``uint64`` lanes and holds the
  per-byte XOR-fold syndrome kernels of the ``packed`` simulation backend.
"""

from repro.gf2.matrix import GF2Matrix, GF2Vector
from repro.gf2.affine import solve_affine
from repro.gf2.bitpack import pack_rows, popcount_u64, unpack_rows

__all__ = [
    "GF2Matrix",
    "GF2Vector",
    "solve_affine",
    "pack_rows",
    "popcount_u64",
    "unpack_rows",
]
