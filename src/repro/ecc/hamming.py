"""Construction of single-error-correcting (SEC) Hamming codes.

On-die ECC is reported to use 64- or 128-bit-dataword SEC Hamming codes
(paper Section 1).  A standard-form SEC Hamming code with ``r`` parity bits
assigns every data bit a distinct non-zero syndrome column that is also
distinct from the ``r`` unit columns of the identity block — i.e. a column of
Hamming weight at least two.  There are ``2**r - r - 1`` such columns, so

* a *full-length* code uses all of them (``k = 2**r - r - 1``), and
* a *shortened* code uses any ordered subset of ``k`` of them.

Every valid on-die ECC function therefore corresponds to an ordered selection
of ``k`` distinct weight-≥2 columns, which is exactly the design space BEER
searches (paper Section 3.3, "Design Space").

The ``sec-hamming`` family of :mod:`repro.ecc.family` owns that design
space; the helpers here call it under their established names.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import CodeConstructionError
from repro.ecc.code import SystematicLinearCode
from repro.ecc.codespace import design_space_size
from repro.ecc.family import get_family


def min_parity_bits(num_data_bits: int) -> int:
    """Return the minimum number of parity bits for a ``k``-data-bit SEC code.

    This is the smallest ``r`` with ``2**r - r - 1 >= k``.
    """
    return get_family("sec-hamming").min_parity_bits(num_data_bits)


def full_length_data_bits(num_parity_bits: int) -> int:
    """Return ``k`` for the full-length SEC Hamming code with ``r`` parity bits."""
    if num_parity_bits < 2:
        raise CodeConstructionError("a SEC Hamming code needs at least two parity bits")
    return (1 << num_parity_bits) - num_parity_bits - 1


def candidate_parity_columns(num_parity_bits: int) -> List[int]:
    """Return every legal data-column syndrome for ``r`` parity bits.

    Legal columns are the non-zero ``r``-bit values of weight at least two
    (weight-one values are reserved for the identity block over the parity
    bits), listed in increasing integer order.
    """
    return get_family("sec-hamming").candidate_columns(num_parity_bits)


def is_shortened(code: SystematicLinearCode) -> bool:
    """Return True if the code uses fewer data bits than the full-length code."""
    return code.num_data_bits < full_length_data_bits(code.num_parity_bits)


def hamming_code(
    num_data_bits: int,
    num_parity_bits: Optional[int] = None,
    columns: Optional[Sequence[int]] = None,
) -> SystematicLinearCode:
    """Construct a deterministic SEC Hamming code.

    Parameters
    ----------
    num_data_bits:
        Dataword length ``k``.
    num_parity_bits:
        Number of parity bits ``r``; defaults to the minimum for ``k``.
    columns:
        Optional explicit choice of the ``k`` data-column syndromes (integers,
        LSB = parity row 0).  When omitted the first ``k`` legal columns in
        increasing integer order are used, which gives a repeatable
        "textbook" construction.
    """
    return get_family("sec-hamming").construct(num_data_bits, num_parity_bits, columns)


def random_hamming_code(
    num_data_bits: int,
    num_parity_bits: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> SystematicLinearCode:
    """Sample a uniformly random SEC Hamming code for the given dimensions.

    This mirrors the paper's evaluation methodology (Section 6.1), which
    samples representative on-die ECC functions by drawing random ordered
    subsets of legal parity-check columns.
    """
    return get_family("sec-hamming").random(num_data_bits, num_parity_bits, rng)


def example_7_4_code() -> SystematicLinearCode:
    """Return the exact (7, 4, 3) Hamming code of the paper's Equation 1.

    The parity-check matrix is::

        H = [ 1 1 1 0 | 1 0 0 ]
            [ 1 1 0 1 | 0 1 0 ]
            [ 1 0 1 1 | 0 0 1 ]
    """
    return SystematicLinearCode(
        [
            [1, 1, 1, 0],
            [1, 1, 0, 1],
            [1, 0, 1, 1],
        ]
    )


def count_sec_functions(num_data_bits: int, num_parity_bits: Optional[int] = None) -> int:
    """Count the ordered arrangements of legal columns, i.e. the design space size.

    This is the number of distinct standard-form SEC parity-check matrices for
    the given dimensions: ``P(2**r - r - 1, k)`` ordered selections.
    """
    return design_space_size(num_data_bits, num_parity_bits)
