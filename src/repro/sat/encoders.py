"""CNF encodings for the constraint shapes of BEER's SAT formulation.

:mod:`repro.core.beer_sat` expresses XOR gates (column differences and
sums), a code family's per-column design-space predicates, and the
lexicographic order of parity rows over Boolean variables, and reads each
parity-check column back from a model as an integer.  These helpers add the
corresponding clauses to a :class:`~repro.sat.cnf.CNF`, allocating
auxiliary variables where needed.

Every clause an encoder adds is built from distinct variables, the caller's
and the ones it allocates, so it is appended unchecked
(``CNF._append_clean``).  Each public encoder that takes a list of literals
checks that list once instead: its literals must be non-zero integers over
distinct, already allocated variables.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import SolverError
from repro.sat.cnf import CNF, simplify_literals


def _check_literals(formula: CNF, literals: Sequence[int]) -> List[int]:
    """``literals`` as a list, once they name distinct allocated variables.

    Raises :class:`SolverError` for a literal that is not a non-zero integer,
    for two literals over one variable, and for a variable ``formula`` has
    not allocated.
    """
    literals = list(literals)
    if not literals:
        return literals
    clean = simplify_literals(literals)
    if clean is None or len(clean) != len(literals):
        raise SolverError(f"literals {literals} repeat a variable")
    if max(abs(literal) for literal in clean) > formula.num_variables:
        raise SolverError(f"literals {literals} name a variable the formula has not allocated")
    return list(clean)


def encode_xor(formula: CNF, literals: Sequence[int], parity: bool) -> None:
    """Constrain ``literals`` to XOR to ``parity`` (True = odd number of true literals).

    Long XOR chains are broken into three-literal links with auxiliary
    variables so clause counts stay linear in the chain length.
    """
    literals = _check_literals(formula, literals)
    if not literals:
        if parity:
            raise SolverError("an empty XOR cannot have odd parity")
        return
    # Reduce to a chain: x1 xor x2 = a1, a1 xor x3 = a2, ...
    accumulator = literals[0]
    for literal in literals[1:]:
        auxiliary = formula.new_variable()
        encode_xor_gate(formula, accumulator, literal, auxiliary)
        accumulator = auxiliary
    formula._append_clean(accumulator if parity else -accumulator)


def encode_xor_gate(formula: CNF, left: int, right: int, result: int) -> None:
    """Add the four clauses enforcing ``result = left XOR right``.

    The three literals must be ints over three distinct variables that
    ``formula`` has allocated; the clauses are appended unchecked.
    """
    formula._append_clean(-left, -right, -result)
    formula._append_clean(left, right, -result)
    formula._append_clean(-left, right, result)
    formula._append_clean(left, -right, result)


def encode_odd_weight(formula: CNF, literals: Sequence[int]) -> None:
    """Constrain an odd number of ``literals`` to be true.

    This is the Hsiao SEC-DED column predicate: every data column of ``H``
    must have odd parity (which also makes it non-zero).
    """
    encode_xor(formula, literals, True)


def encode_not_weight_one(formula: CNF, literals: Sequence[int]) -> None:
    """Forbid exactly one of ``literals`` being true.

    For each literal: if it is true, some other literal must be true too.
    Combined with a non-zero constraint this yields weight ≥ 2; combined with
    :func:`encode_odd_weight` it yields weight ≥ 3 — the two column
    design-space predicates of the built-in BEER-searchable code families.
    """
    literals = _check_literals(formula, literals)
    for index, literal in enumerate(literals):
        formula._append_clean(-literal, *literals[:index], *literals[index + 1 :])


def encode_column_design_space(
    formula: CNF, literals: Sequence[int], min_weight: int, odd_weight: bool
) -> None:
    """Encode a code family's per-column predicates over one column's variables.

    Supports the constraint shapes of
    :class:`repro.ecc.family.ColumnConstraints` that BEER-searchable families
    declare: ``min_weight`` in {1, 2, 3} (3 only together with
    ``odd_weight``, matching SEC-DED) and the odd-parity predicate.
    """
    if min_weight >= 4 or (min_weight == 3 and not odd_weight):
        raise SolverError(
            f"no CNF encoding registered for min_weight={min_weight} with "
            f"odd_weight={odd_weight}"
        )
    literals = _check_literals(formula, literals)
    if odd_weight:
        encode_odd_weight(formula, literals)
    elif not literals:
        raise SolverError("a column over no variables cannot be non-zero")
    else:
        formula._append_clean(*literals)  # non-zero
    if min_weight >= 2:
        encode_not_weight_one(formula, literals)


def encode_lex_geq(formula: CNF, left: Sequence[int], right: Sequence[int]) -> None:
    """Constrain the bit vector ``left`` to be lexicographically ≥ ``right``.

    Position 0 is compared first and true > false.  An auxiliary variable
    per position after the first is implied true while the two prefixes are
    equal; it is never forced false, so the encoding costs ``3n - 2``
    clauses and ``n - 1`` variables and admits exactly the pairs with
    ``left ≥ right`` once projected onto ``left`` and ``right``.
    """
    left, right = list(left), list(right)
    if len(left) != len(right):
        raise SolverError("lexicographic comparison needs vectors of equal length")
    checked = _check_literals(formula, left + right)
    left, right = checked[: len(left)], checked[len(left) :]
    guard: List[int] = []  # [-prefix_equal], empty before position 0
    for position, (upper, lower) in enumerate(zip(left, right)):
        formula._append_clean(*guard, upper, -lower)
        if position == len(left) - 1:
            break
        prefix_equal = formula.new_variable()
        formula._append_clean(*guard, upper, prefix_equal)
        formula._append_clean(*guard, -lower, prefix_equal)
        guard = [-prefix_equal]


def integer_of_bits(model: dict, variables: Sequence[int]) -> int:
    """Decode a little-endian bit vector of SAT variables from a model."""
    value = 0
    for position, variable in enumerate(variables):
        if model[variable]:
            value |= 1 << position
    return value
