"""The Boolean satisfiability (SAT) substrate of BEER's SAT backend.

The paper solves the BEER constraint problem with the Z3 solver; this package
provides what :mod:`repro.core.beer_sat` needs of that capability, built from
scratch:

* :mod:`repro.sat.cnf` — CNF formula container with variable allocation
  and checked clause addition (integer literals, duplicate-literal removal,
  tautology dropping) for clauses from outside; the encoders' clauses are
  clean by construction and skip the checks,
* :mod:`repro.sat.solver` — a persistent, incremental CDCL solver
  (two-watched-literal propagation, first-UIP clause learning, heap-based
  VSIDS branching, Luby restarts, learned-clause deletion, a conflict
  budget) and model enumeration under blocking clauses,
* :mod:`repro.sat.encoders` — the CNF encodings of the BEER formulation:
  XOR gates and parity chains, column design-space predicates,
  lexicographic order of bit vectors, and integers read back from a model.
"""

from repro.sat.cnf import CNF, simplify_literals
from repro.sat.solver import (
    CDCLSolver,
    SATResult,
    SolverStats,
    iterate_models,
)
from repro.sat.encoders import encode_xor

__all__ = [
    "CNF",
    "simplify_literals",
    "CDCLSolver",
    "SATResult",
    "SolverStats",
    "iterate_models",
    "encode_xor",
]
