"""The clean-clause path of BEER's SAT formulation.

The encoders append their clauses unchecked (``CNF._append_clean``), on the
promise that each clause is already what ``CNF.add_clause`` would store:
distinct, non-complementary Python ints over allocated variables.  For
random codes of both BEER-searchable families and random exact or perturbed
profiles, with and without pinned columns, this checks the promise clause by
clause, and checks that routing the private append through ``add_clause``
builds the same formula.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.beer_sat as beer_sat
from repro.core import (
    MiscorrectionProfile,
    SatBeerSolver,
    charged_patterns,
    expected_miscorrection_profile,
)
from repro.ecc import get_family
from repro.sat import CNF, simplify_literals

APPEND_CLEAN = CNF._append_clean


def checked_append(formula, *literals):
    """``CNF._append_clean``, asserting first that the clause is clean."""
    assert all(type(literal) is int for literal in literals), literals
    assert simplify_literals(literals) == literals
    assert max(abs(literal) for literal in literals) <= formula.num_variables
    APPEND_CLEAN(formula, *literals)


def routed_append(formula, *literals):
    """The private append sent through the checked public one."""
    formula.add_clause(literals)


def built_formula(solver, profile, pins, append):
    """``(num_variables, clauses)`` of the formula ``solver.solve`` builds."""
    formulas = []

    def capture(formula, **kwargs):
        formulas.append(formula)
        return
        yield

    with mock.patch.object(beer_sat, "iterate_models", capture), mock.patch.object(
        CNF, "_append_clean", append
    ):
        solver.solve(profile, incremental=False, known_columns=pins)
    (formula,) = formulas
    return formula.num_variables, formula.clauses


@st.composite
def formulation_cases(draw):
    """``(solver, profile, known_columns)`` over a random code and profile."""
    family = get_family(draw(st.sampled_from(["sec-hamming", "secded-extended-hamming"])))
    num_data_bits = draw(st.integers(min_value=3, max_value=10))
    code = family.random(
        num_data_bits, rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    )
    weights = draw(st.sampled_from([[1], [2], [1, 2]]))
    patterns = list(charged_patterns(num_data_bits, weights))
    mapping = {
        pattern: set(positions)
        for pattern, positions in expected_miscorrection_profile(code, patterns).items()
    }
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        # Perturb: flip one (pattern, DISCHARGED bit) entry of the profile.
        pattern = draw(st.sampled_from(patterns))
        target = draw(st.sampled_from(sorted(pattern.discharged_bits)))
        mapping[pattern] ^= {target}
    pinned = draw(
        st.lists(st.integers(0, num_data_bits - 1), max_size=2, unique=True)
    )
    pins = {index: code.parity_column_ints[index] for index in pinned} or None
    solver = SatBeerSolver(num_data_bits, family=family.name)
    return solver, MiscorrectionProfile(num_data_bits, mapping), pins


@given(formulation_cases())
@settings(max_examples=40, deadline=None)
def test_encoder_clauses_are_clean_and_match_add_clause(case):
    solver, profile, pins = case
    clean = built_formula(solver, profile, pins, checked_append)
    assert clean == built_formula(solver, profile, pins, routed_append)
