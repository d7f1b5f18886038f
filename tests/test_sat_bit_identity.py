"""Bit-identity pins of the SAT formulation of BEER.

For each profile below the test pins three things, on the incremental and
on the one-shot enumeration path:

* the SHA-256 digest of ``(num_variables, clauses)`` of the formula
  :class:`~repro.core.beer_sat.SatBeerSolver` hands to
  :func:`~repro.sat.iterate_models`, so every clause, its literal order and
  the clause order stay as they are;
* the candidates, as parity-column integers in the order found;
* the solver statistics: ``BeerSolution.solver_stats`` on the incremental
  path, and the traced ``sat.*`` counters on the one-shot path, which makes a
  fresh solver per model and reports no ``solver_stats``.

The pinned values were computed before the SAT package was cut down to what
this backend uses; they must not be edited to make a change pass.
"""

import hashlib
import json

import numpy as np
import pytest

import repro.core.beer_sat as beer_sat
from repro.core import (
    ChargedPattern,
    SatBeerSolver,
    charged_patterns,
    expected_miscorrection_profile,
)
from repro.ecc import get_family, random_hamming_code
from repro.obs import TRACER


def _exact(code, weights):
    patterns = list(charged_patterns(code.num_data_bits, weights))
    return expected_miscorrection_profile(code, patterns)


def _case(name):
    """``(solver, profile, known_columns)`` of one pinned case."""
    if name.startswith("sec-k8-seed"):
        code = random_hamming_code(8, rng=np.random.default_rng(int(name[-1])))
        return SatBeerSolver(8), _exact(code, [1, 2]), None
    if name == "sec-k8-one-charged":
        # Six codes fit this {1}-CHARGED profile: seven solve calls.
        code = random_hamming_code(8, rng=np.random.default_rng(1))
        return SatBeerSolver(8), _exact(code, [1]), None
    if name == "secded-k8":
        family = get_family("secded-extended-hamming")
        code = family.random(8, rng=np.random.default_rng(5))
        return SatBeerSolver(8, family=family.name), _exact(code, [1, 2]), None
    if name == "sec-k16-pinned":
        code = random_hamming_code(16, rng=np.random.default_rng(16))
        columns = code.parity_column_ints
        pins = {index: columns[index] for index in (0, 7, 11)}
        return SatBeerSolver(16), _exact(code, [1]), pins
    if name == "inconsistent":
        # Bits 0 and 1 each miscorrect under the other's 1-CHARGED pattern,
        # so their columns would have to be equal: no code fits.
        code = random_hamming_code(8, rng=np.random.default_rng(0))
        profile = _exact(code, [1, 2])
        profile.record(ChargedPattern(8, [0]), [1])
        profile.record(ChargedPattern(8, [1]), [0])
        return SatBeerSolver(8), profile, None
    raise KeyError(name)


def _observe(name, incremental, monkeypatch):
    """``(formula digest, candidates, statistics)`` of one solve."""
    solver, profile, pins = _case(name)
    formulas = []
    enumerate_models = beer_sat.iterate_models

    def recording(formula, **kwargs):
        formulas.append(formula)
        return enumerate_models(formula, **kwargs)

    monkeypatch.setattr(beer_sat, "iterate_models", recording)
    TRACER.enable()
    try:
        solution = solver.solve(profile, incremental=incremental, known_columns=pins)
        counters = {
            key: int(value)
            for key, value in sorted(TRACER.counter_totals().items())
            if key.startswith("sat.")
        }
    finally:
        TRACER.disable()
    (formula,) = formulas
    text = json.dumps([formula.num_variables, formula.clauses], separators=(",", ":"))
    return (
        hashlib.sha256(text.encode()).hexdigest(),
        [list(code.parity_column_ints) for code in solution.codes],
        solution.solver_stats if incremental else counters,
    )


#: name -> (formula digest, candidates, incremental ``solver_stats``,
#: one-shot ``sat.*`` counters)
PINS = {
    "inconsistent": (
        "aaece7dae4598d968cd603bcb2f94782b9669b58e8f7f2ccc849aa979249ba29",
        [],
        {
            "variables": 1409, "clauses": 3917, "learnt": 1, "conflicts": 5,
            "decisions": 4, "propagations": 413, "restarts": 0, "learnt_total": 1,
            "deleted": 0, "solve_calls": 1,
        },
        {
            "sat.conflicts": 5, "sat.decisions": 4, "sat.propagations": 413,
            "sat.restarts": 0, "sat.solve_calls": 1,
        },
    ),
    "sec-k16-pinned": (
        "96f7c466ef313cc99b5231537ef687a04fd9716dcd8ced0a28a156b9b4927dbe",
        [[25, 24, 28, 13, 11, 9, 27, 17, 5, 21, 10, 3, 12, 18, 26, 22]],
        {
            "variables": 1750, "clauses": 5100, "learnt": 0, "conflicts": 0,
            "decisions": 95, "propagations": 1750, "restarts": 0, "learnt_total": 0,
            "deleted": 0, "solve_calls": 2,
        },
        {
            "sat.conflicts": 1, "sat.decisions": 95, "sat.propagations": 3089,
            "sat.restarts": 0, "sat.solve_calls": 2,
        },
    ),
    "sec-k8-one-charged": (
        "98e3d33e0b3298c00a525a21866a5fd40f431a96256e0e59ed29bd00894217e4",
        [
            [3, 15, 12, 5, 9, 6, 7, 10],
            [3, 15, 12, 5, 10, 6, 7, 9],
            [3, 15, 5, 9, 6, 10, 11, 12],
            [3, 15, 5, 9, 12, 10, 11, 6],
            [3, 15, 5, 10, 12, 9, 11, 6],
            [3, 15, 5, 10, 6, 9, 11, 12],
        ],
        {
            "variables": 349, "clauses": 1042, "learnt": 15, "conflicts": 20,
            "decisions": 217, "propagations": 3334, "restarts": 0, "learnt_total": 15,
            "deleted": 0, "solve_calls": 7,
        },
        {
            "sat.conflicts": 68, "sat.decisions": 278, "sat.propagations": 5707,
            "sat.restarts": 0, "sat.solve_calls": 7,
        },
    ),
    "sec-k8-seed0": (
        "c230faf6b7c6daf35be57faa033fe48bc6988879f700d0cb6df62dcc2dd168df",
        [[3, 7, 9, 12, 6, 14, 5, 15]],
        {
            "variables": 1413, "clauses": 3923, "learnt": 5, "conflicts": 8,
            "decisions": 139, "propagations": 2623, "restarts": 0, "learnt_total": 5,
            "deleted": 0, "solve_calls": 2,
        },
        {
            "sat.conflicts": 13, "sat.decisions": 146, "sat.propagations": 2817,
            "sat.restarts": 0, "sat.solve_calls": 2,
        },
    ),
    "sec-k8-seed1": (
        "252eed6554314ae1fa361a488dd1b4fcd4db108ba82416d00718eefe3f462518",
        [[3, 15, 5, 9, 12, 10, 11, 6]],
        {
            "variables": 1445, "clauses": 3969, "learnt": 7, "conflicts": 10,
            "decisions": 141, "propagations": 2620, "restarts": 0, "learnt_total": 7,
            "deleted": 0, "solve_calls": 2,
        },
        {
            "sat.conflicts": 17, "sat.decisions": 149, "sat.propagations": 2985,
            "sat.restarts": 0, "sat.solve_calls": 2,
        },
    ),
    "sec-k8-seed2": (
        "f8f414b2504ebbeff12fc2b9f344f722fbb006cee5515415a8f3a7b3d8ba1dc3",
        [[3, 5, 11, 10, 15, 9, 13, 7]],
        {
            "variables": 1429, "clauses": 3949, "learnt": 4, "conflicts": 7,
            "decisions": 140, "propagations": 2509, "restarts": 0, "learnt_total": 4,
            "deleted": 0, "solve_calls": 2,
        },
        {
            "sat.conflicts": 11, "sat.decisions": 144, "sat.propagations": 2879,
            "sat.restarts": 0, "sat.solve_calls": 2,
        },
    ),
    "secded-k8": (
        "8f5ffcdede442264fff100660d199513ae551164622ad158eacd28b6404974ad",
        [[31, 7, 11, 25, 19, 14, 28, 26]],
        {
            "variables": 1969, "clauses": 5213, "learnt": 18, "conflicts": 22,
            "decisions": 309, "propagations": 8912, "restarts": 0, "learnt_total": 18,
            "deleted": 0, "solve_calls": 2,
        },
        {
            "sat.conflicts": 38, "sat.decisions": 398, "sat.propagations": 13619,
            "sat.restarts": 0, "sat.solve_calls": 2,
        },
    ),
}


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "one-shot"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_sat_formulation_is_bit_identical(name, incremental, monkeypatch):
    digest, candidates, incremental_stats, one_shot_counters = PINS[name]
    expected = incremental_stats if incremental else one_shot_counters
    assert _observe(name, incremental, monkeypatch) == (digest, candidates, expected)
