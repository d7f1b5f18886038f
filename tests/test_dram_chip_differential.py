"""Differential tests: the packed chip against the uint8 chip it replaced.

``tests/chip_oracle.py`` keeps the chip that stored one ``uint8`` per
codeword bit.  Hypothesis builds both chips from the same arguments and
drives them through one random sequence of writes, refresh pauses, reads,
batched ``retention_rounds`` (a small pattern table, sometimes with every
row twice, and a random assignment of its rows) and ground-truth
inspections.  Every answer
must be equal (or both calls must raise the same exception type), and
both chips' generators must end in the same state, so transient-fault
draws stay in step.  Index lists sometimes hold an index out of range or
one that is not an integer, which both chips refuse.

The cases span the codes of vendors A/B/C, true- and anti-cell rows,
small geometries, the SEC, SEC-DED and parity-detect families (the last
decodes through the one-row syndrome path), dataword lengths whose parity
bits straddle two lanes (k = 60 and 122), and transient-fault rates of 0,
2e-3 and 0.05.

The chip has one codec, the engine's packed lane codec; the oracle encodes
and decodes through the engine's ``"reference"`` kernels instead, and
``test_the_oracle_runs_no_lane_codec`` checks that it never reaches the
codec it is the oracle of.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chip_oracle import SimulatedDramChip as OracleChip
from repro.dram import (
    VENDOR_A,
    VENDOR_B,
    VENDOR_C,
    CellType,
    CellTypeLayout,
    ChipGeometry,
    DataRetentionModel,
    RetentionCalibration,
    SimulatedDramChip,
    TransientFaultModel,
)
from repro.ecc.family import get_family

VENDORS = {"A": VENDOR_A, "B": VENDOR_B, "C": VENDOR_C}
DATA_BITS = (4, 8, 16, 57, 60, 64, 120, 122, 128)
FAMILIES = ("sec-hamming", "secded-extended-hamming", "parity-detect")
#: Windows of 2-60 s make a few percent of cells fail; 600 s fails most.
WINDOWS_S = (0.0, 2.0, 10.0, 30.0, 60.0, 600.0)
TEMPERATURES_C = (80.0, 85.0)
#: Row blocks of alternating true- and anti-cells, true-cells first.
CELL_BLOCKS = ((1,), (1, 1), (2, 3), (8, 8, 12))
FAST_RETENTION = DataRetentionModel(RetentionCalibration(1.0, 0.02, 60.0, 0.5))


@functools.lru_cache(maxsize=None)
def _code(vendor: str, data_bits: int, family: str):
    if family == "parity-detect":
        return get_family(family).construct(data_bits)
    return VENDORS[vendor].ecc_function(data_bits, code_family=family)


def _build(chip_class, case):
    vendor, data_bits, family, blocks, rows, words_per_row, probability, seed = case
    return chip_class(
        code=_code(vendor, data_bits, family),
        geometry=ChipGeometry(rows, words_per_row),
        cell_layout=CellTypeLayout.alternating(list(blocks), first=CellType.TRUE_CELL),
        retention_model=FAST_RETENTION,
        transient_faults=TransientFaultModel(probability),
        seed=seed,
    )


chip_cases = st.tuples(
    st.sampled_from(sorted(VENDORS)),
    st.sampled_from(DATA_BITS),
    st.sampled_from(FAMILIES),
    st.sampled_from(CELL_BLOCKS),
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from((0.0, 2e-3, 0.05)),
    st.integers(0, 2**16),
)


def _comparable(value):
    if isinstance(value, tuple):
        return tuple(_comparable(item) for item in value)
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    return value


def _outcome(call, chip):
    try:
        return _comparable(call(chip))
    except Exception as error:  # the other chip must raise the same type
        return ("raised", type(error))


def _rows(data, count, length):
    """``count`` datawords: all zeros, all ones, sparse or dense random bits."""
    density = data.draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return (rng.random((count, length)) < density).astype(np.uint8)


def _indices(data, num_words, unique=False):
    """Word indices, with duplicates unless ``unique``.

    One list in ten ends out of range, and one in ten with an index that is
    not an integer (kept a list: an int64 array would cast it).
    """
    indices = data.draw(
        st.lists(st.integers(0, num_words - 1), max_size=2 * num_words, unique=unique)
    )
    tail = data.draw(st.integers(0, 9))
    if tail == 0:
        indices.append(data.draw(st.sampled_from((-1, num_words))))
    elif tail == 1:
        indices.append(data.draw(st.sampled_from((0.0, 1.5, True, "0"))))
        return indices
    return np.asarray(indices, dtype=np.int64) if data.draw(st.booleans()) else indices


def _draw_call(data, chip):
    """One random chip call, as a function of the chip it is applied to."""
    num_words, data_bits = chip.num_words, chip.num_data_bits
    word = data.draw(st.integers(0, num_words - 1))
    name = data.draw(st.sampled_from((
        "write_datawords", "write_dataword", "fill", "write_bytes",
        "pause_refresh", "pause_refresh", "read_datawords", "read_dataword",
        "read_all_datawords", "read_bytes", "inspect",
        "retention_rounds", "retention_rounds",
    )))
    if name == "write_datawords":
        indices = _indices(data, num_words)
        rows = _rows(data, len(indices), data_bits)
        return name, lambda c: c.write_datawords(indices, rows)
    if name in ("write_dataword", "fill"):
        bits = _rows(data, 1, data_bits)[0]
        if data.draw(st.booleans()):
            bits = bits.tolist()
        if name == "fill":
            return name, lambda c: c.fill(bits)
        return name, lambda c: c.write_dataword(word, bits)
    if name in ("write_bytes", "read_bytes"):
        word_bytes = max(data_bits // 8, 1)
        address = data.draw(st.integers(0, num_words * word_bytes))
        length = data.draw(st.integers(0, 2 * word_bytes))
        if name == "read_bytes":
            return name, lambda c: c.read_bytes(address, length)
        payload = bytes(data.draw(st.lists(st.integers(0, 255), min_size=length, max_size=length)))
        return name, lambda c: c.write_bytes(address, payload)
    if name == "pause_refresh":
        window = data.draw(st.sampled_from(WINDOWS_S))
        temperature = data.draw(st.sampled_from(TEMPERATURES_C))
        return name, lambda c: c.pause_refresh(window, temperature)
    if name == "retention_rounds":
        # Three lists in four hold no duplicate, which the call refuses.
        indices = _indices(data, num_words, unique=data.draw(st.integers(0, 3)) > 0)
        rounds = data.draw(st.integers(0, 5))
        # A few rows, so rounds and words share them; half the tables
        # repeat every row.
        table = _rows(data, data.draw(st.integers(1, 4)), data_bits)
        if data.draw(st.booleans()):
            table = np.vstack([table, table])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        assignment = rng.integers(0, len(table), (rounds, len(indices)))
        # One call in twenty names a row outside the table, one has a float
        # or bool assignment, one a table holding a 2 and one a table too
        # narrow.
        flaw = data.draw(st.integers(0, 19))
        if flaw == 0 and assignment.size:
            assignment.flat[-1] = data.draw(st.sampled_from((-1, len(table))))
        elif flaw == 1:
            assignment = assignment.astype(data.draw(st.sampled_from((float, bool))))
        elif flaw == 2:
            table[-1, -1] = 2
        elif flaw == 3:
            table = table[:, 1:]
        window = data.draw(st.sampled_from(WINDOWS_S))
        temperature = data.draw(st.sampled_from(TEMPERATURES_C))
        return name, lambda c: c.retention_rounds(
            indices, table, assignment, window, temperature
        )
    if name == "read_datawords":
        indices = _indices(data, num_words)
        return name, lambda c: c.read_datawords(indices)
    if name == "read_dataword":
        return name, lambda c: c.read_dataword(word)
    if name == "read_all_datawords":
        return name, lambda c: c.read_all_datawords()
    bit = data.draw(st.integers(0, chip.code.codeword_length - 1))
    return name, lambda c: (
        c.inspect_stored_codeword(word),
        c.inspect_current_codeword(word),
        c.inspect_pre_correction_errors(word),
        c.inspect_retention_time(word, bit),
        c.cell_type_of_word(word),
    )


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=chip_cases, data=st.data())
def test_packed_chip_answers_every_call_like_the_uint8_chip(case, data):
    packed, oracle = _build(SimulatedDramChip, case), _build(OracleChip, case)
    for step in range(data.draw(st.integers(1, 30))):
        name, call = _draw_call(data, packed)
        assert _outcome(call, packed) == _outcome(call, oracle), (step, name)
    assert _outcome(lambda c: c.read_all_datawords(), packed) == _outcome(
        lambda c: c.read_all_datawords(), oracle
    )
    assert packed._rng.bit_generator.state == oracle._rng.bit_generator.state


@pytest.mark.parametrize("family", FAMILIES)
def test_the_oracle_runs_no_lane_codec(family, monkeypatch):
    # An oracle that encoded or decoded through the codec it checks would
    # agree with any fault in it.  With the lane codec and its syndrome fold
    # raising, the oracle still answers as the packed chip did before.
    from repro.einsim import engine

    case = ("C", 16, family, (1, 1), 4, 4, 2e-3, 7)
    packed, oracle = _build(SimulatedDramChip, case), _build(OracleChip, case)
    rng = np.random.default_rng(7)
    words = (rng.random((packed.num_words, 16)) < 0.5).astype(np.uint8)
    table = (rng.random((3, 16)) < 0.5).astype(np.uint8)
    assignment = rng.integers(0, 3, (4, 10))
    calls = (
        lambda c: c.fill(np.ones(16, dtype=np.uint8)),
        lambda c: c.write_datawords(range(c.num_words), words),
        lambda c: c.pause_refresh(30.0),
        lambda c: c.read_datawords([0, 3, 3, 9]),
        lambda c: c.retention_rounds(range(10), table, assignment, 45.0, 85.0),
        lambda c: c.read_all_datawords(),
    )
    expected = [_comparable(call(packed)) for call in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the lane codec it checks")

    for name in ("encode_lanes", "decode_lanes", "_lane_syndromes"):
        monkeypatch.setattr(engine, name, refuse)
    assert [_comparable(call(oracle)) for call in calls] == expected
    assert oracle._rng.bit_generator.state == packed._rng.bit_generator.state


@pytest.mark.parametrize("family", FAMILIES[:2])
@pytest.mark.parametrize("data_bits", [58, 60, 63, 122, 127])
def test_parity_straddling_two_lanes_is_stored_exactly(data_bits, family):
    code = VENDOR_A.ecc_function(data_bits, code_family=family)
    assert data_bits % 64 + code.num_parity_bits > 64
    chip = SimulatedDramChip(code=code, geometry=ChipGeometry(4, 4), seed=1)
    rng = np.random.default_rng(data_bits)
    data = (rng.random((chip.num_words, data_bits)) < 0.5).astype(np.uint8)
    chip.write_datawords(range(chip.num_words), data)
    for word in range(chip.num_words):
        assert np.array_equal(chip.inspect_stored_codeword(word), code.encode(data[word]))
    assert np.array_equal(chip.read_all_datawords(), data)


def test_one_failure_mask_per_window_of_a_campaign():
    from repro.core import BeerExperiment, ExperimentConfig

    chip = VENDOR_C.make_chip(
        num_data_bits=16, geometry=ChipGeometry(64, 8), seed=3,
        retention_model=FAST_RETENTION,
    )
    config = ExperimentConfig(
        refresh_windows_s=(30.0, 45.0, 60.0), rounds_per_window=2,
        discovery_pause_s=90.0,
    )
    BeerExperiment(chip, config).run(solve=False)
    masks = chip._failing_masks
    assert sorted(masks) == [(30.0, 80.0), (45.0, 80.0), (60.0, 80.0), (90.0, 80.0)]
    for mask in masks.values():
        assert mask.nbytes == chip.num_words * math.ceil(21 / 64) * 8 == 4096
