"""Miscorrection profiles.

A *miscorrection profile* (paper Section 5.1.3, Table 2) records, for every
test pattern, the DISCHARGED data-bit positions at which the on-die ECC can
be observed to "correct" a bit that never had an error — i.e. the positions
where miscorrections are possible.  The profile is all BEER needs to recover
the ECC function.

Two representations are provided:

* :class:`MiscorrectionCounts` — raw experimental observation counts per
  pattern and bit, from which a clean profile is obtained with the threshold
  filter of Section 5.2 / Figure 4.  Counts also track per-pattern
  *detected-uncorrectable* (DUE) word observations — zero for full-length
  SEC codes, but the primary signal for SEC-DED and detect-only families;
* :class:`MiscorrectionProfile` — the boolean profile itself.

For simulation and validation, :func:`miscorrections_possible` computes the
exact profile of a *known* code: with CHARGED codeword positions ``S``, a
miscorrection can appear at DISCHARGED data bit ``j`` iff column ``H_j`` lies
in the GF(2) span of ``{H_i : i in S}`` (all subsets of CHARGED cells can
fail, and subset sums over GF(2) are exactly the span).  The check runs on
integer-encoded columns through :func:`miscorrection_test`, which the BEER
solver shares.

:func:`monte_carlo_observation_counts` and
:func:`monte_carlo_miscorrection_profile` measure counts and profiles the way
the paper's correctness evaluation does (Section 6.1): each pattern is one
segment of :func:`repro.einsim.simulator.simulate_segments`, the Monte-Carlo
runner every simulation in the library shares, with data-retention errors
drawn in O(errors).  This module draws no random numbers itself.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ProfileError
from repro.ecc.code import SystematicLinearCode
from repro.dram.cell import CellType, charge_state_for_bit, ChargeState
from repro.einsim.engine import resolve_backend
from repro.einsim.injectors import DataRetentionInjector
from repro.einsim.simulator import simulate_segments
from repro.predicates import is_integer
from repro.core.patterns import ChargedPattern, charged_bit_table


def charged_codeword_positions(
    code: SystematicLinearCode,
    pattern: ChargedPattern,
    cell_type: CellType = CellType.TRUE_CELL,
) -> FrozenSet[int]:
    """Return every codeword position stored in the CHARGED state for ``pattern``.

    The data positions are given directly by the pattern; the parity positions
    depend on the encoded parity values, which the ECC function determines.
    """
    if pattern.num_data_bits != code.num_data_bits:
        raise ProfileError(
            f"pattern is for {pattern.num_data_bits}-bit datawords, "
            f"code expects {code.num_data_bits}"
        )
    codeword = code.encode(pattern.dataword(cell_type))
    charged = set(pattern.charged_bits)
    for position in code.parity_bit_positions:
        state = charge_state_for_bit(cell_type, codeword[position])
        if state is ChargeState.CHARGED:
            charged.add(position)
    return frozenset(charged)


def miscorrection_test(columns: Sequence[int], charged_rows: int) -> Callable[[int], bool]:
    """Return ``target -> bool``: can these CHARGED cells miscorrect ``target``?

    ``columns`` are the integer-encoded ``H`` columns of the CHARGED data
    bits and ``charged_rows`` is the set ``Q`` of CHARGED parity rows.  The
    unit vectors ``e_q`` of those rows span everything inside ``Q``, so a
    target column lies in the span of all CHARGED positions iff
    ``target & ~Q`` lies in ``span{c & ~Q : c ∈ columns}``.  The elimination
    runs once here, over the data columns alone, and every target reuses it.
    """
    outside = ~charged_rows
    basis: List[int] = []
    for column in columns:
        value = column & outside
        for pivot in basis:
            value = min(value, value ^ pivot)
        if value:
            basis.append(value)
            basis.sort(reverse=True)

    def test(target: int) -> bool:
        value = target & outside
        for pivot in basis:
            value = min(value, value ^ pivot)
        return value == 0

    return test


def miscorrections_possible(
    code: SystematicLinearCode,
    pattern: ChargedPattern,
    cell_type: CellType = CellType.TRUE_CELL,
) -> FrozenSet[int]:
    """Return the DISCHARGED data bits where ``code`` can miscorrect under ``pattern``.

    A parity row holds the XOR ``p`` of the columns of the data bits storing
    1.  True-cells store 1 in the CHARGED bits, so the CHARGED rows are
    ``p = XOR(C)``; anti-cells store 1 in the DISCHARGED bits and CHARGE the
    rows holding 0, so they are ``~(X ^ p)`` over the ``r`` rows, where ``X``
    is the XOR of every data column.
    """
    if pattern.num_data_bits != code.num_data_bits:
        raise ProfileError(
            f"pattern is for {pattern.num_data_bits}-bit datawords, "
            f"code expects {code.num_data_bits}"
        )
    columns = code.parity_column_ints
    charged = [columns[bit] for bit in sorted(pattern.charged_bits)]
    charged_rows = 0
    for column in charged:
        charged_rows ^= column
    if cell_type is CellType.ANTI_CELL:
        every_column = 0
        for column in columns:
            every_column ^= column
        charged_rows = ~(every_column ^ charged_rows) & ((1 << code.num_parity_bits) - 1)
    test = miscorrection_test(charged, charged_rows)
    return frozenset(target for target in pattern.discharged_bits if test(columns[target]))


def expected_miscorrection_profile(
    code: SystematicLinearCode,
    patterns: Iterable[ChargedPattern],
    cell_type: CellType = CellType.TRUE_CELL,
) -> "MiscorrectionProfile":
    """Compute the exact miscorrection profile of a known code (ground truth)."""
    mapping = {
        pattern: miscorrections_possible(code, pattern, cell_type)
        for pattern in patterns
    }
    return MiscorrectionProfile(code.num_data_bits, mapping)


def monte_carlo_miscorrection_profile(
    code: SystematicLinearCode,
    patterns: Iterable[ChargedPattern],
    bit_error_rate: float,
    words_per_pattern: int,
    cell_type: CellType = CellType.TRUE_CELL,
    rng: Optional[np.random.Generator] = None,
    backend: str = "packed",
) -> "MiscorrectionProfile":
    """Measure a miscorrection profile by Monte-Carlo simulation (EINSim-style).

    This mirrors the paper's correctness evaluation (Section 6.1): for every
    test pattern, many ECC words are simulated with data-retention errors at
    ``bit_error_rate`` (CHARGED cells only), and every post-correction error
    observed at a DISCHARGED data bit is recorded as a miscorrection.  With
    enough words per pattern the measured profile converges to the exact
    profile of :func:`expected_miscorrection_profile`.

    Thin wrapper over :func:`monte_carlo_observation_counts`: the
    zero-threshold filter of :meth:`MiscorrectionCounts.to_profile` records
    every DISCHARGED data bit with at least one post-correction error.
    """
    counts = monte_carlo_observation_counts(
        code,
        patterns,
        bit_error_rate,
        words_per_pattern,
        cell_type=cell_type,
        rng=rng,
        backend=backend,
    )
    return counts.to_profile()


def monte_carlo_observation_counts(
    code: SystematicLinearCode,
    patterns: Iterable[ChargedPattern],
    bit_error_rate: float,
    words_per_pattern: int,
    cell_type: CellType = CellType.TRUE_CELL,
    rng: Optional[np.random.Generator] = None,
    backend: str = "packed",
) -> "MiscorrectionCounts":
    """Measure raw observation counts — miscorrections *and* DUEs — per pattern.

    Detection-aware sibling of :func:`monte_carlo_miscorrection_profile`:
    every post-correction data-bit error is counted per bit, and every word
    the decoder flags as detected-uncorrectable is tallied, giving the full
    miscorrection+DUE picture a detection-capable family (SEC-DED, parity,
    duplication) produces.  ``counts.to_profile()`` recovers the
    threshold-filtered miscorrection profile BEER consumes.

    Each pattern is one segment of
    :func:`~repro.einsim.simulator.simulate_segments` under a
    :class:`~repro.einsim.injectors.DataRetentionInjector`, every segment
    drawing from ``rng`` in pattern order: the tallies equal those of one
    ``EinsimSimulator(code, seed=rng)`` simulating each pattern in turn.
    """
    backend = resolve_backend(backend)
    if words_per_pattern < 1:
        raise ProfileError("at least one word per pattern is required")
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ProfileError("bit error rate must lie in [0, 1]")
    generator = rng if rng is not None else np.random.default_rng(0)
    patterns = list(patterns)
    injector = DataRetentionInjector(bit_error_rate, cell_type)
    results = simulate_segments(
        code,
        [
            (pattern.dataword(cell_type), injector, words_per_pattern, generator)
            for pattern in patterns
        ],
        backend,
    )
    counts = MiscorrectionCounts(code.num_data_bits)
    for pattern, result in zip(patterns, results):
        counts.record_tallies(
            pattern,
            result.post_correction_error_counts,
            words_observed=result.num_words,
            due_words=result.detected_words,
        )
    return counts


class MiscorrectionProfile:
    """Mapping from test pattern to the set of miscorrection-susceptible data bits."""

    def __init__(
        self,
        num_data_bits: int,
        mapping: Optional[Mapping[ChargedPattern, Iterable[int]]] = None,
    ):
        if not is_integer(num_data_bits) or num_data_bits < 1:
            raise ProfileError(
                f"a profile needs a positive integer dataword length, got {num_data_bits!r}"
            )
        self._num_data_bits = int(num_data_bits)
        self._mapping: Dict[ChargedPattern, FrozenSet[int]] = {}
        if mapping:
            for pattern, positions in mapping.items():
                self.record(pattern, positions)

    # -- construction -------------------------------------------------------
    def record(self, pattern: ChargedPattern, positions: Iterable[int]) -> None:
        """Record (or extend) the miscorrection positions observed for a pattern.

        Every position must be a Python or numpy int naming a DISCHARGED bit;
        anything else (a float, bool or string among them) raises
        :class:`ProfileError` before anything is recorded.
        """
        self._validate_pattern(pattern)
        positions = list(positions)
        for position in positions:
            if not is_integer(position):
                raise ProfileError(f"miscorrection position {position!r} is not an integer")
        cleaned = frozenset(int(p) for p in positions)
        for position in sorted(cleaned):
            if not 0 <= position < self._num_data_bits:
                raise ProfileError(f"miscorrection position {position} out of range")
            if position in pattern.charged_bits:
                raise ProfileError(
                    f"bit {position} is CHARGED in the pattern; errors there are "
                    "ambiguous and cannot be recorded as miscorrections"
                )
        existing = self._mapping.get(pattern, frozenset())
        self._mapping[pattern] = existing | cleaned

    @classmethod
    def _of_checked_entries(
        cls, num_data_bits: int, mapping: Dict[ChargedPattern, FrozenSet[int]]
    ) -> "MiscorrectionProfile":
        """A profile of entries already checked as :meth:`record` checks them."""
        profile = cls(num_data_bits)
        profile._mapping = mapping
        return profile

    def merge(self, other: "MiscorrectionProfile") -> "MiscorrectionProfile":
        """Return the union of two profiles (same dataword length required)."""
        if other.num_data_bits != self._num_data_bits:
            raise ProfileError("cannot merge profiles with different dataword lengths")
        merged = MiscorrectionProfile(self._num_data_bits, self._mapping)
        for pattern in other.patterns:
            merged.record(pattern, other.miscorrections(pattern))
        return merged

    # -- accessors ----------------------------------------------------------
    @property
    def num_data_bits(self) -> int:
        """Dataword length the profile applies to."""
        return self._num_data_bits

    @property
    def patterns(self) -> List[ChargedPattern]:
        """Patterns with a recorded entry, in insertion order."""
        return list(self._mapping.keys())

    def miscorrections(self, pattern: ChargedPattern) -> FrozenSet[int]:
        """Return the miscorrection positions recorded for ``pattern``."""
        self._validate_pattern(pattern)
        if pattern not in self._mapping:
            raise ProfileError(f"pattern {pattern!r} has no recorded entry")
        return self._mapping[pattern]

    def __contains__(self, pattern: ChargedPattern) -> bool:
        return pattern in self._mapping

    def items(self):
        """Iterate over ``(pattern, miscorrection_positions)`` pairs."""
        return self._mapping.items()

    def restricted_to_weights(self, weights: Sequence[int]) -> "MiscorrectionProfile":
        """Return a sub-profile containing only patterns of the given weights."""
        allowed = set(weights)
        mapping = {
            pattern: positions
            for pattern, positions in self._mapping.items()
            if pattern.weight in allowed
        }
        return MiscorrectionProfile(self._num_data_bits, mapping)

    @property
    def total_miscorrections(self) -> int:
        """Total number of (pattern, position) miscorrection entries."""
        return sum(len(positions) for positions in self._mapping.values())

    # -- serialisation -----------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise to plain Python types (JSON compatible)."""
        return {
            "num_data_bits": self._num_data_bits,
            "entries": [
                {
                    "charged_bits": sorted(pattern.charged_bits),
                    "miscorrections": sorted(positions),
                }
                for pattern, positions in self._mapping.items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MiscorrectionProfile":
        """Deserialise a profile produced by :meth:`to_dict`.

        Anything but that shape raises :class:`ProfileError`: a missing
        field, entries that are not a list of objects, bit lists that are
        not lists, and a dataword length or bit that is not an integer
        (``8.9``, ``true`` and ``"3"`` are not read as 8, 1 and 3).
        """
        if not (
            isinstance(payload, dict)
            and "num_data_bits" in payload
            and isinstance(payload.get("entries"), list)
        ):
            raise ProfileError(
                "malformed profile payload: expected an object with 'num_data_bits' "
                "and a list of 'entries'"
            )
        profile = cls(payload["num_data_bits"])
        for entry in payload["entries"]:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("charged_bits"), list)
                and isinstance(entry.get("miscorrections"), list)
            ):
                raise ProfileError(
                    f"malformed profile entry {entry!r}: expected an object with "
                    "'charged_bits' and 'miscorrections' lists"
                )
            pattern = ChargedPattern(profile.num_data_bits, entry["charged_bits"])
            profile.record(pattern, entry["miscorrections"])
        return profile

    # -- protocol methods -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, MiscorrectionProfile):
            return NotImplemented
        return (
            self._num_data_bits == other._num_data_bits
            and self._mapping == other._mapping
        )

    def __repr__(self) -> str:
        return (
            f"MiscorrectionProfile(k={self._num_data_bits}, "
            f"patterns={len(self._mapping)}, entries={self.total_miscorrections})"
        )

    def _validate_pattern(self, pattern: ChargedPattern) -> None:
        if pattern.num_data_bits != self._num_data_bits:
            raise ProfileError(
                f"pattern is for {pattern.num_data_bits}-bit datawords, "
                f"profile expects {self._num_data_bits}"
            )


class MiscorrectionCounts:
    """Raw per-bit post-correction error counts gathered during experiments.

    Counts at CHARGED bits are kept (they show up in Figure 3 as the diagonal)
    but are never interpreted as miscorrections — only DISCHARGED-bit counts
    survive the conversion to a :class:`MiscorrectionProfile`.
    """

    def __init__(self, num_data_bits: int):
        if num_data_bits < 1:
            raise ProfileError("counts need at least one data bit")
        self._num_data_bits = num_data_bits
        self._counts: Dict[ChargedPattern, np.ndarray] = {}
        self._words_observed: Dict[ChargedPattern, int] = {}
        self._due_words: Dict[ChargedPattern, int] = {}

    @property
    def num_data_bits(self) -> int:
        """Dataword length the counts apply to."""
        return self._num_data_bits

    @property
    def patterns(self) -> List[ChargedPattern]:
        """Patterns with at least one recorded observation."""
        return list(self._counts.keys())

    def record_observations(
        self,
        pattern: ChargedPattern,
        error_positions: Iterable[int],
        words_observed: int,
        due_words: int = 0,
    ) -> None:
        """Record post-correction error positions seen over ``words_observed`` words.

        ``due_words`` counts how many of those words the decoder flagged as
        detected-uncorrectable (non-zero syndrome, nothing corrected) —
        recorded alongside miscorrections so detection-aware families keep
        their primary signal.  Every position is validated before anything
        is recorded, so a rejected call leaves the counts untouched.
        """
        positions = np.asarray(list(error_positions), dtype=np.int64)
        out_of_range = positions[(positions < 0) | (positions >= self._num_data_bits)]
        if out_of_range.size:
            raise ProfileError(f"error position {out_of_range[0]} out of range")
        self.record_tallies(
            pattern,
            np.bincount(positions, minlength=self._num_data_bits),
            words_observed,
            due_words,
        )

    def record_tallies(
        self,
        pattern: ChargedPattern,
        per_bit_counts: np.ndarray,
        words_observed: int,
        due_words: int = 0,
    ) -> None:
        """Record per-bit error counts already tallied over ``words_observed`` words.

        The bulk form of :meth:`record_observations`: ``per_bit_counts[b]``
        is how many of the words showed a post-correction error at data bit
        ``b``.  A pattern with zero observed words is not registered at all,
        so ``patterns`` (and hence ``to_profile``) only ever sees patterns
        with defined probabilities.
        """
        if pattern.num_data_bits != self._num_data_bits:
            raise ProfileError("pattern dataword length does not match the counts")
        tallies = np.asarray(per_bit_counts, dtype=np.int64)
        if tallies.shape != (self._num_data_bits,):
            raise ProfileError(
                f"per-bit counts must have shape ({self._num_data_bits},), "
                f"got {tallies.shape}"
            )
        _check_tallies(tallies[np.newaxis], np.array([words_observed]))
        if not 0 <= due_words <= words_observed:
            raise ProfileError(
                f"due_words={due_words} must lie in [0, words_observed="
                f"{words_observed}]"
            )
        if words_observed == 0:
            return
        self._counts[pattern] = self._counts.get(pattern, 0) + tallies
        self._words_observed[pattern] = self._words_observed.get(pattern, 0) + words_observed
        self._due_words[pattern] = self._due_words.get(pattern, 0) + int(due_words)

    @classmethod
    def from_tallies(
        cls,
        num_data_bits: int,
        patterns: Sequence[ChargedPattern],
        per_bit_counts: np.ndarray,
        words_observed: np.ndarray,
    ) -> "MiscorrectionCounts":
        """Counts of many patterns from one ``(P, k)`` tally, checked as one.

        The bulk form of :meth:`record_tallies` on fresh counts: row ``p``
        of ``per_bit_counts`` and entry ``p`` of the ``(P,)`` vector
        ``words_observed`` are recorded for ``patterns[p]``, with no DUE
        words.  The patterns must be distinct ``num_data_bits``-bit ones;
        their order is kept, and one with zero words observed is not
        registered.  Everything is checked before anything is recorded.
        """
        patterns = list(patterns)
        counts = cls(num_data_bits)
        if any(pattern.num_data_bits != num_data_bits for pattern in patterns):
            raise ProfileError("pattern dataword length does not match the counts")
        if len(set(patterns)) != len(patterns):
            raise ProfileError("patterns must be distinct")
        tallies = np.array(per_bit_counts, dtype=np.int64)
        words = np.asarray(words_observed, dtype=np.int64)
        if tallies.shape != (len(patterns), num_data_bits) or words.shape != (len(patterns),):
            raise ProfileError(
                f"expected ({len(patterns)}, {num_data_bits}) per-bit counts and "
                f"{len(patterns)} word counts, got {tallies.shape} and {words.shape}"
            )
        _check_tallies(tallies, words)
        kept = words > 0
        observed = [pattern for pattern, keep in zip(patterns, kept.tolist()) if keep]
        counts._counts = dict(zip(observed, tallies[kept]))
        counts._words_observed = dict(zip(observed, words[kept].tolist()))
        counts._due_words = dict.fromkeys(observed, 0)
        return counts

    def counts_for(self, pattern: ChargedPattern) -> np.ndarray:
        """Return the per-bit error counts recorded for ``pattern``."""
        if pattern not in self._counts:
            raise ProfileError(f"pattern {pattern!r} has no recorded observations")
        return self._counts[pattern].copy()

    def words_observed(self, pattern: ChargedPattern) -> int:
        """Return the number of word observations recorded for ``pattern``."""
        return self._words_observed.get(pattern, 0)

    def due_words_observed(self, pattern: ChargedPattern) -> int:
        """Return how many observed words were flagged detected-uncorrectable."""
        return self._due_words.get(pattern, 0)

    @property
    def total_due_words(self) -> int:
        """Total DUE word observations across every pattern."""
        return sum(self._due_words.values())

    def error_probabilities(self, pattern: ChargedPattern) -> np.ndarray:
        """Return per-bit post-correction error probabilities for ``pattern``.

        Raises :class:`ProfileError` when no words were observed — raw counts
        over zero observations are not probabilities, and silently reporting
        them as such used to poison threshold filtering downstream.
        """
        counts = self.counts_for(pattern)
        words = self._words_observed.get(pattern, 0)
        if words == 0:
            raise ProfileError(
                f"pattern {pattern!r} has zero observed words; its error "
                "probabilities are undefined"
            )
        return counts / words

    def merge(self, other: "MiscorrectionCounts") -> "MiscorrectionCounts":
        """Combine observation counts from two experiments."""
        if other.num_data_bits != self._num_data_bits:
            raise ProfileError("cannot merge counts with different dataword lengths")
        merged = MiscorrectionCounts(self._num_data_bits)
        for source in (self, other):
            for pattern in source.patterns:
                merged.record_tallies(
                    pattern,
                    source._counts[pattern],
                    source._words_observed[pattern],
                    source._due_words.get(pattern, 0),
                )
        return merged

    def to_profile(self, threshold: float = 0.0) -> MiscorrectionProfile:
        """Apply the threshold filter and return the resulting miscorrection profile.

        A DISCHARGED data bit is accepted as miscorrection-susceptible when its
        per-word error probability strictly exceeds ``threshold``; CHARGED
        bits are always excluded because their errors are ambiguous.
        """
        if threshold < 0:
            raise ProfileError("threshold must be non-negative")
        patterns = self.patterns
        if not patterns:
            return MiscorrectionProfile(self._num_data_bits)
        words = np.array([self._words_observed[pattern] for pattern in patterns])
        probabilities = np.array(list(self._counts.values())) / words[:, np.newaxis]
        accepted = (probabilities > threshold) & (
            charged_bit_table(patterns, self._num_data_bits) == 0
        )
        rows, positions = np.nonzero(accepted)
        ends = np.searchsorted(rows, np.arange(1, len(patterns) + 1)).tolist()
        positions = positions.tolist()
        return MiscorrectionProfile._of_checked_entries(
            self._num_data_bits,
            {
                pattern: frozenset(positions[start:end])
                for pattern, start, end in zip(patterns, [0] + ends, ends)
            },
        )


def _check_tallies(tallies: np.ndarray, words_observed: np.ndarray) -> None:
    """:class:`ProfileError` unless ``(P, k)`` tallies over ``(P,)`` word counts are counts.

    No count may be negative, and a pattern with zero words observed can
    have no error: errors cannot come from words that were never read.
    """
    if (words_observed < 0).any():
        raise ProfileError("words observed cannot be negative")
    if (tallies < 0).any():
        raise ProfileError("per-bit error counts cannot be negative")
    unread = tallies[words_observed == 0]
    if unread.any():
        raise ProfileError(
            f"{int(unread.sum())} error(s) supplied with zero words "
            "observed; errors cannot come from words that were never read"
        )
