"""Declarative sweep specifications and their deterministic expansion.

A sweep spec is a plain JSON/dict description of an experiment matrix::

    {
      "name": "retention-vs-burst",
      "num_words": 20000,
      "chunk_size": 4096,
      "seeds": [0, 1],
      "backends": ["packed"],
      "codes": [{"data_bits": 16}, {"data_bits": 32, "code_seed": 7},
                {"data_bits": 16, "code_family": "secded-extended-hamming"}],
      "datawords": ["ones"],
      "scenarios": [
        {"name": "data-retention-true", "params": {"bit_error_rate": [1e-3, 1e-2]}},
        {"name": "burst", "params": {"burst_probability": 0.05, "burst_length": 4}}
      ],
      "experiments": [
        {"vendor": "A", "data_bits": 8, "refresh_windows_s": [[30.0, 45.0, 60.0]]}
      ]
    }

Expansion rules:

* Every list-valued field of a scenario's ``params`` (and of an experiment
  entry) is a grid *axis*; scalars are fixed.  A parameter whose value is
  itself a list (e.g. ``per-bit-bernoulli`` probabilities) must be wrapped in
  an extra list to denote a single grid point.
* Axes expand in sorted key order via a cartesian product; scenarios, codes,
  datawords, seeds and backends expand in the order given.

The result is a deterministic tuple of :class:`ExperimentCell` objects whose
canonical configuration dictionaries feed the content-addressed store.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import ReproError, ScenarioError, ValidationError
from repro.gf2.bits import as_bits
from repro.ecc.code import SystematicLinearCode
from repro.ecc.family import get_family
from repro.einsim.engine import resolve_backend
from repro.einsim.injectors import SAMPLER_VERSION
from repro.core.experiment import ExperimentConfig
from repro.predicates import is_integer
from repro.scenarios.registry import build_injector, get_scenario

#: Cell kinds the runner knows how to execute.
CELL_KINDS: Tuple[str, ...] = ("einsim", "beer")

#: Named dataword patterns accepted wherever a dataword spec is expected.
DATAWORD_NAMES: Tuple[str, ...] = ("ones", "zeros", "alternating")


@dataclass(frozen=True)
class ExperimentCell:
    """One fully-specified point of a sweep's experiment matrix.

    ``config()`` is the canonical dictionary hashed into the cell's content
    address; everything that can change the simulation output must appear in
    it.
    """

    kind: str
    config_json: str  # canonical JSON of the full configuration

    def config(self) -> Dict[str, Any]:
        """The cell's canonical configuration dictionary."""
        return json.loads(self.config_json)

    def key(self) -> str:
        """Content address of this cell (SHA-256 of the canonical config)."""
        # config_json is canonical by construction, so hashing it directly
        # equals content_key(self.config()) without a parse/re-serialise.
        return hashlib.sha256(self.config_json.encode("utf-8")).hexdigest()

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "ExperimentCell":
        """Build a cell from a configuration dictionary (canonicalising it)."""
        kind = config.get("kind")
        if kind not in CELL_KINDS:
            raise ScenarioError(
                f"cell kind must be one of {CELL_KINDS}, got {kind!r}"
            )
        try:
            canonical = json.dumps(
                dict(config), sort_keys=True, separators=(",", ":"), allow_nan=False
            )
        except ValueError as error:
            # NaN/Infinity are not JSON: they would land in the content key
            # as non-standard tokens.
            raise ScenarioError(f"cell config is not valid JSON: {error}") from None
        return cls(kind=kind, config_json=canonical)


def make_einsim_cell(
    scenario: str,
    params: Mapping[str, Any],
    code: Mapping[str, Any],
    num_words: int,
    seed: int = 0,
    backend: str = "packed",
    dataword: Any = "ones",
    chunk_size: int = 65536,
) -> ExperimentCell:
    """Build a single injector-driven Monte-Carlo cell.

    The config records the injectors' :data:`SAMPLER_VERSION`: results
    drawn by another sampler live under other content keys.  The cell's
    injector is built here exactly as the runner will build it and drawn
    for zero words on a codeword of the cell's code, which reads no random
    number.  A parameter the injector rejects, or one that does not fit the
    code (a candidate position or anti-cell column past the codeword, a
    per-bit probability list of another length), therefore fails now, as a
    :class:`ScenarioError`, and not when a sweep reaches the cell.  So does
    a word count, seed or chunk size that is not an integer.
    """
    resolved = get_scenario(scenario).resolve_params(params)
    num_words = _spec_integer(num_words, "num_words")
    seed = _spec_integer(seed, "seed")
    chunk_size = _spec_integer(chunk_size, "chunk_size")
    if num_words < 1:
        raise ScenarioError("a cell must simulate at least one word")
    if chunk_size < 1:
        raise ScenarioError(f"chunk size must be at least 1, got {chunk_size}")
    _check_backend(backend)
    # The canonical config keeps the *spec* (not the matrix) so cache keys
    # stay readable and stable; resolving it validates it.
    code_spec = {key: code[key] for key in sorted(code)}
    resolved_code = resolve_code(code_spec)
    codeword = np.zeros(resolved_code.codeword_length, dtype=np.uint8)
    cell = ExperimentCell.from_config(
        {
            "kind": "einsim",
            "scenario": scenario,
            "params": _jsonify(resolved),
            "code": code_spec,
            "dataword": _normalise_dataword_spec(dataword, resolved_code.num_data_bits),
            "num_words": num_words,
            "seed": seed,
            "backend": str(backend),
            "chunk_size": chunk_size,
            "sampler": SAMPLER_VERSION,
        }
    )
    stored = cell.config()["params"]
    try:
        injector = build_injector(scenario, stored)
        injector.error_mask_packed(codeword, 0, np.random.default_rng(0))
    except (ReproError, TypeError, ValueError) as error:
        raise ScenarioError(
            f"scenario {scenario!r} rejects parameters {stored}: {error}"
        ) from error
    return cell


def make_beer_cell(
    vendor: str,
    data_bits: int,
    refresh_windows_s: Sequence[float] = (30.0, 45.0, 60.0),
    pattern_weights: Sequence[int] = (1, 2),
    rounds_per_window: int = 4,
    threshold: float = 0.0,
    seed: int = 0,
    backend: str = "packed",
    num_rows: int = 32,
    words_per_row: int = 8,
    solve: bool = False,
) -> ExperimentCell:
    """Build a full BEER-campaign cell against a simulated vendor chip.

    With ``solve=True`` the cell additionally runs the incremental SAT
    solver over the measured profile and records the candidate count plus
    the solver's ``SolverStats`` in the cell result (surfaced by
    ``scenario report``).  The flag participates in the canonical config
    only when set, so historical solve-free cells keep their
    content-addressed keys byte-for-byte.

    The windows, weights, rounds and threshold are checked as
    :class:`~repro.core.experiment.ExperimentConfig` checks them, so a
    value it would refuse (0 or 2.5 rounds, a bool, no window, a threshold
    of 1.5) raises :class:`ScenarioError` while a spec is expanded, before
    any cell runs.  So does a dataword length, seed or geometry that is not
    an integer.

    ``backend`` is checked and recorded in the config, so it is part of the
    content key, but it selects nothing: the simulated chip has one codec.
    """
    if vendor not in ("A", "B", "C"):
        raise ScenarioError(f"unknown vendor {vendor!r}; expected A, B or C")
    _check_backend(backend)
    try:
        campaign = ExperimentConfig(
            pattern_weights=tuple(pattern_weights),
            refresh_windows_s=tuple(refresh_windows_s),
            rounds_per_window=rounds_per_window,
            threshold=threshold,
        )
    except (TypeError, ValidationError) as error:
        raise ScenarioError(f"invalid BEER campaign: {error}") from None
    config = {
        "kind": "beer",
        "vendor": vendor,
        "data_bits": _spec_integer(data_bits, "data_bits"),
        "refresh_windows_s": [float(w) for w in campaign.refresh_windows_s],
        "pattern_weights": [int(w) for w in campaign.pattern_weights],
        "rounds_per_window": int(campaign.rounds_per_window),
        "threshold": float(campaign.threshold),
        "seed": _spec_integer(seed, "seed"),
        "backend": str(backend),
        "num_rows": _spec_integer(num_rows, "num_rows"),
        "words_per_row": _spec_integer(words_per_row, "words_per_row"),
    }
    if solve:
        config["solve"] = True
    return ExperimentCell.from_config(config)


def _spec_integer(value: Any, what: str) -> int:
    """``value`` as an ``int``; :class:`ScenarioError` unless it is an integer.

    A float (even ``2.0``), bool or string is refused rather than
    truncated: the cell that runs must be the cell the spec names.
    """
    if not is_integer(value):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_backend(backend: str) -> None:
    # The config keeps the name as given (an alias stays an alias), so
    # validating here changes no content key.
    try:
        resolve_backend(backend)
    except ValidationError as error:
        raise ScenarioError(str(error)) from None


@dataclass(frozen=True)
class SweepSpec:
    """A named, fully-expanded sweep: an ordered matrix of experiment cells."""

    name: str
    cells: Tuple[ExperimentCell, ...]

    @property
    def num_cells(self) -> int:
        """Number of cells in the expanded matrix."""
        return len(self.cells)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Expand a declarative sweep description into its cell matrix."""
        if "name" not in payload:
            raise ScenarioError("sweep spec needs a 'name'")
        known = {
            "name", "num_words", "chunk_size", "seeds", "backends",
            "codes", "datawords", "scenarios", "experiments",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ScenarioError(
                f"sweep spec has unknown field(s) {unknown}; valid fields are "
                f"{sorted(known)}"
            )
        scenarios = payload.get("scenarios", [])
        experiments = payload.get("experiments", [])
        if not scenarios and not experiments:
            raise ScenarioError("sweep spec declares no scenarios or experiments")

        num_words = _spec_integer(payload.get("num_words", 10_000), "num_words")
        chunk_size = _spec_integer(payload.get("chunk_size", 65536), "chunk_size")
        seeds = payload.get("seeds", [0])
        if not isinstance(seeds, list):
            raise ScenarioError(f"seeds must be a list of integers, got {seeds!r}")
        seeds = [_spec_integer(seed, "seed") for seed in seeds]
        backends = [str(b) for b in payload.get("backends", ["packed"])]
        codes = payload.get("codes", [{"data_bits": 16}])
        datawords = payload.get("datawords", ["ones"])

        cells: List[ExperimentCell] = []
        for entry in scenarios:
            if "name" not in entry:
                raise ScenarioError("each scenario entry needs a 'name'")
            for params in _expand_grid(entry.get("params", {})):
                for code, dataword, seed, backend in itertools.product(
                    codes, datawords, seeds, backends
                ):
                    cells.append(
                        make_einsim_cell(
                            scenario=entry["name"],
                            params=params,
                            code=code,
                            num_words=entry.get("num_words", num_words),
                            seed=seed,
                            backend=backend,
                            dataword=dataword,
                            chunk_size=chunk_size,
                        )
                    )
        for entry in experiments:
            for point in _expand_grid(dict(entry)):
                for seed, backend in itertools.product(seeds, backends):
                    combo = dict(point)
                    combo.setdefault("seed", seed)
                    combo.setdefault("backend", backend)
                    cells.append(make_beer_cell(**combo))

        deduped: List[ExperimentCell] = []
        seen = set()
        for cell in cells:
            if cell.config_json not in seen:
                seen.add(cell.config_json)
                deduped.append(cell)
        return cls(name=str(payload["name"]), cells=tuple(deduped))

    @classmethod
    def from_json_file(cls, path: str) -> "SweepSpec":
        """Load and expand a sweep spec from a JSON file."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Cell-config resolution helpers (shared with the runner)
# ---------------------------------------------------------------------------

def resolve_code(spec: Mapping[str, Any]) -> SystematicLinearCode:
    """Materialise the ECC code described by a cell's ``code`` spec.

    Supported forms: explicit ``parity_columns`` (+ ``parity_bits``),
    deterministic ``{"data_bits": k}`` (ascending legal columns), or sampled
    ``{"data_bits": k, "code_seed": s}`` — each optionally qualified with a
    ``code_family`` name from :mod:`repro.ecc.family` (default
    ``"sec-hamming"``).  The family participates in the cell's canonical
    configuration, so sweeps over several families produce distinct
    content-addressed store keys per family.  Every count, column and seed
    must be an integer: a float, bool or string raises
    :class:`ScenarioError`.
    """
    try:
        family = get_family(str(spec.get("code_family", "sec-hamming")))
    except ReproError as error:
        raise ScenarioError(str(error)) from error
    if "parity_columns" not in spec and "data_bits" not in spec:
        raise ScenarioError("code spec needs 'data_bits' or explicit 'parity_columns'")
    try:
        if "parity_columns" in spec:
            columns = [_spec_integer(c, "parity column") for c in spec["parity_columns"]]
            parity_bits = _spec_integer(
                spec.get("parity_bits", family.min_parity_bits(len(columns))), "parity_bits"
            )
            if "code_family" in spec:
                return family.construct(len(columns), parity_bits, columns=columns)
            return SystematicLinearCode.from_parity_columns(columns, parity_bits)
        data_bits = _spec_integer(spec["data_bits"], "data_bits")
        parity_bits = spec.get("parity_bits")
        parity_bits = None if parity_bits is None else _spec_integer(parity_bits, "parity_bits")
        if "code_seed" in spec:
            rng = np.random.default_rng(_spec_integer(spec["code_seed"], "code_seed"))
            return family.random(data_bits, parity_bits, rng=rng)
        return family.construct(data_bits, parity_bits)
    except (ReproError, TypeError, ValueError) as error:
        raise ScenarioError(f"invalid code spec: {error}") from error


def resolve_dataword(spec: Any, num_data_bits: int) -> np.ndarray:
    """Materialise a dataword spec into a ``uint8`` bit array.

    A bit list must hold ``num_data_bits`` 0s and 1s; any other length or
    value raises :class:`ScenarioError`.
    """
    if isinstance(spec, str):
        if spec == "ones":
            return np.ones(num_data_bits, dtype=np.uint8)
        if spec == "zeros":
            return np.zeros(num_data_bits, dtype=np.uint8)
        if spec == "alternating":
            return (np.arange(num_data_bits) % 2).astype(np.uint8)
        raise ScenarioError(
            f"unknown dataword name {spec!r}; expected one of {DATAWORD_NAMES} "
            "or an explicit bit list"
        )
    try:
        return as_bits(spec, num_data_bits, "dataword")
    except ReproError as error:
        raise ScenarioError(f"invalid dataword spec: {error}") from None


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _expand_grid(params: Mapping[str, Any]) -> Iterator[Dict[str, Any]]:
    """Expand list-valued fields into a deterministic cartesian product."""
    axes: List[Tuple[str, List[Any]]] = []
    fixed: Dict[str, Any] = {}
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            if not value:
                raise ScenarioError(f"grid axis {key!r} is an empty list")
            axes.append((key, value))
        else:
            fixed[key] = value
    if not axes:
        yield dict(fixed)
        return
    names = [name for name, _ in axes]
    for combination in itertools.product(*(values for _, values in axes)):
        point = dict(fixed)
        point.update(zip(names, combination))
        yield point


def _normalise_dataword_spec(spec: Any, num_data_bits: int) -> Any:
    """A cell's dataword spec as stored: a pattern name, or a list of 0/1 ints."""
    bits = resolve_dataword(spec, num_data_bits)
    return spec if isinstance(spec, str) else bits.tolist()


def _jsonify(value: Any) -> Any:
    """Coerce resolved params into JSON-stable plain types."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value
