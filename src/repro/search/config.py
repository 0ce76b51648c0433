"""Declarative scenario configs: one JSON dict = one experiment.

The paper's scenarios are constructed in code, one hand-written class
instantiation at a time.  This module makes *any* registered cipher ×
rounds × difference-set a one-line experiment::

    {
      "name": "toyspeck-r3-auto",
      "scenario": "toyspeck",
      "params": {"rounds": 3},
      "search": {"generations": 6, "population_size": 24, "seed": 7},
      "train": {"num_samples": 16000, "epochs": 3, "seed": 11}
    }

``scenario`` names a builder in :data:`SCENARIO_BUILDERS`; ``params``
are its constructor knobs (everything *except* the differences);
``differences`` optionally fixes the ``(t, input_words)`` masks by hand
(the paper's scenarios are all expressible this way); ``search``
instead discovers them with :func:`repro.search.evolve.evolve_differences`
(hand-given ``differences`` are then injected as seeds, so search can
only match or beat them).  ``train``/``register`` parameterise the
downstream :class:`~repro.core.distinguisher.MLDistinguisher` fit and
:class:`~repro.serve.ModelRegistry` registration.

Builders deliberately construct *scenario objects* (not raw pipelines):
a built scenario carries its difference set in its fingerprint, so the
registry manifest sees exactly what was searched or specified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.extra_scenarios import (
    Gift16Scenario,
    Gift64Scenario,
    ToyGiftScenario,
)
from repro.core.scenario import (
    DifferentialScenario,
    GimliCipherScenario,
    GimliHashScenario,
    GimliPermutationScenario,
    ToySpeckScenario,
)
from repro.errors import CipherError, SearchError
from repro.search.oracle import as_difference_words


@dataclass(frozen=True)
class ScenarioBuilder:
    """One entry of the builder registry.

    ``build(masks, **params)`` returns a scenario whose difference set
    is exactly ``masks``; ``probe`` returns a minimal 2-class mask set
    used to instantiate the *prototype* the bias oracle samples from;
    ``allowed`` (optional) returns the per-word bit mask of searchable
    positions — bits the difference may legally touch.
    """

    name: str
    build: Callable[..., DifferentialScenario]
    probe: Callable[..., np.ndarray]
    allowed: Optional[Callable[..., Optional[np.ndarray]]] = None

    def prototype(self, **params) -> DifferentialScenario:
        """A scenario instance for oracle sampling (masks are probes)."""
        return self.build(self.probe(**params), **params)

    def allowed_bits(self, **params) -> Optional[np.ndarray]:
        return self.allowed(**params) if self.allowed is not None else None


def _single_bit_masks(rows: Sequence[int], words: int, dtype) -> np.ndarray:
    masks = np.zeros((len(rows), words), dtype=dtype)
    for index, (word, bit) in enumerate(rows):
        masks[index, word] = dtype(1 << bit)
    return masks


# -- builders ---------------------------------------------------------------


def _build_gimli_hash(masks, rounds: int = 8, block_len: int = 15):
    return GimliHashScenario(rounds=rounds, block_len=block_len, masks=masks)


def _probe_gimli_hash(rounds: int = 8, block_len: int = 15):
    del rounds, block_len
    return _single_bit_masks([(1, 0), (3, 0)], 4, np.uint32)  # bytes 4 / 12


def _allowed_gimli_hash(rounds: int = 8, block_len: int = 15):
    del rounds
    allowed = np.zeros(4, dtype=np.uint32)
    for byte in range(block_len):
        word, offset = divmod(byte, 4)
        allowed[word] |= np.uint32(0xFF << (8 * offset))
    return allowed


def _build_gimli_cipher(masks, total_rounds: int = 8):
    return GimliCipherScenario(
        total_rounds=total_rounds, masks=np.asarray(masks, dtype=np.uint32)
    )


def _probe_gimli_cipher(total_rounds: int = 8):
    del total_rounds
    return _single_bit_masks([(1, 0), (3, 0)], 4, np.uint32)  # bytes 4 / 12


# No ``allowed`` for gimli-cipher: the whole 16-byte nonce is
# attacker-controlled, so every bit of all four words is searchable.


def _build_toygift(masks):
    return ToyGiftScenario(masks=np.asarray(masks, dtype=np.uint8))


def _probe_toygift():
    return np.array([[0x23], [0x01]], dtype=np.uint8)


def _build_gimli_permutation(masks, rounds: int = 8, observe_words=None):
    return GimliPermutationScenario(
        rounds=rounds, differences=masks, observe_words=observe_words
    )


def _probe_gimli_permutation(rounds: int = 8, observe_words=None):
    del rounds, observe_words
    return _single_bit_masks([(1, 0), (3, 0)], 12, np.uint32)


def _build_toyspeck(masks, rounds: int = 4):
    masks = np.asarray(masks, dtype=np.uint8)
    deltas = [(int(row[0]) << 8) | int(row[1]) for row in masks]
    return ToySpeckScenario(rounds=rounds, deltas=deltas)


def _probe_toyspeck(rounds: int = 4):
    del rounds
    return np.array([[0x00, 0x40], [0x20, 0x00]], dtype=np.uint8)


def _build_gift16(masks, rounds: int = 4):
    masks = np.asarray(masks, dtype=np.uint16)
    return Gift16Scenario(rounds=rounds, deltas=[int(row[0]) for row in masks])


def _probe_gift16(rounds: int = 4):
    del rounds
    return np.array([[0x0001], [0x0010]], dtype=np.uint16)


def _build_gift64(masks, rounds: int = 4):
    masks = np.asarray(masks, dtype=np.uint32)
    deltas = [
        int(row[0]) | (int(row[1]) << 32) for row in masks
    ]
    return Gift64Scenario(rounds=rounds, deltas=deltas)


def _probe_gift64(rounds: int = 4):
    del rounds
    return _single_bit_masks([(0, 0), (1, 0)], 2, np.uint32)


SCENARIO_BUILDERS: Dict[str, ScenarioBuilder] = {}


def register_scenario_builder(builder: ScenarioBuilder) -> None:
    """Add a builder to the declarative-config registry."""
    if builder.name in SCENARIO_BUILDERS:
        raise SearchError(f"scenario builder {builder.name!r} already registered")
    SCENARIO_BUILDERS[builder.name] = builder


def get_scenario_builder(name: str) -> ScenarioBuilder:
    try:
        return SCENARIO_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise SearchError(
            f"unknown scenario {name!r}; known: {known}"
        ) from None


for _builder in (
    ScenarioBuilder("gimli-hash", _build_gimli_hash, _probe_gimli_hash,
                    _allowed_gimli_hash),
    ScenarioBuilder("gimli-cipher", _build_gimli_cipher, _probe_gimli_cipher),
    ScenarioBuilder("gimli-permutation", _build_gimli_permutation,
                    _probe_gimli_permutation),
    ScenarioBuilder("toygift", _build_toygift, _probe_toygift),
    ScenarioBuilder("toyspeck", _build_toyspeck, _probe_toyspeck),
    ScenarioBuilder("gift16", _build_gift16, _probe_gift16),
    ScenarioBuilder("gift64", _build_gift64, _probe_gift64),
):
    register_scenario_builder(_builder)


# -- the declarative spec ---------------------------------------------------

_TOP_LEVEL_KEYS = {
    "name",
    "scenario",
    "params",
    "differences",
    "num_differences",
    "search",
    "train",
    "register",
}
_SEARCH_KEYS = {
    "population_size",
    "generations",
    "elite",
    "mutation_bits",
    "top_k",
    "n_samples",
    "seed",
}
_TRAIN_KEYS = {
    "num_samples",
    "epochs",
    "batch_size",
    "hidden",
    "seed",
    "significance",
}


def _section(raw: dict, key: str) -> dict:
    """``raw[key]`` as a dict (absent or empty means ``{}``)."""
    section = raw.get(key) or {}
    if not isinstance(section, dict):
        raise SearchError(f"{key!r} must be a dict, got {type(section).__name__}")
    return dict(section)


@dataclass
class ScenarioSpec:
    """A validated declarative scenario config."""

    name: str
    scenario: str
    params: dict = field(default_factory=dict)
    differences: Optional[np.ndarray] = None
    num_differences: int = 2
    search: Optional[dict] = None
    train: dict = field(default_factory=dict)
    register: dict = field(default_factory=dict)

    @property
    def builder(self) -> ScenarioBuilder:
        return get_scenario_builder(self.scenario)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        if not isinstance(raw, dict):
            raise SearchError(f"scenario config must be a dict, got {type(raw)}")
        unknown = set(raw) - _TOP_LEVEL_KEYS
        if unknown:
            raise SearchError(
                f"unknown scenario-config keys {sorted(unknown)}; "
                f"known: {sorted(_TOP_LEVEL_KEYS)}"
            )
        for key in ("scenario",):
            if key not in raw:
                raise SearchError(f"scenario config is missing {key!r}")
        builder = get_scenario_builder(str(raw["scenario"]))
        params = _section(raw, "params")
        differences = raw.get("differences")
        search = raw.get("search")
        if differences is None and search is None:
            raise SearchError(
                "scenario config needs 'differences', a 'search' section, "
                "or both"
            )
        if search is not None:
            if not isinstance(search, dict):
                raise SearchError("'search' must be a dict of SearchConfig knobs")
            unknown = set(search) - _SEARCH_KEYS
            if unknown:
                raise SearchError(
                    f"unknown search keys {sorted(unknown)}; "
                    f"known: {sorted(_SEARCH_KEYS)}"
                )
        train = _section(raw, "train")
        unknown = set(train) - _TRAIN_KEYS
        if unknown:
            raise SearchError(
                f"unknown train keys {sorted(unknown)}; known: {sorted(_TRAIN_KEYS)}"
            )
        register = _section(raw, "register")
        if differences is not None:
            # The probe masks carry the family's word dtype and width.
            try:
                probe = builder.probe(**params)
            except TypeError as exc:
                raise SearchError(
                    f"bad params for scenario {builder.name!r}: {exc}"
                ) from None
            differences = as_difference_words(
                differences, 8 * probe.dtype.itemsize
            )
            if differences.ndim != 2 or differences.shape[1] != probe.shape[1]:
                raise SearchError(
                    f"'differences' must be 2-D (t, {probe.shape[1]}), got "
                    f"shape {differences.shape}"
                )
        try:
            num_differences = int(raw.get("num_differences", 2))
        except (TypeError, ValueError, OverflowError):
            raise SearchError("num_differences must be an integer") from None
        if num_differences < 2:
            raise SearchError(
                f"num_differences must be >= 2, got {num_differences}"
            )
        name = str(raw.get("name") or raw["scenario"])
        return cls(
            name=name,
            scenario=str(raw["scenario"]),
            params=params,
            differences=differences,
            num_differences=num_differences,
            search=dict(search) if search is not None else None,
            train=train,
            register=register,
        )

    @classmethod
    def from_json(cls, path: str) -> "ScenarioSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            raise SearchError(f"no scenario config at {path!r}") from None
        except json.JSONDecodeError as exc:
            raise SearchError(f"invalid JSON in {path!r}: {exc}") from None
        return cls.from_dict(raw)

    def build_scenario(self, masks) -> DifferentialScenario:
        """Instantiate the scenario with an explicit difference set."""
        return self._construct(self.builder.build, masks)

    def prototype(self) -> DifferentialScenario:
        """The oracle-sampling prototype for this spec."""
        return self._construct(self.builder.prototype)

    def _construct(self, make, *args) -> DifferentialScenario:
        # ``params`` come from JSON, so a builder may fail on a bad name,
        # type or value in any of these ways before the scenario's own
        # DistinguisherError checks run.
        try:
            return make(*args, **self.params)
        except (TypeError, ValueError, OverflowError, CipherError) as exc:
            raise SearchError(
                f"bad params for scenario {self.scenario!r}: {exc}"
            ) from None
