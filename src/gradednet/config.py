"""Run configuration: one flat, serializable document shared by all commands.

Each stage config (grading, ABC, GA) declares its own settings, with their
defaults, and checks them when it is built.  ``RunConfig`` inherits all
three, adds the run's own fields, checks those, and builds each stage config
from its fields when it is built, so a bad value fails before any output is
written.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .grading import SELECTION_MODES, GradingConfig
from .optimizers import AbcConfig, GaConfig
from .topology import DEFAULT_CAPACITY_MBPS, check_json_value, check_positive, is_finite, read_json

DEFAULT_NODE_COUNTS = (15, 16, 32, 64, 128, 256, 512, 1024)

# The JSON kind of each scalar field annotation; "int | None" also takes null.
_KINDS = {"int": int, "int | None": int, "float": float, "str": str}

# Fields that must be positive and that no stage config checks, with what
# each one is.
_POSITIVE_FIELDS = {
    "max_bandwidth_mbps": "link capacity",
    "mu": "service rate",
    "packet_size_bytes": "packet size",
}

# Keys of older run_config.json files whose fields are gone; from_dict drops
# them so those files still load.
_RETIRED_KEYS = ("refresh_period_s",)


@dataclass
class RunConfig(GaConfig, AbcConfig, GradingConfig):
    """Every knob of a run: the grading, ABC and GA settings it inherits, and
    its own.  Defaults follow the benchmark's initial parameters (200-byte
    packets, 30 Mbps links, 30 cycles, roulette GA with 0.1% mutation)."""

    n: int = 15
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    seeds_per_n: int = 5
    seed: int = 42
    link_density: float = 0.2
    packet_size_bytes: int = 200
    max_bandwidth_mbps: float = DEFAULT_CAPACITY_MBPS
    mu: float = 1.0
    bw_threshold_mbps: float = 4.5
    selection_mode: str = "best-classes"
    out_dir: str = "out"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in _KINDS and not (value is None and f.type.endswith("None")):
                check_json_value(value, _KINDS[f.type], f.name)
        if not isinstance(self.node_counts, (list, tuple)) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in self.node_counts):
            raise ValueError(f"node_counts must be a list of ints, got {self.node_counts!r}")
        self.node_counts = tuple(self.node_counts)
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.node_counts:
            raise ValueError("node_counts must not be empty")
        if any(v < 2 for v in self.node_counts):
            raise ValueError(f"node_counts entries must be >= 2, got {list(self.node_counts)}")
        if len(set(self.node_counts)) < len(self.node_counts):
            raise ValueError(f"node_counts entries must be distinct, got {list(self.node_counts)}")
        if not 0.0 < self.link_density <= 1.0:
            raise ValueError(f"link_density must be in (0, 1], got {self.link_density}")
        check_positive(self, _POSITIVE_FIELDS)
        if not is_finite(self.packet_size_bytes * 8):
            raise ValueError(f"packet_size_bytes (packet size) in bits must fit a float, "
                             f"got {self.packet_size_bytes!r}")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"selection_mode must be one of {SELECTION_MODES}")
        if self.seeds_per_n < 1:
            raise ValueError("seeds_per_n must be >= 1")
        # this method overrides the stage configs' checks; building each one runs them
        self.grading_config()
        self.abc_config()
        self.ga_config()

    def _cut(self, stage: type):
        return stage(**{f.name: getattr(self, f.name) for f in dataclasses.fields(stage)})

    def abc_config(self) -> AbcConfig:
        return self._cut(AbcConfig)

    def ga_config(self) -> GaConfig:
        return self._cut(GaConfig)

    def grading_config(self) -> GradingConfig:
        return self._cut(GradingConfig)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["node_counts"] = list(self.node_counts)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        doc = {k: v for k, v in doc.items() if k not in _RETIRED_KEYS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json(path))

    def replace(self, **overrides) -> "RunConfig":
        return dataclasses.replace(self, **overrides)
