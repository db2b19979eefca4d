"""Run configuration: one mode, one trace source, one mandatory seed."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..agents.engine import AgentConfig
from ..agents.scoring import SCORERS
from ..metaheuristics.strategies import STRATEGIES, StrategyConfig
from ..workload.events import MINUTE_US
from ..workload.synth import SynthConfig
from .scaling import ALLOWED_FACTORS

MODES = ("replay", "masb", "metaheuristic")


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 1)."""


def read_config_file(load, path: Path, what: str):
    """``load(path)``, where an unreadable or malformed file is a
    ConfigError naming it; ``load`` raises OSError or ValueError."""
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{exc} (in {what} {path})") from None


@dataclass
class RunConfig:
    mode: str
    seed: int
    output_dir: Path
    run_name: str = "run"
    trace_dir: Optional[Path] = None
    synth: Optional[SynthConfig] = None
    ticks: Optional[int] = None
    tick_length_us: int = MINUTE_US
    scale_factor: int = 1
    compaction_fraction: float = 0.0
    compaction_tick: int = 1
    rounds_per_tick: int = 6
    broker_count: int = 1
    initial_scorer: str = "sias_gain"
    realloc_scorer: str = "sras"
    #: Metaheuristic-mode strategy name and candidate budget per tick.
    strategy: str = "greedy"
    strategy_budget: int = 20_000
    usage_dump_every: int = 100
    snapshot_every: Optional[int] = None
    resume_from: Optional[Path] = None
    migration_profile: str = "apache"
    #: Optional JSON file with extra migration profiles (name -> cmdt/af/mf).
    profile_file: Optional[Path] = None
    gcd_time_shift: bool = True
    message_trace: bool = False
    audit: bool = False

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        sources = sum(1 for s in (self.trace_dir, self.synth) if s is not None)
        if sources != 1:
            raise ConfigError("exactly one trace source (trace_dir or synth) is required")
        if self.ticks is not None and self.ticks < 0:
            raise ConfigError("ticks must be >= 0")
        if not (0.0 <= self.compaction_fraction < 1.0):
            raise ConfigError("compaction fraction must be in [0, 1)")
        if self.scale_factor not in ALLOWED_FACTORS:
            raise ConfigError(f"scale factor must be one of {ALLOWED_FACTORS}, got {self.scale_factor}")
        if self.tick_length_us <= 0 or self.rounds_per_tick <= 0:
            raise ConfigError("tick length and rounds per tick must be positive")
        if self.broker_count < 1:
            raise ConfigError("broker count must be >= 1")
        for scorer in (self.initial_scorer, self.realloc_scorer):
            if scorer not in SCORERS:
                raise ConfigError(f"unknown scorer {scorer!r}; known: {', '.join(SCORERS)}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; known: {', '.join(STRATEGIES)}")
        if self.synth is not None:
            try:
                self.synth.validate()
            except ValueError as exc:
                raise ConfigError(f"synthetic config invalid: {exc}") from exc

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            tick_length_us=self.tick_length_us,
            rounds_per_tick=self.rounds_per_tick,
            broker_count=self.broker_count,
            initial_scorer=self.initial_scorer,
            realloc_scorer=self.realloc_scorer,
        )

    def strategy_config(self, seed: int) -> StrategyConfig:
        return StrategyConfig(seed=seed, max_candidates=self.strategy_budget)
