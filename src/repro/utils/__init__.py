"""Utilities: reproducible seeding, checkpointing, logging, timing."""

from repro.utils.seeding import seeded_rng, spawn_rngs, seed_everything
from repro.utils.checkpoint import save_state_dict, load_state_dict
from repro.utils.logging import get_logger, MetricLogger

__all__ = [
    "seeded_rng",
    "spawn_rngs",
    "seed_everything",
    "save_state_dict",
    "load_state_dict",
    "get_logger",
    "MetricLogger",
]
