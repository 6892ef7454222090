"""Utilities: reproducible seeding, checkpointing, logging, timing."""
