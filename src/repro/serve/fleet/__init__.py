"""repro.serve.fleet: supervised multi-process shard pool.

The fleet scales :mod:`repro.serve` beyond one process without giving up
its guarantees: every shard warm-loads the same sealed artifacts, the
supervisor routes by consistent hash and survives shard death with
zero-loss failover, and :mod:`~repro.serve.fleet.chaos` makes every
failure mode reproducible on demand.
"""

from repro.serve.fleet.chaos import CHAOS_ENV_VAR, ChaosConfig, ChaosHook, parse_chaos
from repro.serve.fleet.protocol import (
    ConnectionClosed,
    ProtocolError,
    decode_array,
    encode_array,
    recv_message,
    send_message,
)
from repro.serve.fleet.supervisor import (
    FleetConfig,
    FleetSaturatedError,
    FleetSupervisor,
    FleetUnavailableError,
    WorkerError,
)
from repro.serve.fleet.worker import EXIT_CHAOS_KILL, EXIT_OK, worker_main

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosConfig",
    "ChaosHook",
    "ConnectionClosed",
    "EXIT_CHAOS_KILL",
    "EXIT_OK",
    "FleetConfig",
    "FleetSaturatedError",
    "FleetSupervisor",
    "FleetUnavailableError",
    "ProtocolError",
    "WorkerError",
    "decode_array",
    "encode_array",
    "parse_chaos",
    "recv_message",
    "send_message",
    "worker_main",
]
