"""repro.bench — a unified benchmark registry with baseline-gated comparison.

Every hot path (tensor ops, fused inference, sweep dispatch, serving
throughput) is a declarative :class:`~repro.bench.spec.BenchSpec` run
by one harness with warmup/repeat/median timing and machine
calibration, emitting versioned ``repro-bench/v1`` artifacts that a
statistical comparator gates against committed baselines
(``benchmarks/baselines/``).  See ``python -m repro.bench --help``.
"""
