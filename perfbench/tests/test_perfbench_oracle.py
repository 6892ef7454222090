"""Self-test of the benchmark's output oracle.

A response that differs from its reference by one flipped bit must be
counted as failed by the same closed loop the serving workloads use.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import itertools
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

from common import SRC, Outcome  # noqa: E402

if SRC not in sys.path:
    sys.path.insert(0, SRC)

from oracle import ResponseOracle  # noqa: E402
from serving import closed_loop  # noqa: E402

#: Lowest mantissa bit, and the lowest exponent bit, of a float32.
MANTISSA_LSB = 1
EXPONENT_LSB = 1 << 23


def _run(exact: bool, flip: int) -> Outcome:
    rng = np.random.default_rng(0)
    references = [rng.standard_normal((8, 10)).astype(np.float32) for _ in range(4)]
    # Each request carries the index of the reference it should get back.
    requests = [np.array([index]) for index in range(len(references))]

    def make_sender():
        calls = itertools.count()

        def send(request: np.ndarray) -> np.ndarray:
            logits = references[int(request[0])].copy()
            if next(calls) == 2:
                logits.view(np.uint32)[3, 7] ^= flip
            return logits

        return send

    outcome = Outcome()
    closed_loop(make_sender, requests, ResponseOracle(references, exact), 1, 0.05, outcome)
    assert outcome.attempted > 3
    return outcome


def test_one_flipped_logit_bit_is_counted_as_failed():
    outcome = _run(exact=True, flip=MANTISSA_LSB)
    assert outcome.failed == 1
    assert "1 logits differ" in outcome.problems[0]


@pytest.mark.parametrize("flip, failed", [(MANTISSA_LSB, 0), (EXPONENT_LSB, 1)])
def test_tolerance_mode_passes_rounding_but_not_a_wrong_value(flip, failed):
    assert _run(exact=False, flip=flip).failed == failed


def test_wrong_dtype_or_shape_fails():
    reference = np.zeros((2, 10), dtype=np.float32)
    oracle = ResponseOracle([reference], exact=True)
    assert oracle.check(0, reference.astype(np.float64)) is not None
    assert oracle.check(0, reference[:1]) is not None
    assert oracle.check(0, reference.copy()) is None
