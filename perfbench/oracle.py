"""Output checks: every response and every ticket the benchmark receives.

Serving: the reference for a request is
``predict_logits(load_artifact(path).build_model(), rows, fused=False)``
computed in the benchmark process before load starts.  Workloads whose
sealed model runs dense kernels require byte equality; the unstructured
ticket may run three layers through CSR kernels in ``auto`` mode, whose
summation order differs from BLAS (measured up to 4.8e-7 apart), so it
gets a fixed tolerance instead.

Pipeline: the final training loss is finite, the drawn ticket has the
requested sparsity, every weight the ticket pruned is still exactly
zero after finetuning, and the benchmark's own ``evaluate_accuracy``
call agrees with the score the transfer reported.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

#: Absolute + relative tolerance for responses that may have gone
#: through a CSR kernel; 200x the largest CSR-vs-dense gap measured.
TOLERANCE = 1e-4


class ResponseOracle:
    """Reference logits per request index and the rule they are held to."""

    def __init__(self, references: Sequence[np.ndarray], exact: bool) -> None:
        self.references = list(references)
        self.exact = exact

    def check(self, index: int, logits: np.ndarray) -> Optional[str]:
        """``None`` when ``logits`` answers request ``index`` correctly, else why not."""
        reference = self.references[index]
        if not isinstance(logits, np.ndarray):
            return f"request {index}: response is {type(logits).__name__}, not an array"
        if logits.dtype != reference.dtype or logits.shape != reference.shape:
            return (
                f"request {index}: got {logits.dtype}{list(logits.shape)}, "
                f"expected {reference.dtype}{list(reference.shape)}"
            )
        if self.exact:
            if logits.tobytes() != reference.tobytes():
                differing = int(np.count_nonzero(logits != reference))
                return f"request {index}: {differing} logits differ from the reference bytes"
            return None
        if not np.all(np.isfinite(logits)):
            return f"request {index}: non-finite logits"
        gap = np.abs(logits.astype(np.float64) - reference.astype(np.float64))
        limit = TOLERANCE * (1.0 + np.abs(reference.astype(np.float64)))
        if np.any(gap > limit):
            return f"request {index}: max gap {float(gap.max()):.3g} beyond tolerance {TOLERANCE}"
        return None


def check_ticket(
    ticket,
    requested_sparsity: float,
    transfer,
    accuracy: float,
) -> List[str]:
    """Problems with one pipeline run's ticket and finetuned model."""
    problems: List[str] = []
    loss = transfer.extra.get("final_train_loss")
    if loss is None or not math.isfinite(loss):
        problems.append(f"final training loss is {loss!r}")
    if abs(ticket.sparsity - requested_sparsity) > 1e-3:
        problems.append(f"ticket sparsity {ticket.sparsity:.5f}, requested {requested_sparsity}")
    state = transfer.model.state_dict()
    for name, keep in ticket.mask.add_prefix("backbone.").as_dict().items():
        weight = state.get(name)
        if weight is None:
            problems.append(f"finetuned model has no parameter {name!r}")
            continue
        regrown = int(np.count_nonzero(weight[keep == 0]))
        if regrown:
            problems.append(f"{regrown} pruned weights of {name} are non-zero after finetuning")
    if accuracy != transfer.score:
        problems.append(f"evaluate_accuracy gave {accuracy}, the transfer reported {transfer.score}")
    return problems
