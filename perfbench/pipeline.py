"""The ``ticket_pipeline`` workload: draw and transfer one robust ticket.

One operation is the paper's pipeline at a reduced scale, through the
library's public entry points: PGD adversarial pretraining
(``RobustTicketPipeline.pretrain``), one-shot magnitude pruning at 80%
(``draw_omp_ticket``), whole-model finetuning on a downstream task
(``finetune_classification``) and ``evaluate_accuracy``.  The disk
sweep cache is off, so every operation pretrains from scratch.  The
workload seed picks the data and the initial weights; the compute does
not depend on their values, so timings from different seeds compare.

The scale is the shipped ``smoke`` experiment scale with only its
dataset sizes divided by :data:`SHRINK`.  Its epochs, PGD steps, batch
size and class count stay, so pretraining, pruning and finetuning keep
about the shares of an operation they have in the runs users make
(both are measured in ``README.md``).
"""

from __future__ import annotations

import dataclasses
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from common import BENCH_DIR, Deadline, Outcome, median, median_time
from oracle import check_ticket
from tracing import Tracer

from repro.attacks.pgd import pgd_attack
from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.core.transfer import finetune_classification
from repro.data.dataset import ArrayDataset
from repro.data.tasks import downstream_task, source_task
from repro.experiments.config import SMOKE
from repro.models.heads import ClassifierHead
from repro.nn.fuse import fuse
from repro.tensor import default_dtype
from repro.training.evaluation import evaluate_accuracy
from repro.training.trainer import Trainer, TrainerConfig

SPARSITY = 0.8
PRIOR = "robust"
TARGET = "cifar10"
#: Cold starts per run; ``setup_s`` is their median.
SETUPS = 5
#: What a user's fresh interpreter does before its first operation:
#: import the pipeline's entry points and generate the tasks.
COLD_START = "import sys, pipeline; pipeline.make_tasks(int(sys.argv[1]))"
#: Operations every run makes at least: the second one checks that the
#: first repeats exactly.
MIN_OPS = 2
#: Every dataset of the smoke scale is divided by this, nothing else;
#: it keeps one operation a few seconds long on a 2-core host.
SHRINK = 5
SCALE = dataclasses.replace(
    SMOKE,
    name="perfbench",
    source_train_size=SMOKE.source_train_size // SHRINK,
    source_test_size=SMOKE.source_test_size // SHRINK,
    downstream_train_size=SMOKE.downstream_train_size // SHRINK,
    downstream_test_size=SMOKE.downstream_test_size // SHRINK,
)


def config(seed: int) -> PipelineConfig:
    """The pipeline the experiments build for :data:`SCALE` (``ExperimentContext.pipeline``)."""
    return PipelineConfig(
        model_name="resnet18",
        base_width=SCALE.base_width,
        source_classes=SCALE.source_classes,
        source_train_size=SCALE.source_train_size,
        source_test_size=SCALE.source_test_size,
        pretrain_epochs=SCALE.pretrain_epochs,
        attack_epsilon=SCALE.attack_epsilon,
        attack_steps=SCALE.attack_steps,
        seed=seed,
        cache_dir=None,
    )


def finetune_config(seed: int) -> TrainerConfig:
    """The finetuning the experiments run (``fig1_omp_finetune``)."""
    return TrainerConfig(epochs=SCALE.finetune_epochs, seed=seed)


def make_tasks(seed: int):
    c = config(seed)
    source = source_task(
        num_classes=c.source_classes,
        train_size=c.source_train_size,
        test_size=c.source_test_size,
        seed=c.seed + 100,
        image_size=c.image_size,
    )
    target = downstream_task(
        TARGET,
        train_size=SCALE.downstream_train_size,
        test_size=SCALE.downstream_test_size,
        seed=seed,
        image_size=c.image_size,
    )
    return source, target


def cold_start_s(seed: int) -> float:
    """Wall time of :data:`COLD_START` in a new Python process.

    Generating the data alone takes 12-18 ms, and on a shared host its
    median jumps between those two modes from run to run; the imports
    around it make a set-up about 1.2 s long, which averages them out.
    """
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, str(seed)], cwd=BENCH_DIR, check=True)
    return time.perf_counter() - begin


def run_once(source, target, seed: int, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """One pipeline operation; returns its time, results and problems.

    Without ``tracer`` the spans go to a throwaway one.
    """
    spans = tracer if tracer is not None else Tracer()
    begin = time.perf_counter()
    with spans.span("pipeline.run") as root:
        pipeline = RobustTicketPipeline(config(seed), source=source)
        with spans.span("training.pretrain", root["id"], root["trace"]):
            pretrained = pipeline.pretrain(PRIOR)
        with spans.span("pruning.omp", root["id"], root["trace"]):
            ticket = pipeline.draw_omp_ticket(PRIOR, SPARSITY)
        with spans.span("core.transfer.finetune", root["id"], root["trace"]):
            transfer = finetune_classification(
                ticket, target, config=finetune_config(seed), seed=seed, keep_model=True
            )
        with spans.span("training.eval", root["id"], root["trace"]):
            accuracy = evaluate_accuracy(transfer.model, target.test)
    return {
        "seconds": time.perf_counter() - begin,
        "accuracy": accuracy,
        "loss": transfer.extra.get("final_train_loss"),
        "problems": check_ticket(ticket, SPARSITY, transfer, accuracy),
        "pretrained": pretrained,
        "ticket": ticket,
        "transfer": transfer,
    }


def _count(outcome: Outcome, op: Dict[str, object], first: Optional[Dict[str, object]]) -> None:
    problems = list(op["problems"])
    if first is not None and (op["accuracy"], op["loss"]) != (first["accuracy"], first["loss"]):
        problems.append(
            f"accuracy/loss {op['accuracy']}/{op['loss']} did not repeat "
            f"{first['accuracy']}/{first['loss']}"
        )
    outcome.count(not problems, "; ".join(problems) or None)


def run(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    setups = [cold_start_s(seed) for _ in range(SETUPS)]
    source, target = make_tasks(seed)
    # The first operation pays one-off costs (first-touch allocations,
    # lazily built caches); it is checked but not timed.
    first = run_once(source, target, seed)
    _count(outcome, first, None)
    times: List[float] = []
    deadline = Deadline(seconds)
    begin = time.perf_counter()
    while not deadline.expired() or len(times) < MIN_OPS:
        op = run_once(source, target, seed)
        _count(outcome, op, first)
        times.append(op["seconds"])
    elapsed = time.perf_counter() - begin
    outcome.metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": median(times) * 1e3,
        "ops_per_s": len(times) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    outcome.notes = {
        "samples": len(times),
        "latency_max_ms": max(times) * 1e3,
        "pipeline_s": median(times),
        "transfer_accuracy": first["accuracy"],
        "final_train_loss": first["loss"],
        "ticket_sparsity": first["ticket"].sparsity,
        "setup_samples_s": setups,
    }
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def probe_pgd_ms(op: Dict[str, object], source, seed: int) -> float:
    """One PGD attack on a pretraining batch, as adversarial training crafts it."""
    pretrained = op["pretrained"]
    c = config(seed)
    model = ClassifierHead(pretrained.build_backbone(c.base_width, seed=seed), source.num_classes)
    model.fc.load_state_dict(pretrained.head_state)
    model.eval()
    images = source.train.images[: c.pretrain_batch_size]
    labels = source.train.labels[: c.pretrain_batch_size]
    rng = np.random.default_rng(seed)
    return median_time(lambda: pgd_attack(model, images, labels, c.attack(), rng=rng), 5) * 1e3


def probe_finetune_step_ms(op: Dict[str, object], target, seed: int) -> float:
    """One masked finetuning step: ``Trainer.fit`` over exactly one batch."""
    ticket = op["ticket"]
    model = ClassifierHead(ticket.materialise(seed=seed), target.num_classes, seed=seed + 1)
    trainer = Trainer(model, config=finetune_config(seed), mask=ticket.mask.add_prefix("backbone."))
    size = trainer.config.batch_size
    batch = ArrayDataset(target.train.images[:size], target.train.labels[:size])
    return median_time(lambda: trainer.fit(batch, epochs=1), 5) * 1e3


def run_traced(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    # Imported here so that a cold start does not import the serving stack.
    from serving import probe_forward, probe_sparse

    outcome = Outcome()
    source, target = make_tasks(seed)
    first = run_once(source, target, seed)
    _count(outcome, first, None)
    # Untraced and traced operations alternate, so drift over the run
    # falls on both sides of the tracing-overhead comparison alike.
    plain, traced = [], []
    deadline = Deadline(seconds * 0.6)
    while not deadline.expired() or not traced:
        for timings, spans in ((plain, None), (traced, tracer)):
            op = run_once(source, target, seed, spans)
            _count(outcome, op, first)
            timings.append(op["seconds"])
    untraced_ms, traced_ms = median(plain) * 1e3, median(traced) * 1e3
    metrics = {
        "training.pretrain_s": median(tracer.durations("training.pretrain")),
        "pruning.omp_ms": tracer.median_ms("pruning.omp"),
        "core.transfer.finetune_s": median(tracer.durations("core.transfer.finetune")),
        "training.eval_ms": tracer.median_ms("training.eval"),
        "core.transfer.accuracy": first["accuracy"],
        "attacks.pgd_ms": probe_pgd_ms(first, source, seed),
        "training.finetune_step_ms": probe_finetune_step_ms(first, target, seed),
        "trace.latency_p50_untraced_ms": untraced_ms,
        "trace.latency_p50_traced_ms": traced_ms,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0,
    }
    # The evaluation forward of the finetuned ticket: the whole target
    # test set, which fits in one eval batch of 64.
    model = fuse(first["transfer"].model)
    rows = target.test.images
    metrics.update(probe_forward(model, rows, default_dtype(), tracer, repeats=20))
    metrics.update(probe_sparse(model, rows, default_dtype(), repeats=10))
    outcome.metrics = metrics
    outcome.notes = {
        "traced_samples": len(traced),
        "untraced_samples": len(plain),
    }
    return outcome
