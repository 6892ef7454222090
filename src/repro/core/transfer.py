"""Transferring a ticket to a downstream task.

Three transfer modes from the paper:

* **whole-model finetuning** — the masked backbone and a fresh
  classifier are trained jointly on the downstream task (the mask keeps
  pruned weights at zero);
* **linear evaluation** — the masked backbone is frozen and only a
  linear classifier on its pooled features is trained;
* **segmentation finetuning** — the masked backbone plus an FCN decoder
  are finetuned on the dense-prediction task, scored with mIoU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.tickets import Ticket
from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.segmentation import SegmentationTask
from repro.data.tasks import TaskSpec
from repro.metrics.segmentation import mean_iou
from repro.models.heads import ClassifierHead, SegmentationModel
from repro.nn import Linear, Module
from repro.optim import SGD
from repro.tensor import Tensor, cross_entropy, no_grad
from repro.training.evaluation import evaluate_accuracy, predict_logits
from repro.training.trainer import Trainer, TrainerConfig
from repro.utils.seeding import seeded_rng


@dataclass
class TransferResult:
    """Outcome of transferring one ticket to one downstream task."""

    ticket_name: str
    task_name: str
    mode: str
    score: float
    sparsity: float
    model: Optional[Module] = None
    extra: Dict[str, float] = field(default_factory=dict)


def finetune_classification(
    ticket: Ticket,
    task: TaskSpec,
    config: Optional[TrainerConfig] = None,
    seed: int = 0,
    keep_model: bool = False,
) -> TransferResult:
    """Whole-model finetuning of a ticket on a downstream classification task."""
    config = config if config is not None else TrainerConfig(seed=seed)
    backbone = ticket.materialise(seed=seed)
    model = ClassifierHead(backbone, num_classes=task.num_classes, seed=seed + 1)
    mask = ticket.mask.add_prefix("backbone.")
    trainer = Trainer(model, config=config, mask=mask)
    trainer.fit(task.train)
    score = evaluate_accuracy(model, task.test)
    return TransferResult(
        ticket_name=ticket.name,
        task_name=task.name,
        mode="finetune",
        score=score,
        sparsity=ticket.sparsity,
        model=model if keep_model else None,
        extra={"final_train_loss": trainer.history.last("train_loss")},
    )


def linear_evaluation(
    ticket: Ticket,
    task: TaskSpec,
    epochs: int = 30,
    learning_rate: float = 0.1,
    batch_size: int = 64,
    weight_decay: float = 1e-4,
    seed: int = 0,
    keep_model: bool = False,
) -> TransferResult:
    """Linear evaluation: freeze the masked backbone, train a linear probe.

    For efficiency the backbone features of the train and test splits
    are computed once and the probe is trained on the cached features —
    mathematically identical to finetuning only the final layer.
    """
    backbone = ticket.materialise(seed=seed)
    train_features = predict_logits(backbone, task.train.images, batch_size, fused=False)
    test_features = predict_logits(backbone, task.test.images, batch_size, fused=False)

    rng = seeded_rng(seed + 1)
    probe = Linear(backbone.out_features, task.num_classes, rng=rng)
    optimizer = SGD(probe.parameters(), lr=learning_rate, momentum=0.9, weight_decay=weight_decay)
    feature_dataset = ArrayDataset(train_features, task.train.labels)
    loader = DataLoader(feature_dataset, batch_size=batch_size, shuffle=True, rng=rng)

    for epoch in range(epochs):
        if epoch in (epochs // 2, 3 * epochs // 4):
            optimizer.set_lr(optimizer.lr * 0.1)
        for features, labels in loader:
            optimizer.zero_grad()
            loss = cross_entropy(probe(Tensor(features)), labels)
            loss.backward()
            optimizer.step()

    with no_grad():
        logits = probe(Tensor(test_features)).data
    score = float((logits.argmax(axis=1) == task.test.labels).mean())
    return TransferResult(
        ticket_name=ticket.name,
        task_name=task.name,
        mode="linear",
        score=score,
        sparsity=ticket.sparsity,
        model=probe if keep_model else None,
    )


def finetune_segmentation(
    ticket: Ticket,
    task: SegmentationTask,
    config: Optional[TrainerConfig] = None,
    seed: int = 0,
    keep_model: bool = False,
) -> TransferResult:
    """Finetune a ticket with an FCN head on the segmentation task; score is mIoU."""
    config = config if config is not None else TrainerConfig(seed=seed, learning_rate=0.02)
    backbone = ticket.materialise(seed=seed)
    model = SegmentationModel(backbone, num_classes=task.num_classes, seed=seed + 1)
    mask = ticket.mask.add_prefix("backbone.")
    trainer = Trainer(model, config=config, mask=mask)
    trainer.fit(task.train)

    logits = predict_logits(model, task.test.images, config.batch_size, fused=False)
    predictions = logits.argmax(axis=1)
    score = mean_iou(predictions, task.test.labels, task.num_classes)
    return TransferResult(
        ticket_name=ticket.name,
        task_name=task.name,
        mode="segmentation",
        score=score,
        sparsity=ticket.sparsity,
        model=model if keep_model else None,
        extra={"pixel_accuracy": float((predictions == task.test.labels).mean())},
    )
