"""Serving quickstart: draw a robust ticket, seal it, answer predictions.

The deployment counterpart of ``examples/quickstart.py``:

1. pretrain a dense ResNet-18 on the synthetic source task with PGD
   adversarial training and draw a robust ticket by one-shot magnitude
   pruning at 80% sparsity;
2. train a linear serving head on a downstream task and **seal** ticket
   + head as a ``repro-model/v1`` artifact — one atomic ``.npz`` bundle
   holding the fused, mask-applied evaluation graph, the bit-packed
   mask, the preprocessing spec, and provenance;
3. load the artifact into an in-process :class:`ServingEngine` (dynamic
   micro-batching) and answer a few prediction requests.

Run with:  python examples/serve_quickstart.py
(takes a minute or two on a laptop CPU)

The same artifact serves over HTTP with:

    python -m repro.serve --artifact robust_ticket_model.npz
    curl -s localhost:8100/healthz
"""

import numpy as np

from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.core.transfer import linear_evaluation
from repro.data.tasks import downstream_task
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.engine import EngineConfig, ServingEngine


def main() -> None:
    config = PipelineConfig(
        model_name="resnet18",
        base_width=8,
        source_classes=12,
        source_train_size=512,
        source_test_size=128,
        pretrain_epochs=4,
        attack_epsilon=0.03,
        attack_steps=4,
        seed=0,
    )
    pipeline = RobustTicketPipeline(config)
    task = downstream_task("cifar10", train_size=256, test_size=160, seed=1)

    print("pretraining the robust dense model and drawing an 80% ticket ...")
    ticket = pipeline.draw_omp_ticket("robust", 0.8)

    print(f"training a linear serving head on task {task.name!r} ...")
    head = linear_evaluation(ticket, task, keep_model=True, seed=0)

    path = export_artifact(
        ticket,
        "robust_ticket_model.npz",
        num_classes=task.num_classes,
        head=head.model,
        provenance={"example": "serve_quickstart", "head_accuracy": head.score},
    )
    artifact = load_artifact(path)
    print(
        f"sealed {artifact.model_name} (sparsity {artifact.sparsity():.0%}, "
        f"dtype {artifact.dtype}) to {path}"
    )

    print("answering predictions through the batched serving engine ...")
    with ServingEngine(path, EngineConfig(max_batch=32, max_wait_ms=2.0)) as engine:
        logits = engine.predict(task.test.images[:16])
        accuracy = float((logits.argmax(axis=1) == task.test.labels[:16]).mean())
        print(f"served 16 requests; accuracy on them: {accuracy:.2f}")
        print(f"engine stats: {engine.stats()['batching']}")
    print()
    print("serve the same artifact over HTTP with:")
    print(f"  python -m repro.serve --artifact {path}")
    print('  curl -s -X POST localhost:8100/predict -d \'{"inputs": [...]}\'')


if __name__ == "__main__":
    main()
