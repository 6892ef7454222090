"""Model zoo: ResNet feature extractors and task heads.

The paper uses ResNet18 and ResNet50 pretrained on ImageNet.  The same
architectures are reproduced here (BasicBlock / Bottleneck residual
stages, batch norm, global average pooling) with a configurable base
width so the default instantiations are small enough to pretrain and
finetune on CPU within the benchmark harness.
"""
