"""Datasets and loaders.

Every dataset in the paper (ImageNet source, CIFAR-10/100, the VTAB
suite, PASCAL VOC segmentation, corruption and OoD test sets) is
replaced by a procedurally generated equivalent:

* :mod:`repro.data.synthetic` defines a family of class-conditional
  image generators that share low-level statistics (oriented textures,
  blobs, colour palettes) so that features learned on the *source*
  generator transfer to *downstream* generators derived from it.
* :mod:`repro.data.tasks` instantiates the source task and the named
  downstream tasks, each with a controlled **domain shift** relative to
  the source — the axis that Fig. 9 / Tab. II of the paper sweep via
  FID.
* :mod:`repro.data.segmentation`, :mod:`repro.data.corruptions`, and
  :mod:`repro.data.ood` provide the dense-prediction task, common
  corruptions, and out-of-distribution inputs used by the remaining
  experiments.
"""
