"""Fast-and-frugal tree classifiers with an effort-aware evaluation rig.

Import from the submodules: ``frugal.dataset``, ``frugal.fft``,
``frugal.metrics``, ``frugal.baselines``, ``frugal.operational``,
``frugal.rig``, ``frugal.synth`` and ``frugal.cli``.
"""

__version__ = "0.1.0"
