"""UWB radar car-occupancy detection: simulation, augmentation, detectors, evaluation.

Import each name from the module that defines it (``uwbocc.core``,
``uwbocc.pipeline``, ...); the package itself only carries the version.
"""

__version__ = "0.1.0"
