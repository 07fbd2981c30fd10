"""Semi-quantitative group testing: codes, verifiers, decoders, capacity."""

__version__ = "0.1.0"
