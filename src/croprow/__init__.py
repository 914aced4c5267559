"""Planning engine and benchmark harness for sampling-point navigation in row-crop fields."""

__version__ = "0.1.0"
