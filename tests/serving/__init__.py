"""Serving-layer tests: concurrency, cache properties, overload, cancellation."""
