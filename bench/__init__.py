"""The repo benchmark: six overlay workloads measured from outside.

Nothing here edits the product: every layer is observed by timing calls
into its public functions with wrappers installed from this package, by
bench-owned ``Algorithm`` subclasses, and by reading the public
telemetry registry.  See ``bench/README.md`` for the metric catalogue
and ``BENCHMARK.json`` at the repo root for the contract the driver
checks.  Importing this package has no side effects.
"""
