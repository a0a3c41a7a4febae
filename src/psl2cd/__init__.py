"""Exact character-degree computations for almost simple groups with
socle PSL(2,q), the two-prime divisibility condition on degree sets,
maximal-subgroup catalogs, and exhaustive classification sweeps."""

from .arithmetic import prime_power_decompose  # perfbench/test_perfbench.py imports it from the package root
