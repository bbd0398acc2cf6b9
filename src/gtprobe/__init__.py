"""Exact verification and brute-force simulation toolkit for an inverse-free
Heisenberg-limited pure-state estimation protocol."""

__version__ = "0.1.0"
