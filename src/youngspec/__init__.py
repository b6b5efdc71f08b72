"""Simulation and exact spectral theory of diagram-shaped random matrices.

Each name is imported from its defining module, e.g. ``youngspec.limitlaw``.
"""

__version__ = "0.1.0"
