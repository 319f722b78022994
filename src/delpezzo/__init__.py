"""Exact verification toolkit for characteristic-2 quadric quotients by
algebraic foliations and the integer feasibility theory of del Pezzo
surfaces with irregularity.

The package binds no names of its own: import from its modules
(``algebra``, ``quotient``, ``surfaces``, ``numerics``, ``reports``,
``cli``), so that ``import delpezzo`` loads none of them."""

__version__ = "0.1.0"
