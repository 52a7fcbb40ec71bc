"""Cartesian Genetic Programming with genotype reordering operators."""

__version__ = "0.1.0"
