"""Gradient-expansion kinetic energy functionals on radial densities.

The package evaluates the Thomas-Fermi series through sixth order on
spherically symmetric densities, resums it pointwise with low-order
Pade approximants, and integrates the result with principal-value
handling across resummation poles.  Reference systems (harmonically
trapped electron pairs and Roothaan-Hartree-Fock atoms) are built in.
"""

__version__ = "0.1.0"
