"""Meta-learning Hamiltonian neural networks from phase-space observations."""

__version__ = "0.1.0"

__all__ = ["__version__"]
