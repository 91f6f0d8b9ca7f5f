"""Meta-learning Hamiltonian neural networks from phase-space observations.

The names the command line and its settings table (`config.SETTINGS`)
validate against live here, free of numpy, so that parsing arguments loads
no kernel module.
"""

__version__ = "0.1.0"

SYSTEMS = ("spring_mass", "pendulum", "kepler")

DOF = {"spring_mass": 1, "pendulum": 1, "kepler": 2}

LEARNER_KINDS = ("hnn_scratch", "hnn_pretrained", "naive_maml", "naive_anil",
                 "hamaml", "hanil", "hanil_inv")

__all__ = ["__version__", "SYSTEMS", "DOF", "LEARNER_KINDS"]
