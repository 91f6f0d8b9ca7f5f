"""Meta-learning Hamiltonian neural networks from phase-space observations.

The names the command line and its settings table (`config.SETTINGS`)
validate against live here, free of numpy, so that parsing arguments loads
no kernel module.
"""

__version__ = "0.1.0"

SYSTEMS = ("spring_mass", "pendulum", "kepler")

DOF = {"spring_mass": 1, "pendulum": 1, "kepler": 2}

# kind: (head, update set, training).  The head is a scalar Hamiltonian
# ("hnn") or the field itself ("naive"); the update set is the layers that
# adaptation steps (`network.UPDATE_SETS`); training is "meta", "pretrain"
# (see `metalearn.train_learner`) or None.
LEARNERS = {
    "hnn_scratch": ("hnn", "all", None),
    "hnn_pretrained": ("hnn", "all", "pretrain"),
    "naive_maml": ("naive", "all", "meta"),
    "naive_anil": ("naive", "last", "meta"),
    "hamaml": ("hnn", "all", "meta"),
    "hanil": ("hnn", "last", "meta"),
    "hanil_inv": ("hnn", "all_but_first", "meta"),
}

LEARNER_KINDS = tuple(LEARNERS)

__all__ = ["__version__", "SYSTEMS", "DOF", "LEARNERS", "LEARNER_KINDS"]
