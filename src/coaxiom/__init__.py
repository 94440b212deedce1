"""Inference systems with coaxioms.

The engine computes the bounded fixed point of a finite inference
system: phase 1 takes the inductive interpretation of the system
extended with its co rules, phase 2 keeps the greatest subset of that
bound consistent with the regular rules.  On top of it sit proof-tree
construction and validation, proof techniques (bounded coinduction,
level witnesses), a small concrete syntax, and generators that
instantiate well-known specifications — graph visits, distances,
predicates on cyclic lists, digit-stream addition, first sets,
call-by-value evaluation — into finite systems.
"""

from . import checks, dsl, engine, proofs, terms
from .terms import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .dsl import *  # noqa: F401,F403
from .proofs import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*terms.__all__, *engine.__all__, *dsl.__all__, *proofs.__all__,
           *checks.__all__, "__version__"]
