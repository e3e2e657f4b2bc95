"""Counting and asymptotics for lattice walks confined to 0 < x1 < ... < xk.

The package is organised around a single walk model: a walker takes
composite steps, each of which is a sequence of atomic steps (either the
axis steps +-e_j or the diagonal steps (+-1, ..., +-1)), with a weight
attached to every composite step of a given atomic length.  On top of the
model sit

* ``exact``     -- exact counts (confined dynamic programming, reflection
                   signed sums, plain coefficient extraction),
* ``asym``      -- closed-form leading-order asymptotic evaluators and
                   convergence diagnostics,
* ``detlab``    -- exact and numeric checks of the supporting determinant,
                   character and Selberg-integral identities,
* ``presets``   -- the classical named models (watermelon, star, random
                   turns, tangled diagrams) with independent formulas,
* ``cli``       -- a command line front end.
"""

from chamberwalk.stepmodel import AtomicKind, CompositeSpec

__all__ = ["AtomicKind", "CompositeSpec"]

__version__ = "0.1.0"
