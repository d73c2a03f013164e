"""Potentials for tests: the zero potential over any sites, and a potential
given by callables, the reference input for the dense 2-d ``eigh`` route,
which no JSON description reaches, since every built-in 2-site potential is
bitwise exchange-symmetric."""

import numpy as np

from weylfk.potentials import PairPotential, PotentialSpec, zero_function


def zero_potential(sites):
    """The zero potential over sites, as the JSON "zero" variant builds it."""
    return PairPotential(sites, None, zero_function(), [])


class CustomPotential(PotentialSpec):
    """Caller-supplied potential; derivatives only up to the declared order.

    eval_fn takes an array of shape (..., n_sites) and returns (...);
    partial_fn, when given, takes (alpha, x) and must honor the same shapes.
    """

    def __init__(self, sites, eval_fn, partial_fn=None, smoothness_order=0, name="custom"):
        super().__init__(sites)
        self.eval_fn = eval_fn
        self.partial_fn = partial_fn
        self.smoothness_order = int(smoothness_order)
        self.name = name

    def eval(self, x):
        return np.asarray(self.eval_fn(self._as_points(x)), dtype=float)

    def _partial(self, alpha, x):
        if self.partial_fn is None or alpha.order > self.smoothness_order:
            raise ValueError(
                f"custom potential {self.name!r} provides derivatives only up to "
                f"order {self.smoothness_order if self.partial_fn else 0}"
            )
        return np.asarray(self.partial_fn(alpha, x), dtype=float)
