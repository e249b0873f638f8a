"""Finite-population causal inference as treatment-wise prediction.

Estimators, assumption auditors, partial-identification bounds, linear
regression tools, and a simulation harness that verifies each estimator's
error guarantee against known ground truth.  Import names from their modules
(``finitepop.core``, ``finitepop.estimate``, ``finitepop.simulate`` and so on):
this package module loads none of them.
"""

__version__ = "0.1.0"
