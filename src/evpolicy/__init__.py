"""Residential EV charging / V2G simulation and evolutionary policy synthesis.

The package root re-exports nothing: import each name from its submodule,
such as ``from evpolicy.simulation import run_episode``. Importing one
submodule, such as ``evpolicy.pydriver`` in a candidate's child process,
therefore does not import the rest of the package.
"""

__version__ = "0.1.0"
