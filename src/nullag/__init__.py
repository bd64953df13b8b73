"""Null Lagrangians of generalized linear elasticity: checkers, splits,
generator constructions and a variational certification oracle.

The library is its modules (`nullag.micropolar`, `nullag.verifier`, ...):
each public object has one name, in the module that defines it, and the
package root re-exports none of them."""

__version__ = "0.1.0"
