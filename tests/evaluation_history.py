"""Evaluations whose bits must not depend on what ran before them in the
process, for `test_polyfield.py` to run here and in fresh child processes;
it imports only numpy and nullag, so a child starts quickly."""

import hashlib

import numpy as np

from nullag import polyfield, rund
from nullag.polyfield import bubble, evaluate_monomials, field_states, random_polyfield


def history_cases():
    """Evaluations of every kind that builds monomial matrices, on fixed
    inputs: a zero-argument call per name, returning arrays."""
    rng = np.random.default_rng(31)
    gens = rund.random_generator_set(rng, 6, 3)
    x, y = rng.uniform(0, 1, (1000, 3)), rng.uniform(-1, 1, (1000, 6))
    fields = [random_polyfield(rng, 3, 3) for _ in range(4)] + [bubble() * random_polyfield(rng, 3, 1)]
    pts = rng.uniform(0, 1, (len(fields), 40, 3))
    table, coeffs = polyfield._dense(4)[0], rng.uniform(-1, 1, (35, 2))
    many = rng.uniform(0, 1, (2500, 3))

    def kept(field, order, boundary=False):
        vals, grads = field.eval_on_rule(order, boundary)
        tables = (field._table, field._gradient()[0])
        return (vals, grads, *(b for t in tables for b in polyfield._rule_blocks[(t, order, boundary)]))

    return {
        "monomials-1": lambda: evaluate_monomials((many[:1],), table.plan, coeffs),
        "monomials-700": lambda: evaluate_monomials((many[:700],), table.plan, coeffs),
        "monomials-2500": lambda: evaluate_monomials((many,), table.plan, coeffs),
        "field_states": lambda: field_states(fields, pts),
        "first_partials-1000": lambda: gens.first_partials(x, y),
        "first_partials-3": lambda: gens.first_partials(x[:3], y[:3]),
        "second_partials-1000": lambda: gens.second_partials(x, y),
        "rule-cube": lambda: kept(fields[0], 13),
        "rule-boundary": lambda: kept(fields[-1], 5, boundary=True),
    }


def history_digests(names) -> dict:
    """SHA-256 of the bytes of each named evaluation, evaluated in order."""
    cases = history_cases()
    digests = {}
    for name in names:
        h = hashlib.sha256()
        for array in np.atleast_1d(*cases[name]()):
            h.update(array.tobytes())
        digests[name] = h.hexdigest()
    return digests
